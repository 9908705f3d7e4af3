package main

import (
	"bytes"
	"encoding/json"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/rtcl/drtp/internal/proto"
	"github.com/rtcl/drtp/internal/sim"
	"github.com/rtcl/drtp/internal/telemetry"
)

func smallOptions(t *testing.T, seed int64) options {
	return options{seed: seed, seconds: 0.5, outdir: t.TempDir(), small: true}
}

// result is the JSON object a run prints last.
type result struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	} `json:"metrics"`
}

// printed runs one workload in one mode and returns its output lines and
// parsed result.
func printed(t *testing.T, w workload, trace bool, o options) ([]string, result) {
	t.Helper()
	f := w.measure
	want := endToEnd
	if trace {
		f, want = w.traced, perLayer
	}
	rep, err := f(o)
	if err != nil {
		t.Fatalf("%s trace=%v: %v", w.name, trace, err)
	}
	if err := rep.checkNames(want); err != nil {
		t.Fatalf("%s trace=%v: %v", w.name, trace, err)
	}
	var buf bytes.Buffer
	if err := rep.write(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the JSON result: %v", w.name, err)
	}
	return lines, res
}

func metricNames(r result) []string {
	var names []string
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// TestEveryMetricPrinted runs each workload small, untraced and traced,
// and checks that the result is correct, that it carries every named
// metric with a value and a unit, that each metric also has a readable
// line, and that another seed yields the same metric set.
func TestEveryMetricPrinted(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			for _, trace := range []bool{false, true} {
				lines, res := printed(t, w, trace, smallOptions(t, 1))
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Fatalf("trace=%v: correct=%v attempted=%d failed=%d\n%s", trace, res.Correct, res.Attempted, res.Failed, strings.Join(lines, "\n"))
				}
				want := endToEnd
				if trace {
					want = perLayer
				}
				if len(res.Metrics) != len(want) {
					t.Fatalf("trace=%v: %d metrics, want %d", trace, len(res.Metrics), len(want))
				}
				for _, name := range want {
					m, ok := res.Metrics[name]
					if !ok || m.Value == nil || m.Unit == "" {
						t.Errorf("trace=%v: metric %s missing or without value and unit", trace, name)
					}
					if !containsLine(lines, "metric "+name+" ") {
						t.Errorf("trace=%v: no readable line for %s", trace, name)
					}
				}
				if !trace {
					_, other := printed(t, w, false, smallOptions(t, 2))
					if !reflect.DeepEqual(metricNames(res), metricNames(other)) {
						t.Errorf("seed 2 printed %v, seed 1 %v", metricNames(other), metricNames(res))
					}
				}
			}
		})
	}
}

func containsLine(lines []string, prefix string) bool {
	for _, l := range lines {
		if strings.HasPrefix(strings.Join(strings.Fields(l), " ")+" ", prefix) {
			return true
		}
	}
	return false
}

// TestPercentilesCarrySampleCounts checks the control-plane latency lines.
func TestPercentilesCarrySampleCounts(t *testing.T) {
	lines, _ := printed(t, workloads[2], false, smallOptions(t, 1))
	for _, name := range []string{"establish_p50_ms", "establish_p99_ms"} {
		found := false
		for _, l := range lines {
			if strings.HasPrefix(l, "metric "+name) {
				found = true
				if !strings.Contains(l, "(n=") {
					t.Errorf("%s without sample count: %s", name, l)
				}
			}
		}
		if !found {
			t.Errorf("%s not printed", name)
		}
	}
}

// TestSeedChangesInputs checks that the seed reaches what runs on each
// workload's network: scenarios, failure schedules and client pairs.
func TestSeedChangesInputs(t *testing.T) {
	a, b := smallOptions(t, 1), smallOptions(t, 2)
	for _, w := range []simWorkload{fig4, scale} {
		j1, err := w.setup(a)
		if err != nil {
			t.Fatal(err)
		}
		j2, err := w.setup(b)
		if err != nil {
			t.Fatal(err)
		}
		for i := range j1 {
			if reflect.DeepEqual(j1[i].scen.Events, j2[i].scen.Events) {
				t.Errorf("%s: %s has the same scenario under seeds 1 and 2", w.name, j1[i].label)
			}
			if len(j1[i].cfg.FailureSchedule) > 0 && reflect.DeepEqual(j1[i].cfg.FailureSchedule, j2[i].cfg.FailureSchedule) {
				t.Errorf("%s: %s has the same failure schedule under seeds 1 and 2", w.name, j1[i].label)
			}
		}
	}
	r1, r2 := clientRand(1, 0), clientRand(2, 0)
	same := true
	for range 8 {
		if r1.Intn(1000) != r2.Intn(1000) {
			same = false
		}
	}
	if same {
		t.Error("cp-tcp: seeds 1 and 2 draw the same client pairs")
	}
}

// TestLeakTripsScaleCheck leaks one reservation into a drained network.
func TestLeakTripsScaleCheck(t *testing.T) {
	jobs, err := scale.setup(smallOptions(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	_, net, err := jobs[0].runSim()
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := drainedLinks(net); n != 0 {
		t.Fatalf("clean run: %d links hold bandwidth", n)
	}
	if err := net.DB().ReservePrimary(1<<30, 0); err != nil {
		t.Fatal(err)
	}
	if n, _ := drainedLinks(net); n != 1 {
		t.Fatalf("leaked reservation: %d links flagged, want 1", n)
	}
}

// TestCorruptResultsTripFig4Checks corrupts a sweep result two ways.
func TestCorruptResultsTripFig4Checks(t *testing.T) {
	jobs, err := fig4.setup(smallOptions(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	results := make([]*sim.Result, len(jobs))
	for i := range jobs {
		if results[i], _, err = jobs[i].runSim(); err != nil {
			t.Fatal(err)
		}
	}
	rep := &report{attempted: 1}
	checkFig4(rep, jobs, results)
	reconcile(rep, "clean", jobs, results, results)
	if !rep.correct() {
		t.Fatalf("clean results fail the checks: %+v", rep.checks)
	}

	bad := *results[1]
	bad.FaultTolerance = 1.5
	corrupt := append([]*sim.Result(nil), results...)
	corrupt[1] = &bad
	rep = &report{attempted: 1}
	checkFig4(rep, jobs, corrupt)
	if rep.correct() {
		t.Error("P_act-bk of 1.5 passed the cell check")
	}

	shifted := *results[2]
	shifted.Stats.Accepted++
	corrupt = append([]*sim.Result(nil), results...)
	corrupt[2] = &shifted
	rep = &report{attempted: 1}
	reconcile(rep, "corrupt", jobs, results, corrupt)
	if rep.correct() {
		t.Error("an extra admission passed reconciliation")
	}
}

// TestHeldConnectionTripsCPCheck leaves one connection established.
func TestHeldConnectionTripsCPCheck(t *testing.T) {
	g, err := cpGraph(smallOptions(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	c, err := deployCP(g)
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	reply, err := c.nodes[0].Agent.Request(1, 1)
	if err != nil || !reply.OK {
		t.Fatalf("request: err=%v reason=%q", err, reply.Reason)
	}
	rep := &report{attempted: 1}
	checkCPDrained(rep, []string{drainedCP(c)})
	if rep.correct() {
		t.Error("a held connection passed the drained check")
	}
}

// TestCountingEndpointCountsFramedBytes checks the layer-boundary counter
// against the codec.
func TestCountingEndpointCountsFramedBytes(t *testing.T) {
	g, err := cpGraph(smallOptions(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	mesh := loopbackMesh(g)
	defer mesh.Close()
	a := &countingAttacher{inner: mesh}
	ep0, err := a.Attach(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Attach(1); err != nil {
		t.Fatal(err)
	}
	msg := proto.Hello{From: 0}
	if err := ep0.Send(1, msg); err != nil {
		t.Fatal(err)
	}
	env := proto.Envelope{From: 0, To: 1, Msg: msg}
	body, err := env.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if a.msgs.Load() != 1 || a.bytes.Load() != int64(len(body))+4 {
		t.Errorf("counted %d msgs %d bytes, want 1 and %d", a.msgs.Load(), a.bytes.Load(), len(body)+4)
	}
}

// TestHistMedianInterpolates checks the median estimate against the
// observations it summarizes.
func TestHistMedianInterpolates(t *testing.T) {
	reg := telemetry.NewRegistry()
	h := reg.Latency("test_seconds", "")
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(1000+i) * time.Microsecond) // 1.001 to 1.1 ms
	}
	got := histMedian(h)
	if got < 524288*time.Nanosecond || got > 1048576*time.Nanosecond*2 {
		t.Fatalf("median %v outside the bucket holding 1.05 ms", got)
	}
	h.Observe(5 * time.Millisecond)
	if histMedian(h) <= got {
		t.Errorf("median did not move up after a larger observation: %v then %v", got, histMedian(h))
	}
}
