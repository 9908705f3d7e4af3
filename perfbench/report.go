package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime/metrics"
	"sort"
)

// endToEnd lists the metrics of an untraced run, in BENCHMARK.json order.
// Every workload reports every one of them.
var endToEnd = []string{"setup_s", "requests_per_s", "allocs_per_request", "accept_ratio"}

// perLayer lists the metrics of a traced run, in BENCHMARK.json order.
// Every workload reports every one of them; a layer a workload does not
// reach reads 0 there.
var perLayer = []string{
	"drtp.failure_sweep.busy_s", "drtp.failure_sweep.links",
	"routing.route.busy_s", "routing.route.calls", "routing.backup_found_ratio",
	"lsdb.aplv_bytes", "lsdb.register_fail_ratio",
	"flood.cdp_per_request",
	"drtp.establish.calls", "drtp.establish.self_s", "drtp.release.busy_s",
	"drtp.apply_failure.busy_s", "drtp.apply_failure.switched", "drtp.apply_failure.dropped",
	"sim.self_s",
	"cp.admission_p50_ms", "cp.route_query_p50_ms", "cp.establish_stage_p50_ms",
	"cp.release_p50_ms", "router.hop_signal_p50_ms",
	"transport.msgs_per_conn", "proto.bytes_per_conn", "transport.idle_msgs_per_s",
	"cpu.graph", "cpu.routing", "cpu.lsdb", "cpu.bitvec", "cpu.flood", "cpu.drtp", "cpu.sim",
	"cpu.controlplane", "cpu.router", "cpu.proto", "cpu.transport",
	"cpu.gc", "cpu.sys_share",
	"trace.overhead_ratio",
}

// metric is one measured value. n is the sample count behind a median or
// percentile (0 for a single measurement).
type metric struct {
	name  string
	unit  string
	value float64
	n     int
}

// check is one correctness check and its outcome.
type check struct {
	name   string
	ok     bool
	detail string
}

// report is what one run measured and checked.
type report struct {
	attempted, failed int64
	checks            []check
	// metrics are the ones the JSON result carries: the end-to-end list
	// for an untraced run, the per-layer list for a traced one.
	metrics []metric
	// notes are further measurements printed only as readable lines:
	// end-to-end quantities that apply to one workload alone.
	notes []metric
}

func (r *report) add(name, unit string, value float64, n int) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: value, n: n})
}

func (r *report) note(name, unit string, value float64, n int) {
	r.notes = append(r.notes, metric{name: name, unit: unit, value: value, n: n})
}

// expect records a correctness check.
func (r *report) expect(name string, ok bool, format string, args ...any) {
	r.checks = append(r.checks, check{name: name, ok: ok, detail: fmt.Sprintf(format, args...)})
}

func (r *report) correct() bool {
	for _, c := range r.checks {
		if !c.ok {
			return false
		}
	}
	return len(r.checks) > 0 && r.attempted > 0
}

// checkNames verifies that the report carries exactly the wanted metrics,
// each once, with finite values.
func (r *report) checkNames(want []string) error {
	seen := make(map[string]bool, len(r.metrics))
	for _, m := range r.metrics {
		if seen[m.name] {
			return fmt.Errorf("metric %s reported twice", m.name)
		}
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s is %v", m.name, m.value)
		}
		seen[m.name] = true
	}
	for _, name := range want {
		if !seen[name] {
			return fmt.Errorf("metric %s not reported", name)
		}
	}
	if len(seen) != len(want) {
		return fmt.Errorf("reported %d metrics, want %d", len(seen), len(want))
	}
	return nil
}

// write prints the checks, the readable metric lines and, last, the JSON
// result.
func (r *report) write(w io.Writer) error {
	for _, c := range r.checks {
		status := "ok"
		if !c.ok {
			status = "FAILED"
		}
		fmt.Fprintf(w, "check %-34s %-6s %s\n", c.name, status, c.detail)
	}
	for _, m := range append(append([]metric(nil), r.metrics...), r.notes...) {
		line := fmt.Sprintf("metric %-30s %16.6g %s", m.name, m.value, m.unit)
		if m.n > 0 {
			line += fmt.Sprintf(" (n=%d)", m.n)
		}
		fmt.Fprintln(w, line)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]value{}}
	for _, m := range r.metrics {
		out.Metrics[m.name] = value{Value: m.value, Unit: m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

// median returns the median of xs (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// percentile returns the nearest-rank q-quantile of xs (0 when empty).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(k, len(s)-1))]
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// heapAllocs returns the number of heap objects allocated so far by the
// whole process.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// liveHeap returns the bytes of heap the last GC cycle found reachable.
// Call runtime.GC first for a current figure.
func liveHeap() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
