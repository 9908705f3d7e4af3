package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"time"
)

// spanName names a layer boundary the benchmark records spans at.
type spanName uint8

const (
	spanReplay       spanName = iota // the benchmark's own replay of one cell
	spanEstablish                    // drtp.Manager.Establish
	spanRoute                        // drtp.Scheme.Route / RouteBackupsFor
	spanRelease                      // drtp.Manager.Release
	spanFailureSweep                 // drtp.Manager.SweepFailures
	spanApplyFailure                 // drtp.Manager.ApplyEdgeFailure
	spanRequest                      // controlplane.Agent.Request
	spanReleaseConn                  // controlplane.Agent.ReleaseConn
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"sim.replay", "drtp.establish", "routing.route", "drtp.release",
	"drtp.failure_sweep", "drtp.apply_failure", "cp.request", "cp.release",
}

// span is one recorded interval: times are nanoseconds since the
// recorder's epoch, parent is the enclosing span's ID or -1.
type span struct {
	id, parent int32
	name       spanName
	start, end int64
}

// spanTotals aggregates the closed spans of one name.
type spanTotals struct {
	calls int64
	busy  int64 // summed duration, ns
	self  int64 // summed duration minus child coverage, ns
}

// recorder keeps the spans of one goroutine in memory. Spans of one
// recorder nest strictly, so a span's children never overlap and its self
// time is its duration minus the sum of its children's.
type recorder struct {
	epoch  time.Time
	worker int
	spans  []span
	// dropped counts closed spans not kept because spans was full; their
	// durations still count in totals.
	dropped int64
	totals  [numSpanNames]spanTotals
	open    []openSpan
	nextID  int32
}

type openSpan struct {
	id      int32
	name    spanName
	start   int64
	covered int64
}

// maxKeptSpans bounds the spans one recorder keeps for the dump.
const maxKeptSpans = 1 << 20

func newRecorder(epoch time.Time, worker int) *recorder {
	return &recorder{epoch: epoch, worker: worker}
}

// begin opens a span; end closes the innermost open one.
func (r *recorder) begin(name spanName) {
	r.open = append(r.open, openSpan{id: r.nextID, name: name, start: int64(time.Since(r.epoch))})
	r.nextID++
}

func (r *recorder) end() {
	now := int64(time.Since(r.epoch))
	o := r.open[len(r.open)-1]
	r.open = r.open[:len(r.open)-1]
	dur := now - o.start
	t := &r.totals[o.name]
	t.calls++
	t.busy += dur
	t.self += dur - o.covered
	parent := int32(-1)
	if n := len(r.open); n > 0 {
		r.open[n-1].covered += dur
		parent = r.open[n-1].id
	}
	if len(r.spans) < maxKeptSpans {
		r.spans = append(r.spans, span{id: o.id, parent: parent, name: o.name, start: o.start, end: now})
	} else {
		r.dropped++
	}
}

// merged sums the totals of several recorders.
func merged(recs []*recorder) [numSpanNames]spanTotals {
	var out [numSpanNames]spanTotals
	for _, r := range recs {
		for i := range out {
			t := r.totals[i]
			out[i].calls += t.calls
			out[i].busy += t.busy
			out[i].self += t.self
		}
	}
	return out
}

// writeSpans writes the recorders' spans to dir and records the outcome
// as a check.
func (r *report) writeSpans(dir, workload string, recs []*recorder) {
	path, dropped, err := dumpSpans(dir, workload, recs)
	if err != nil {
		r.expect("trace.spans_written", false, "%v", err)
		return
	}
	r.expect("trace.spans_written", true, "%s, %d spans past the cap not kept", path, dropped)
}

// dumpSpans writes every kept span, one per line: worker, id, parent,
// name, start and end in nanoseconds since the run's epoch.
func dumpSpans(dir, workload string, recs []*recorder) (string, int64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", 0, err
	}
	path := filepath.Join(dir, "spans-"+workload+".tsv")
	f, err := os.Create(path)
	if err != nil {
		return "", 0, err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "worker\tid\tparent\tname\tstart_ns\tend_ns")
	var dropped int64
	for _, r := range recs {
		dropped += r.dropped
		for _, s := range r.spans {
			fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\n", r.worker, s.id, s.parent, spanNames[s.name], s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return "", 0, err
	}
	return path, dropped, f.Close()
}

// cpuTimes returns the process's user and system CPU time so far.
func cpuTimes() (user, sys time.Duration) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano()), time.Duration(ru.Stime.Nano())
}

// tracedPass brackets the traced half of a traced run: a CPU profile and
// the process CPU times over exactly that interval.
type tracedPass struct {
	prof       *cpuProfile
	user, sys  time.Duration
	start      time.Time
	wall       time.Duration
	sysShare   float64
	packageCPU map[string]float64
	gcShare    float64
}

func startTracedPass() (*tracedPass, error) {
	prof, err := startCPUProfile()
	if err != nil {
		return nil, err
	}
	p := &tracedPass{prof: prof, start: time.Now()}
	p.user, p.sys = cpuTimes()
	return p, nil
}

// stop ends the pass and digests the profile.
func (p *tracedPass) stop() error {
	p.wall = time.Since(p.start)
	user, sys := cpuTimes()
	du, ds := user-p.user, sys-p.sys
	p.sysShare = ratio(float64(ds), float64(du+ds))
	shares, gc, err := p.prof.stop()
	if err != nil {
		return err
	}
	p.packageCPU, p.gcShare = shares, gc
	return nil
}

// addCPU appends the cpu.* per-layer metrics from the pass.
func (p *tracedPass) addCPU(rep *report) {
	for _, pkg := range []string{"graph", "routing", "lsdb", "bitvec", "flood", "drtp", "sim",
		"controlplane", "router", "proto", "transport"} {
		rep.add("cpu."+pkg, "ratio", p.packageCPU[pkg], 0)
	}
	rep.add("cpu.gc", "ratio", p.gcShare, 0)
	rep.add("cpu.sys_share", "ratio", p.sysShare, 0)
}
