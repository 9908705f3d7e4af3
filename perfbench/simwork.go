package main

import (
	"fmt"
	"reflect"
	"runtime"
	"time"

	"github.com/rtcl/drtp/internal/sim"
)

// simWorkload is a simulator workload: a seeded set of cells, each a
// scheme replaying a scenario to its last departure on a fresh network,
// plus the workload's own checks and readable metrics.
type simWorkload struct {
	name string
	// setup generates every input of one round of cells.
	setup func(o options) ([]simJob, error)
	// check adds the workload's checks on one round's results.
	check func(rep *report, jobs []simJob, results []*sim.Result)
	// notes adds the workload's readable metrics after the timed rounds.
	notes func(rep *report, jobs []simJob, results []*sim.Result) error
}

// setupRuns is how many times a workload sets up; setup_s is the median.
const setupRuns = 9

// round runs every cell through sim.Run on workers() goroutines, the
// cells pulled in order, and counts the links whose network still holds
// bandwidth after the cell's last departure.
func round(jobs []simJob) ([]*sim.Result, int, string, error) {
	results := make([]*sim.Result, len(jobs))
	leaks := make([]int, len(jobs))
	firsts := make([]string, len(jobs))
	err := parallel(len(jobs), func(_, i int) error {
		res, net, err := jobs[i].runSim()
		if err != nil {
			return err
		}
		results[i] = res
		leaks[i], firsts[i] = drainedLinks(net)
		return nil
	})
	leaked, first := 0, ""
	for i, n := range leaks {
		if n > 0 && first == "" {
			first = jobs[i].label + ": " + firsts[i]
		}
		leaked += n
	}
	return results, leaked, first, err
}

func talliesOfAll(results []*sim.Result) []tallies {
	out := make([]tallies, len(results))
	for i, r := range results {
		out[i] = talliesOf(r)
	}
	return out
}

// measure sets the workload up setupRuns times, then runs rounds until
// o.seconds have passed and reports the end-to-end metrics: medians over
// rounds of requests per wall-clock second and allocations per request,
// and the (deterministic) acceptance of the first round.
func (w simWorkload) measure(o options) (*report, error) {
	rep := &report{}
	var jobs []simJob
	setup, err := timeSetup(setupRuns, func() { jobs = nil }, func() (err error) {
		jobs, err = w.setup(o)
		return err
	})
	if err != nil {
		return nil, err
	}

	var tputs, allocs []float64
	var first []tallies
	var firstResults []*sim.Result
	repeatable := true
	leakedTotal, firstLeak := 0, ""
	// Rounds run while the time left exceeds half a round, so the
	// measurement ends within half a round of o.seconds.
	start := time.Now()
	var wall float64
	for len(tputs) == 0 || time.Since(start).Seconds()+wall/2 < o.seconds {
		a0 := heapAllocs()
		t0 := time.Now()
		results, leaked, leak, err := round(jobs)
		if err != nil {
			return nil, err
		}
		wall = time.Since(t0).Seconds()
		da := float64(heapAllocs() - a0)
		var reqs int64
		for _, r := range results {
			reqs += r.Stats.Requests
		}
		rep.attempted += reqs
		tputs = append(tputs, float64(reqs)/wall)
		allocs = append(allocs, da/float64(reqs))
		if leaked > 0 && firstLeak == "" {
			firstLeak = leak
		}
		leakedTotal += leaked
		tl := talliesOfAll(results)
		if first == nil {
			first, firstResults = tl, results
		} else if !reflect.DeepEqual(tl, first) {
			repeatable = false
		}
	}
	rep.expect(w.name+".drained", leakedTotal == 0, "%d links hold bandwidth after the last departure %s", leakedTotal, firstLeak)
	rep.expect(w.name+".repeatable", repeatable, "%d rounds of seed %d agree cell for cell", len(tputs), o.seed)
	w.check(rep, jobs, firstResults)

	// Acceptance counts the dependable schemes' measurement windows: the
	// no-backup baseline and the warmup would only dilute how far a
	// changed routing decision moves it.
	var acc, req int64
	for i, r := range firstResults {
		if !isBaseline(jobs[i]) {
			acc += r.AcceptedInWindow
			req += r.RequestsInWindow
		}
	}
	rep.add("setup_s", "s", setup, setupRuns)
	rep.add("requests_per_s", "1/s", median(tputs), len(tputs))
	rep.add("allocs_per_request", "count", median(allocs), len(allocs))
	rep.add("accept_ratio", "ratio", ratio(float64(acc), float64(req)), 0)
	if err := w.notes(rep, jobs, firstResults); err != nil {
		return nil, err
	}
	rep.note("failed_ratio", "ratio", ratio(float64(rep.failed), float64(rep.attempted)), 0)
	return rep, nil
}

// traced runs one round untraced, then replays the same cells with spans
// under a CPU profile, checks that the replay reproduced the round cell
// for cell and reports the per-layer metrics.
func (w simWorkload) traced(o options) (*report, error) {
	jobs, err := w.setup(o)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	want, leaked, leak, err := round(jobs)
	if err != nil {
		return nil, err
	}
	untraced := time.Since(t0)

	rep := &report{}
	got, recs, counts, pass, err := tracedSimPass(jobs)
	if err != nil {
		return nil, err
	}
	rep.expect(w.name+".drained", leaked == 0, "%d links hold bandwidth after the last departure %s", leaked, leak)
	w.check(rep, jobs, got)
	reconcile(rep, w.name+".traced_replay_reconciles", jobs, want, got)
	for _, r := range got {
		rep.attempted += r.Stats.Requests
	}
	addSpanMetrics(rep, merged(recs), counts)
	addZeroCPMetrics(rep)
	pass.addCPU(rep)
	rep.add("trace.overhead_ratio", "ratio", pass.wall.Seconds()/untraced.Seconds()-1, 0)
	rep.writeSpans(o.outdir, w.name, recs)
	return rep, nil
}

// timeSetup runs setup k times and returns the median wall time. Before
// every set-up but the first it calls reset to drop the previous one, then
// collects the heap, so that neither the teardown nor the collection of
// the previous set-up is timed.
func timeSetup(k int, reset func(), setup func() error) (float64, error) {
	var ts []float64
	for i := range k {
		if i > 0 {
			reset()
		}
		runtime.GC()
		t := time.Now()
		if err := setup(); err != nil {
			return 0, err
		}
		ts = append(ts, time.Since(t).Seconds())
	}
	return median(ts), nil
}

// tracedSimPass replays every job with spans on workers() goroutines,
// under a CPU profile.
func tracedSimPass(jobs []simJob) ([]*sim.Result, []*recorder, layerCounts, *tracedPass, error) {
	epoch := time.Now()
	n := min(workers(), len(jobs))
	recs := make([]*recorder, n)
	wc := make([]layerCounts, n)
	for w := range recs {
		recs[w] = newRecorder(epoch, w)
	}
	results := make([]*sim.Result, len(jobs))
	pass, err := startTracedPass()
	if err != nil {
		return nil, nil, layerCounts{}, nil, err
	}
	err = parallel(len(jobs), func(w, i int) error {
		res, err := jobs[i].replay(recs[w], &wc[w])
		results[i] = res
		return err
	})
	if perr := pass.stop(); err == nil {
		err = perr
	}
	if err != nil {
		return nil, nil, layerCounts{}, nil, err
	}
	var counts layerCounts
	for _, c := range wc {
		counts.add(c)
	}
	return results, recs, counts, pass, nil
}

// reconcile checks that the traced replay reproduced the untraced
// results cell for cell.
func reconcile(rep *report, name string, jobs []simJob, want, got []*sim.Result) {
	bad := ""
	for i := range jobs {
		if want[i] == nil || got[i] == nil || talliesOf(want[i]) != talliesOf(got[i]) {
			bad = fmt.Sprintf("first mismatch: %s", jobs[i].label)
			break
		}
	}
	rep.expect(name, bad == "", "%d cells %s", len(jobs), bad)
}
