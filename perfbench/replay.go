package main

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"github.com/rtcl/drtp/internal/drtp"
	"github.com/rtcl/drtp/internal/experiments"
	"github.com/rtcl/drtp/internal/flood"
	"github.com/rtcl/drtp/internal/graph"
	"github.com/rtcl/drtp/internal/lsdb"
	"github.com/rtcl/drtp/internal/scenario"
	"github.com/rtcl/drtp/internal/sim"
)

// simJob is one simulator cell: a scheme replaying a scenario on a fresh
// network, exactly as experiments.RunSweep or sim.Run would run it.
type simJob struct {
	label    string
	graph    *graph.Graph
	capacity int
	spec     experiments.SchemeSpec
	scen     *scenario.Scenario
	cfg      sim.Config
}

// newNetwork builds the job's fresh network.
func (j *simJob) newNetwork() (*drtp.Network, error) {
	return drtp.NewNetworkWithMode(j.graph, j.capacity, 1, lsdb.Multiplexed)
}

// runSim runs the job through sim.Run and returns its result and network.
func (j *simJob) runSim() (*sim.Result, *drtp.Network, error) {
	net, err := j.newNetwork()
	if err != nil {
		return nil, nil, err
	}
	res, err := sim.Run(net, j.spec.New(0), j.scen, j.cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", j.label, err)
	}
	return res, net, nil
}

// workers is the number of goroutines a workload drives the program with:
// one per CPU the process may use.
func workers() int { return runtime.GOMAXPROCS(0) }

// parallel runs job(i) for i in [0,n) on up to workers() goroutines, each
// worker w pulling indices in order, and returns the first error by index.
func parallel(n int, job func(w, i int) error) error {
	errs := make([]error, n)
	next := make(chan int)
	var wg sync.WaitGroup
	for w := range min(workers(), n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				errs[i] = job(w, i)
			}
		}()
	}
	for i := range n {
		next <- i
	}
	close(next)
	wg.Wait()
	return errors.Join(errs...)
}

// layerCounts are the counts a traced replay gathers at layer boundaries.
type layerCounts struct {
	routeCalls, routeWithBackup int64
	floodRequests, cdpForwards  int64
	switched, dropped           int64
	sweepLinks                  int64
	backupsEstablished          int64
	registerFailures            int64
	aplvBytes                   []float64
}

func (c *layerCounts) add(o layerCounts) {
	c.routeCalls += o.routeCalls
	c.routeWithBackup += o.routeWithBackup
	c.floodRequests += o.floodRequests
	c.cdpForwards += o.cdpForwards
	c.switched += o.switched
	c.dropped += o.dropped
	c.sweepLinks += o.sweepLinks
	c.backupsEstablished += o.backupsEstablished
	c.registerFailures += o.registerFailures
	c.aplvBytes = append(c.aplvBytes, o.aplvBytes...)
}

// tracedScheme wraps a drtp.Scheme and records a routing.route span
// around each call.
type tracedScheme struct {
	inner  drtp.Scheme
	rec    *recorder
	counts *layerCounts
}

func (s *tracedScheme) Name() string { return s.inner.Name() }

func (s *tracedScheme) Route(net *drtp.Network, req drtp.Request) (drtp.Route, error) {
	s.rec.begin(spanRoute)
	r, err := s.inner.Route(net, req)
	s.rec.end()
	if err == nil && !r.Primary.Empty() {
		s.counts.routeCalls++
		if len(r.Backups) > 0 {
			s.counts.routeWithBackup++
		}
	}
	return r, err
}

// tracedBackupScheme adds drtp.BackupRouter to tracedScheme for schemes
// that implement it, so the manager's re-protection after a switch takes
// the same path as without the wrapper.
type tracedBackupScheme struct {
	*tracedScheme
	br drtp.BackupRouter
}

func (s *tracedBackupScheme) RouteBackupsFor(net *drtp.Network, req drtp.Request, primary graph.Path, existing []graph.Path) []graph.Path {
	s.rec.begin(spanRoute)
	out := s.br.RouteBackupsFor(net, req, primary, existing)
	s.rec.end()
	return out
}

func wrapScheme(inner drtp.Scheme, rec *recorder, counts *layerCounts) drtp.Scheme {
	ts := &tracedScheme{inner: inner, rec: rec, counts: counts}
	if br, ok := inner.(drtp.BackupRouter); ok {
		return &tracedBackupScheme{tracedScheme: ts, br: br}
	}
	return ts
}

// replay runs the job through the benchmark's own event loop over the
// public drtp.Manager methods, with a span around each call. It follows
// sim.Run's event order exactly (failure sweeps before the event that
// passes their epoch, traffic before failures at equal times), so its
// counters must equal sim.Run's on the same job; the load integrals
// sim.Run also keeps are left out. It returns the tallies sim.Result
// reports.
func (j *simJob) replay(rec *recorder, counts *layerCounts) (*sim.Result, error) {
	net, err := j.newNetwork()
	if err != nil {
		return nil, err
	}
	inner := j.spec.New(0)
	fl, isFlood := inner.(*flood.Scheme)
	mgr := drtp.NewManager(net, wrapScheme(inner, rec, counts), j.cfg.ManagerOpts...)
	res := &sim.Result{Scheme: inner.Name()}
	cfg := j.cfg

	rec.begin(spanReplay)
	end := cfg.EndTime
	if end == 0 {
		end = j.scen.EndTime()
	}
	horizon := j.scen.Config.Duration
	aplvRead := false
	nextEval := cfg.Warmup
	if cfg.EvalInterval == 0 {
		nextEval = end + 1
	}
	runEvals := func(upto float64) {
		for nextEval <= upto {
			rec.begin(spanFailureSweep)
			outcomes := mgr.SweepFailures(drtp.LinkFailures)
			rec.end()
			counts.sweepLinks += int64(len(outcomes))
			for _, o := range outcomes {
				res.Affected += int64(o.Affected)
				res.Recovered += int64(o.Recovered)
				res.NoBackup += int64(o.NoBackup)
				res.BackupHit += int64(o.BackupHit)
				res.Contention += int64(o.Contention)
			}
			res.Sweeps++
			nextEval += cfg.EvalInterval
		}
	}

	type item struct {
		time    float64
		traffic *scenario.Event
		fail    bool
		edge    graph.EdgeID
	}
	timeline := make([]item, 0, len(j.scen.Events)+2*len(cfg.FailureSchedule))
	for i := range j.scen.Events {
		timeline = append(timeline, item{time: j.scen.Events[i].Time, traffic: &j.scen.Events[i]})
	}
	for _, f := range cfg.FailureSchedule {
		timeline = append(timeline, item{time: f.Time, fail: true, edge: f.Edge})
		if f.Repair > f.Time {
			timeline = append(timeline, item{time: f.Repair, edge: f.Edge})
		}
	}
	sort.SliceStable(timeline, func(a, b int) bool { return timeline[a].time < timeline[b].time })

	downCount := make(map[graph.EdgeID]int)
	for _, it := range timeline {
		if it.time > end {
			break
		}
		now := it.time
		runEvals(now)
		if !aplvRead && now > horizon {
			counts.aplvBytes = append(counts.aplvBytes, float64(net.DB().APLVBytes()))
			aplvRead = true
		}
		if it.traffic == nil {
			if it.fail {
				downCount[it.edge]++
				if downCount[it.edge] > 1 {
					continue
				}
				rec.begin(spanApplyFailure)
				out := mgr.ApplyEdgeFailure(it.edge)
				rec.end()
				res.FailuresApplied++
				res.FailureAffected += int64(out.Affected)
				res.Switched += int64(out.Switched)
				res.Dropped += int64(out.Dropped)
				res.Reestablished += int64(out.BackupsReestablished)
			} else {
				if downCount[it.edge] > 0 {
					downCount[it.edge]--
				}
				if downCount[it.edge] == 0 {
					net.RestoreEdge(it.edge)
				}
			}
			continue
		}
		ev := it.traffic
		switch ev.Kind {
		case scenario.Arrival:
			if now > cfg.Warmup {
				res.RequestsInWindow++
			}
			rec.begin(spanEstablish)
			_, err := mgr.Establish(drtp.Request{ID: ev.Conn, Src: ev.Src, Dst: ev.Dst})
			rec.end()
			if err != nil {
				if !errors.Is(err, drtp.ErrNoRoute) && !errors.Is(err, drtp.ErrNoBackup) {
					return nil, fmt.Errorf("%s: establish %d: %w", j.label, ev.Conn, err)
				}
				continue
			}
			if now > cfg.Warmup {
				res.AcceptedInWindow++
			}
		case scenario.Departure:
			if _, active := mgr.Get(ev.Conn); active {
				rec.begin(spanRelease)
				err := mgr.Release(ev.Conn)
				rec.end()
				if err != nil {
					return nil, fmt.Errorf("%s: release %d: %w", j.label, ev.Conn, err)
				}
			}
		}
	}
	runEvals(end)
	if !aplvRead {
		counts.aplvBytes = append(counts.aplvBytes, float64(net.DB().APLVBytes()))
	}
	rec.end()

	res.Stats = mgr.Stats()
	if res.Affected > 0 {
		res.FaultTolerance = float64(res.Recovered) / float64(res.Affected)
		res.FTValid = true
	}
	counts.switched += res.Switched
	counts.dropped += res.Dropped
	counts.backupsEstablished += res.Stats.BackupsEstablished
	counts.registerFailures += res.Stats.BackupRegisterFailures
	if isFlood {
		st := fl.Stats()
		counts.floodRequests += st.Requests
		counts.cdpForwards += st.CDPForwards
	}
	return res, nil
}

// tallies is the part of a cell's result that a replay must reproduce
// exactly.
type tallies struct {
	stats                                        drtp.Stats
	acceptedInWindow, requestsInWindow           int64
	affected, recovered, noBackup, hit, contend  int64
	sweeps, failures                             int
	failureAffected, switched, dropped, reestabl int64
}

func talliesOf(r *sim.Result) tallies {
	return tallies{
		stats: r.Stats, acceptedInWindow: r.AcceptedInWindow, requestsInWindow: r.RequestsInWindow,
		affected: r.Affected, recovered: r.Recovered, noBackup: r.NoBackup, hit: r.BackupHit,
		contend: r.Contention, sweeps: r.Sweeps, failures: r.FailuresApplied,
		failureAffected: r.FailureAffected, switched: r.Switched, dropped: r.Dropped,
		reestabl: r.Reestablished,
	}
}

// addSpanMetrics appends the span-derived per-layer metrics of a
// simulator workload.
func addSpanMetrics(rep *report, t [numSpanNames]spanTotals, c layerCounts) {
	sec := func(ns int64) float64 { return float64(ns) / 1e9 }
	rep.add("drtp.failure_sweep.busy_s", "s", sec(t[spanFailureSweep].busy), 0)
	rep.add("drtp.failure_sweep.links", "count", float64(c.sweepLinks), 0)
	rep.add("routing.route.busy_s", "s", sec(t[spanRoute].busy), 0)
	rep.add("routing.route.calls", "count", float64(t[spanRoute].calls), 0)
	rep.add("routing.backup_found_ratio", "ratio", ratio(float64(c.routeWithBackup), float64(c.routeCalls)), 0)
	rep.add("lsdb.aplv_bytes", "bytes", median(c.aplvBytes), len(c.aplvBytes))
	rep.add("lsdb.register_fail_ratio", "ratio", ratio(float64(c.registerFailures),
		float64(c.registerFailures+c.backupsEstablished)), 0)
	rep.add("flood.cdp_per_request", "count", ratio(float64(c.cdpForwards), float64(c.floodRequests)), 0)
	rep.add("drtp.establish.calls", "count", float64(t[spanEstablish].calls), 0)
	rep.add("drtp.establish.self_s", "s", sec(t[spanEstablish].self), 0)
	rep.add("drtp.release.busy_s", "s", sec(t[spanRelease].busy), 0)
	rep.add("drtp.apply_failure.busy_s", "s", sec(t[spanApplyFailure].busy), 0)
	rep.add("drtp.apply_failure.switched", "count", float64(c.switched), 0)
	rep.add("drtp.apply_failure.dropped", "count", float64(c.dropped), 0)
	rep.add("sim.self_s", "s", sec(t[spanReplay].self), 0)
}

// addZeroCPMetrics appends the control-plane per-layer metrics for a
// simulator workload, which never reaches those layers.
func addZeroCPMetrics(rep *report) {
	for _, name := range []string{"cp.admission_p50_ms", "cp.route_query_p50_ms", "cp.establish_stage_p50_ms",
		"cp.release_p50_ms", "router.hop_signal_p50_ms"} {
		rep.add(name, "ms", 0, 0)
	}
	rep.add("transport.msgs_per_conn", "count", 0, 0)
	rep.add("proto.bytes_per_conn", "bytes", 0, 0)
	rep.add("transport.idle_msgs_per_s", "1/s", 0, 0)
}
