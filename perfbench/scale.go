package main

import (
	"fmt"
	"runtime"

	"github.com/rtcl/drtp/internal/drtp"
	"github.com/rtcl/drtp/internal/experiments"
	"github.com/rtcl/drtp/internal/graph"
	"github.com/rtcl/drtp/internal/rng"
	"github.com/rtcl/drtp/internal/scenario"
	"github.com/rtcl/drtp/internal/sim"
	"github.com/rtcl/drtp/internal/topology"
)

// scale-churn: a 1000-node Waxman E=3 network (seed 1) under sustained
// Poisson UT arrivals at -exp scale's default rate, with the paper's 20-60
// minute lifetimes, D-LSR and P-LSR, and a seeded schedule of destructive
// edge failures, each repaired after half the spacing between failures.
// Each round replays two scenarios under both schemes with sim.Run, run to
// the last departure. The arrival count sizes a round to about 14 s on a
// 2-vCPU host, so a 30 s run measures two; at that load lsdb and graph
// take most of the CPU (WORKLOADS.md). The seed generates the scenarios and the
// failure schedules.
var scale = simWorkload{name: "scale-churn", setup: setupScale, check: checkScale, notes: scaleNotes}

type scaleConfig struct {
	nodes     int
	lambda    float64 // arrivals per node per minute
	arrivals  int     // request arrivals per scenario
	failures  int     // destructive edge failures per scenario
	scenarios int
}

// duration is the arrival horizon in minutes. As in -exp scale, it
// follows from the arrival count: arrivals / (nodes · lambda).
func (c scaleConfig) duration() float64 {
	return float64(c.arrivals) / (float64(c.nodes) * c.lambda)
}

func scaleParams(o options) scaleConfig {
	if o.small {
		return scaleConfig{nodes: 150, lambda: 0.4, arrivals: 600, failures: 4, scenarios: 2}
	}
	return scaleConfig{nodes: 1000, lambda: 0.4, arrivals: 6000, failures: 16, scenarios: 2}
}

const scaleCapacity = 40

// setupScale generates the topology, the scenarios and their failure
// schedules, and returns one round's jobs: every scenario under D-LSR,
// then every scenario under P-LSR, so two workers finish a round at
// about the same time (a D-LSR cell costs about three P-LSR cells).
func setupScale(o options) ([]simJob, error) {
	c := scaleParams(o)
	g, err := topology.Waxman(topology.WaxmanConfig{Nodes: c.nodes, AvgDegree: 3, MinDegree: 2, Seed: networkSeed})
	if err != nil {
		return nil, err
	}
	root := rng.New(o.seed)
	warmup := 0.2 * c.duration()
	var scens []*scenario.Scenario
	var fails [][]sim.FailureEvent
	for k := range c.scenarios {
		sc, err := scenario.Generate(scenario.Config{
			Nodes:    c.nodes,
			Lambda:   c.lambda,
			Duration: c.duration(),
			Pattern:  scenario.UT,
			Seed:     root.Split(fmt.Sprintf("scale/scenario/%d", k)).Int63(),
		})
		if err != nil {
			return nil, err
		}
		scens = append(scens, sc)
		fails = append(fails, failureSchedule(g, root.Split(fmt.Sprintf("scale/failures/%d", k)), c.failures, warmup, c.duration()))
	}
	var jobs []simJob
	for _, spec := range experiments.PaperSchemes()[:2] {
		for k, sc := range scens {
			jobs = append(jobs, simJob{
				label: fmt.Sprintf("%s/scenario-%d", spec.Name, k),
				graph: g, capacity: scaleCapacity, spec: spec, scen: sc,
				cfg: sim.Config{Warmup: warmup, FailureSchedule: fails[k]},
			})
		}
	}
	// One network build, as every job makes one.
	if _, err := jobs[0].newNetwork(); err != nil {
		return nil, err
	}
	return jobs, nil
}

// failureSchedule spaces n edge failures evenly across the measurement
// window, each on an edge drawn uniformly and repaired after half a
// spacing, so no two failures overlap.
func failureSchedule(g *graph.Graph, r *rng.Source, n int, warmup, duration float64) []sim.FailureEvent {
	spacing := (duration - warmup) / float64(n+1)
	evs := make([]sim.FailureEvent, 0, n)
	for k := range n {
		at := warmup + spacing*float64(k+1)
		evs = append(evs, sim.FailureEvent{Time: at, Edge: graph.EdgeID(r.Intn(g.NumEdges())), Repair: at + spacing/2})
	}
	return evs
}

// drainedLinks returns how many links still hold primary or spare
// bandwidth, and the first such link's state.
func drainedLinks(net *drtp.Network) (int, string) {
	db := net.DB()
	leaked, first := 0, ""
	for l := range net.Graph().NumLinks() {
		id := graph.LinkID(l)
		if p, s := db.PrimeBW(id), db.SpareBW(id); p != 0 || s != 0 {
			if leaked == 0 {
				first = fmt.Sprintf("link %d prime %d spare %d", l, p, s)
			}
			leaked++
		}
	}
	return leaked, first
}

// activeConns counts the scenario's connections that hold a primary
// reservation: a primary always leaves its source, so probing the
// source's outgoing links finds it.
func activeConns(net *drtp.Network, sc *scenario.Scenario) int {
	g, db := net.Graph(), net.DB()
	n := 0
	for _, ev := range sc.Events {
		if ev.Kind != scenario.Arrival {
			continue
		}
		for _, l := range g.Out(ev.Src) {
			if db.HasPrimary(ev.Conn, l) {
				n++
				break
			}
		}
	}
	return n
}

// checkScale checks that every cell applied its whole failure schedule
// and that every affected connection either switched or was dropped.
func checkScale(rep *report, jobs []simJob, results []*sim.Result) {
	bad := ""
	for i, r := range results {
		if r.FailuresApplied != len(jobs[i].cfg.FailureSchedule) || r.Switched+r.Dropped != r.FailureAffected {
			bad = fmt.Sprintf("%s: %d of %d failures, %d switched + %d dropped of %d affected", jobs[i].label,
				r.FailuresApplied, len(jobs[i].cfg.FailureSchedule), r.Switched, r.Dropped, r.FailureAffected)
			break
		}
	}
	rep.expect("scale-churn.failures_applied", bad == "", "%d cells %s", len(results), bad)
}

// scaleNotes adds the recovered share of the destructive failures and the
// live heap per held connection. For the latter one P-LSR cell is replayed
// to the end of its arrival horizon, then the heap is collected while its
// network still holds every connection.
func scaleNotes(rep *report, jobs []simJob, results []*sim.Result) error {
	var affected, switched int64
	for _, r := range results {
		affected += r.FailureAffected
		switched += r.Switched
	}
	heapJob := jobs[len(jobs)/2]
	heapJob.cfg.EndTime = heapJob.scen.Config.Duration
	_, net, err := heapJob.runSim()
	if err != nil {
		return err
	}
	runtime.GC()
	live := liveHeap()
	held := activeConns(net, heapJob.scen)
	runtime.KeepAlive(net)
	rep.note("heap_bytes_per_conn", "bytes", ratio(float64(live), float64(held)), held)
	rep.note("recovered_ratio", "ratio", ratio(float64(switched), float64(affected)), int(affected))
	return nil
}
