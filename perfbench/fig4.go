package main

import (
	"fmt"

	"github.com/rtcl/drtp/internal/experiments"
	"github.com/rtcl/drtp/internal/rng"
	"github.com/rtcl/drtp/internal/scenario"
	"github.com/rtcl/drtp/internal/sim"
)

// fig4-paper: the paper's Table-1 evaluation on the repository's paper
// network (experiments.DefaultParams(3): 60-node Waxman E=3 of seed 1,
// capacity 40), UT and NT traffic, all six lambdas, D-LSR/P-LSR/BF plus
// the no-backup baseline, single-link failure sweeps every 10 minutes
// after warmup. The cells are experiments.RunSweep's: the same scenario
// labels and per-cell configuration, run through sim.Run. The seed
// generates the traffic; with seed 1 the cells are exactly RunSweep's.
var fig4 = simWorkload{name: "fig4-paper", setup: setupFig4, check: checkFig4, notes: fig4Notes}

func fig4Params(o options) experiments.Params {
	p := experiments.DefaultParams(3)
	p.Seed = networkSeed
	if o.small {
		p.Nodes = 20
		p.Duration = 60
		p.Warmup = 24
		p.EvalInterval = 12
		p.Lambdas = []float64{0.3, 0.7}
	}
	return p
}

// setupFig4 generates the topology and one scenario per (pattern,
// lambda), and returns the sweep's cells in RunSweep's order: for each
// (pattern, lambda) the no-backup baseline, then D-LSR, P-LSR and BF.
func setupFig4(o options) ([]simJob, error) {
	p := fig4Params(o)
	g, err := p.Topology()
	if err != nil {
		return nil, err
	}
	var jobs []simJob
	for _, pattern := range p.Patterns {
		for _, lambda := range p.Lambdas {
			sc, err := scenario.Generate(scenario.Config{
				Nodes:    p.Nodes,
				Lambda:   lambda,
				Duration: p.Duration,
				Pattern:  pattern,
				Seed:     rng.New(o.seed).Split(fmt.Sprintf("scenario/%s/%.3f", pattern, lambda)).Int63(),
			})
			if err != nil {
				return nil, err
			}
			specs := append([]experiments.SchemeSpec{experiments.NoBackupSpec()}, experiments.PaperSchemes()...)
			for _, spec := range specs {
				jobs = append(jobs, simJob{
					label: fmt.Sprintf("%s/%s/%.1f", spec.Name, pattern, lambda),
					graph: g, capacity: p.Capacity, spec: spec, scen: sc,
					cfg: sim.Config{Warmup: p.Warmup, EvalInterval: p.EvalInterval, ManagerOpts: spec.ManagerOpts},
				})
			}
		}
	}
	return jobs, nil
}

// isBaseline reports whether a cell runs the no-backup baseline.
func isBaseline(j simJob) bool { return j.spec.Name == experiments.NoBackupSpec().Name }

// checkFig4 checks one sweep's results: every dependable cell has a valid
// fault-tolerance sample, and P_act-bk and acceptance lie in [0,1].
func checkFig4(rep *report, jobs []simJob, results []*sim.Result) {
	bad := ""
	for i, r := range results {
		switch {
		case !isBaseline(jobs[i]) && (!r.FTValid || r.FaultTolerance < 0 || r.FaultTolerance > 1):
			bad = fmt.Sprintf("%s: P_act-bk %v valid=%v", jobs[i].label, r.FaultTolerance, r.FTValid)
		case r.AcceptRatioInWindow() < 0 || r.AcceptRatioInWindow() > 1 || r.Recovered > r.Affected:
			bad = fmt.Sprintf("%s: ratio out of [0,1]", jobs[i].label)
		}
		if bad != "" {
			break
		}
	}
	rep.expect("fig4-paper.cells_valid", bad == "", "%d cells %s", len(results), bad)
}

// fig4Notes adds P_act-bk per scheme over the whole sweep.
func fig4Notes(rep *report, jobs []simJob, results []*sim.Result) error {
	for _, s := range []struct{ metric, scheme string }{{"pactbk.plsr", "P-LSR"}, {"pactbk.dlsr", "D-LSR"}, {"pactbk.bf", "BF"}} {
		var recovered, affected int64
		for i, r := range results {
			if jobs[i].spec.Name == s.scheme {
				recovered += r.Recovered
				affected += r.Affected
			}
		}
		rep.note(s.metric, "ratio", ratio(float64(recovered), float64(affected)), int(affected))
	}
	return nil
}
