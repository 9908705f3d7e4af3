package telemetry

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// SLO is a latency objective: "the Percentile-quantile of <metric> stays
// at or below Threshold". Objectives evaluate against either a live
// LatencyHist or a slice of reconstructed samples (drtptrace's path), so
// the same verdict logic serves /metrics consumers and BENCH snapshots.
type SLO struct {
	// Name identifies the objective in reports, e.g. "establish-p95".
	Name string `json:"name"`
	// Percentile is the target quantile in (0, 1], e.g. 0.95.
	Percentile float64 `json:"percentile"`
	// Threshold is the latency bound the quantile must not exceed.
	Threshold time.Duration `json:"threshold_ns"`
}

// SLOResult is one evaluated objective.
type SLOResult struct {
	SLO
	// Samples is the number of observations the verdict is based on.
	Samples int64 `json:"samples"`
	// Observed is the measured quantile in seconds.
	Observed float64 `json:"observed_seconds"`
	// Pass reports whether the observed quantile met the threshold.
	// An objective with zero samples passes vacuously.
	Pass bool `json:"pass"`
	// BudgetBurn is the fraction of the error budget consumed: the share
	// of observations over Threshold divided by the allowed share
	// (1 - Percentile). 1.0 means the budget is exactly spent; > 1 means
	// the objective is violated on budget terms.
	BudgetBurn float64 `json:"budget_burn"`
}

// String renders the result as one report line.
func (r SLOResult) String() string {
	verdict := "PASS"
	if !r.Pass {
		verdict = "FAIL"
	}
	return fmt.Sprintf("%-24s p%g <= %v: observed %v over %d samples, budget burn %.2f [%s]",
		r.Name, 100*r.Percentile, r.Threshold,
		time.Duration(r.Observed*float64(time.Second)).Round(time.Microsecond),
		r.Samples, r.BudgetBurn, verdict)
}

// verdict fills the derived fields from the measured quantile and the
// count of observations over threshold.
func (s SLO) verdict(samples, over int64, observed time.Duration) SLOResult {
	res := SLOResult{SLO: s, Samples: samples, Observed: observed.Seconds()}
	if samples == 0 {
		res.Pass = true
		return res
	}
	res.Pass = observed <= s.Threshold
	allowed := (1 - s.Percentile) * float64(samples)
	if allowed <= 0 {
		// A p100 objective has no budget: any excess observation burns
		// infinitely. Report the over-count itself instead.
		if over > 0 {
			res.BudgetBurn = math.Inf(1)
		}
		return res
	}
	res.BudgetBurn = float64(over) / allowed
	return res
}

// EvaluateSamples evaluates the objective against raw latency samples in
// seconds (e.g. reconstructed from a trace). The slice is not modified.
func (s SLO) EvaluateSamples(samples []float64) SLOResult {
	sorted := make([]float64, len(samples))
	copy(sorted, samples)
	sort.Float64s(sorted)
	n := int64(len(sorted))
	if n == 0 {
		return s.verdict(0, 0, 0)
	}
	observed := QuantileSeconds(sorted, s.Percentile)
	over := int64(0)
	limit := s.Threshold.Seconds()
	for _, v := range sorted {
		if v > limit {
			over++
		}
	}
	return s.verdict(n, over, time.Duration(observed*float64(time.Second)))
}

// QuantileSeconds returns the nearest-rank q-quantile of an ascending
// sorted slice (0 for an empty one) — the same estimator the disruption
// report uses, shared here so BENCH latency columns and report tables
// can never disagree on method.
func QuantileSeconds(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}
