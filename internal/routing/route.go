package routing

import (
	"github.com/rtcl/drtp/internal/graph"
)

// This file is the one route computation every caller shares: the
// simulator's link-state schemes (over an lsdb.Snapshot), the distributed
// routers and the control plane's route finder (over a View). All per-link
// state arrives as dense arrays indexed by graph.LinkID, so the Dijkstra
// cost callbacks below read slices and make no call per link.

const (
	// Q is the paper's "very large constant" penalizing links that overlap
	// the connection's primary or fail the bandwidth test. It dominates
	// any achievable conflict metric but keeps such links usable as a
	// last resort, exactly as in the paper.
	Q = 1e6
	// Epsilon is the paper's small positive constant (< 1) selecting the
	// shortest route among candidates with equal conflict degree.
	Epsilon = 1e-3
)

// Links is the per-link state one route computation reads. The caller
// owns every array and reuses them across queries.
type Links struct {
	// Free[l] is the bandwidth left for a new primary reservation.
	Free []int
	// AvailBackup[l] is the bandwidth left for backup reservations.
	AvailBackup []int
	// Metric[l] is the scheme's conflict metric for a backup on l; nil
	// means identically zero.
	Metric []float64
	// Dead[l] marks links neither channel may use: failed links in the
	// simulator, links to down neighbours at a router, links touching
	// excluded nodes at the route finder.
	Dead []bool
	// Unit is the per-connection bandwidth.
	Unit int
}

// Primary returns the minimum-hop route from src to dst over live links
// with at least Unit bandwidth free, or an empty path. A positive maxHops
// is the QoS delay bound: minimum-hop routing already minimizes delay, so
// the bound only rejects a longer route.
func Primary(sc *graph.Scratch, g *graph.Graph, src, dst graph.NodeID, ls Links, maxHops int) graph.Path {
	free, dead, unit := ls.Free, ls.Dead, ls.Unit
	cost := func(l graph.LinkID) float64 {
		if dead[l] || free[l] < unit {
			return graph.Unreachable
		}
		return 1
	}
	p, total := sc.ShortestPath(g, src, dst, cost)
	if total == graph.Unreachable || (maxHops > 0 && p.Hops() > maxHops) {
		return graph.Path{}
	}
	return p
}

// Backups routes up to want backup channels for primary on top of the
// have already registered, and returns the new ones. Each is a cheapest
// route under the paper's cost C_l = ε + metric_l, plus Q when l is on
// the primary or an earlier backup or fails the backup bandwidth test
// (§3.1–3.2); dead links are unreachable. A positive maxHops bounds every
// backup's length. avoid is caller scratch of one entry per link.
//
// The first backup of a connection may overlap the primary as a last
// resort (the Q semantics, needed on bridges). Every later one must be
// link-disjoint from the primary and from all earlier backups — an
// overlapping extra backup protects nothing the others do not — and the
// search stops at the first that is not.
func Backups(sc *graph.Scratch, g *graph.Graph, src, dst graph.NodeID, primary graph.Path, have []graph.Path, want int, ls Links, avoid []bool, maxHops int) []graph.Path {
	for i := range avoid {
		avoid[i] = false
	}
	mark := func(p graph.Path) {
		for _, l := range p.Links() {
			avoid[l] = true
		}
	}
	mark(primary)
	for _, b := range have {
		mark(b)
	}
	var out []graph.Path
	for len(out) < want {
		b := backup(sc, g, src, dst, ls, avoid, maxHops)
		if b.Empty() || (len(have)+len(out) > 0 && touches(b, avoid)) {
			break
		}
		out = append(out, b)
		mark(b)
	}
	return out
}

// backup finds one cheapest backup route under the Q/metric/ε costs.
func backup(sc *graph.Scratch, g *graph.Graph, src, dst graph.NodeID, ls Links, avoid []bool, maxHops int) graph.Path {
	metric, avail, dead, unit := ls.Metric, ls.AvailBackup, ls.Dead, ls.Unit
	cost := func(l graph.LinkID) float64 {
		if dead[l] {
			return graph.Unreachable
		}
		c := Epsilon
		if metric != nil {
			c += metric[l]
		}
		if avoid[l] || avail[l] < unit {
			c += Q
		}
		return c
	}
	var (
		p     graph.Path
		total float64
	)
	if maxHops > 0 {
		p, total = sc.ShortestPathBounded(g, src, dst, cost, maxHops)
	} else {
		p, total = sc.ShortestPath(g, src, dst, cost)
	}
	if total == graph.Unreachable {
		return graph.Path{}
	}
	return p
}

// touches reports whether p uses any link marked in set.
func touches(p graph.Path, set []bool) bool {
	for _, l := range p.Links() {
		if set[l] {
			return true
		}
	}
	return false
}

// normsInto widens the advertised ‖APLV‖₁ values into dst (resized as
// needed): P-LSR's conflict metric.
//
//drtplint:hotpath
func normsInto(norm []int, dst []float64) []float64 {
	if cap(dst) < len(norm) {
		dst = make([]float64, len(norm))
	}
	dst = dst[:len(norm)]
	for i, v := range norm {
		dst[i] = float64(v)
	}
	return dst
}
