// Package routing implements the paper's link-state routing schemes for
// backup channels (P-LSR and D-LSR) along with baseline schemes used in
// the evaluation (no-backup, conflict-blind min-hop, random).
//
// All link-state schemes share the same primary selection (minimum-hop
// feasible path) and differ only in the link cost assigned when searching
// for the backup route:
//
//	C_i = Q_i + conflictMetric_i + ε
//
// where Q is a very large constant added when the connection's own primary
// traverses L_i or L_i fails the backup bandwidth test, and ε < 1 breaks
// ties toward shorter backups (paper §3.1–3.2).
package routing

import (
	"github.com/rtcl/drtp/internal/drtp"
	"github.com/rtcl/drtp/internal/graph"
	"github.com/rtcl/drtp/internal/lsdb"
	"github.com/rtcl/drtp/internal/rng"
)

// metricFunc fills a dense per-link conflict-metric vector for one
// request up front — one database pass instead of a call per link from
// inside the Dijkstra cost callback — reusing dst. A nil return means the
// metric is identically zero.
type metricFunc func(db *lsdb.DB, snap *lsdb.Snapshot, primary graph.Path, dst []float64) []float64

// LinkState is a drtp.Scheme over one conflict metric: min-hop primary,
// then the shared backup kernel (Backups) for each backup. By default one
// backup is routed; WithBackupCount enables the paper's "one or more
// backup channels".
type LinkState struct {
	name    string
	metric  metricFunc
	backups int
}

var _ drtp.Scheme = (*LinkState)(nil)

// Option configures a LinkState scheme.
type Option interface {
	apply(*LinkState)
}

type backupCountOption int

func (o backupCountOption) apply(s *LinkState) {
	if o > 0 {
		s.backups = int(o)
	}
}

// WithBackupCount routes k backup channels per connection, each avoiding
// the primary and all earlier backups. Later backups that cannot avoid
// earlier ones are dropped (a link holds at most one backup per
// connection).
func WithBackupCount(k int) Option { return backupCountOption(k) }

func newLinkState(name string, metric metricFunc, opts []Option) *LinkState {
	s := &LinkState{name: name, metric: metric, backups: 1}
	for _, o := range opts {
		o.apply(s)
	}
	return s
}

// Name implements drtp.Scheme.
func (s *LinkState) Name() string { return s.name }

// Route implements drtp.Scheme.
func (s *LinkState) Route(net *drtp.Network, req drtp.Request) (drtp.Route, error) {
	primary, ls, err := routePrimary(net, req)
	if err != nil {
		return drtp.Route{}, err
	}
	return drtp.Route{Primary: primary, Backups: s.backupsFor(net, req, primary, nil, s.backups, ls)}, nil
}

// RouteBackupsFor implements drtp.BackupRouter: it computes fresh backup
// routes for an existing primary (used to restore protection after a
// channel switch), topping the connection up to the scheme's backup
// count.
func (s *LinkState) RouteBackupsFor(net *drtp.Network, req drtp.Request, primary graph.Path, existing []graph.Path) []graph.Path {
	need := s.backups - len(existing)
	if need <= 0 {
		return nil
	}
	return s.backupsFor(net, req, primary, existing, need, linksOf(net))
}

var _ drtp.BackupRouter = (*LinkState)(nil)

// backupsFor fills the scheme's metric for primary and runs the shared
// backup kernel under the request's QoS hop bound.
func (s *LinkState) backupsFor(net *drtp.Network, req drtp.Request, primary graph.Path, have []graph.Path, want int, ls Links) []graph.Path {
	sc := net.Scratch()
	if ms := s.metric(net.DB(), &sc.Snap, primary, sc.Metrics); ms != nil {
		sc.Metrics = ms
		ls.Metric = ms
	}
	avoid := sc.AvoidFor(net.Graph().NumLinks())
	return Backups(&sc.Graph, net.Graph(), req.Src, req.Dst, primary, have, want, ls, avoid, req.MaxHops)
}

// linksOf snapshots the network's link state into its routing scratch
// (one lock pass), with the persistently failed links as the dead set.
func linksOf(net *drtp.Network) Links {
	snap := net.DB().SnapshotInto(&net.Scratch().Snap)
	return Links{Free: snap.Free, AvailBackup: snap.AvailBackup, Dead: net.Failed(), Unit: net.UnitBW()}
}

// routePrimary snapshots the network and selects req's primary: the
// shared min-hop kernel under the request's QoS hop bound.
func routePrimary(net *drtp.Network, req drtp.Request) (graph.Path, Links, error) {
	ls := linksOf(net)
	primary := Primary(&net.Scratch().Graph, net.Graph(), req.Src, req.Dst, ls, req.MaxHops)
	if primary.Empty() {
		return primary, ls, drtp.ErrNoRoute
	}
	return primary, ls, nil
}

// NewPLSR returns the probabilistic link-state scheme: the conflict
// metric is ‖APLV_i‖₁, the only per-link scalar P-LSR requires routers to
// disseminate. Minimizing the path sum maximizes the estimated
// probability of successful backup activation (paper eq. 1–3).
func NewPLSR(opts ...Option) *LinkState { return newLinkState("P-LSR", plsrMetric, opts) }

//drtplint:hotpath
func plsrMetric(_ *lsdb.DB, snap *lsdb.Snapshot, _ graph.Path, dst []float64) []float64 {
	return normsInto(snap.Norm, dst)
}

// NewDLSR returns the deterministic link-state scheme: the conflict
// metric is the exact number of the primary's links whose existing
// backups traverse L_i, read from the Conflict Vector:
// Σ_{L_j ∈ LSET(P_x)} c_{i,j}.
func NewDLSR(opts ...Option) *LinkState { return newLinkState("D-LSR", dlsrMetric, opts) }

//drtplint:hotpath
func dlsrMetric(db *lsdb.DB, _ *lsdb.Snapshot, primary graph.Path, dst []float64) []float64 {
	return db.ConflictCountsInto(primary.Links(), dst)
}

// NewMinHopDisjoint returns the conflict-blind baseline: the backup is
// simply the shortest feasible path avoiding the primary's links,
// ignoring APLV/CV information entirely. It isolates the value of
// conflict awareness.
func NewMinHopDisjoint(opts ...Option) *LinkState {
	return newLinkState("MinHop", noMetric, opts)
}

func noMetric(*lsdb.DB, *lsdb.Snapshot, graph.Path, []float64) []float64 { return nil }

// NoBackup establishes primary channels only. It is the baseline against
// which the paper defines capacity overhead.
type NoBackup struct{}

var _ drtp.Scheme = NoBackup{}

// NewNoBackup returns the no-backup baseline scheme.
func NewNoBackup() NoBackup { return NoBackup{} }

// Name implements drtp.Scheme.
func (NoBackup) Name() string { return "NoBackup" }

// Route implements drtp.Scheme.
func (NoBackup) Route(net *drtp.Network, req drtp.Request) (drtp.Route, error) {
	primary, _, err := routePrimary(net, req)
	if err != nil {
		return drtp.Route{}, err
	}
	return drtp.Route{Primary: primary}, nil
}

// Random is a randomized baseline: the backup is a feasible
// primary-disjoint path chosen with random per-link jitter, modelling the
// paper's remark that in highly-connected networks "even random selection
// can find a backup route with small conflicts".
type Random struct {
	src    *rng.Source
	jitter []float64
}

var _ drtp.Scheme = (*Random)(nil)

// NewRandom returns the randomized baseline scheme.
func NewRandom(seed int64) *Random {
	return &Random{src: rng.New(seed)}
}

// Name implements drtp.Scheme.
func (*Random) Name() string { return "Random" }

// Route implements drtp.Scheme.
func (r *Random) Route(net *drtp.Network, req drtp.Request) (drtp.Route, error) {
	primary, ls, err := routePrimary(net, req)
	if err != nil {
		return drtp.Route{}, err
	}
	sc := net.Scratch()
	n := net.Graph().NumLinks()
	onPrimary := sc.AvoidFor(n)
	for _, l := range primary.Links() {
		onPrimary[l] = true
	}
	if cap(r.jitter) < n {
		r.jitter = make([]float64, n)
	}
	jitter := r.jitter[:n]
	for i := range jitter {
		jitter[i] = r.src.Float64()
	}
	cost := func(l graph.LinkID) float64 {
		if ls.Dead[l] {
			return graph.Unreachable
		}
		c := 1 + jitter[l]
		if onPrimary[l] || ls.AvailBackup[l] < ls.Unit {
			c += Q
		}
		return c
	}
	var (
		backup graph.Path
		total  float64
	)
	if req.MaxHops > 0 {
		backup, total = sc.Graph.ShortestPathBounded(net.Graph(), req.Src, req.Dst, cost, req.MaxHops)
	} else {
		backup, total = sc.Graph.ShortestPath(net.Graph(), req.Src, req.Dst, cost)
	}
	if total == graph.Unreachable {
		return drtp.Route{Primary: primary}, nil
	}
	return drtp.WithBackup(primary, backup), nil
}
