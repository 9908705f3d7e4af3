package routing

import (
	"github.com/rtcl/drtp/internal/bitvec"
	"github.com/rtcl/drtp/internal/graph"
	"github.com/rtcl/drtp/internal/lsdb"
	"github.com/rtcl/drtp/internal/proto"
)

// View is a network-wide link-state view mirrored from LSUpdate adverts:
// the distributed routers' and the route finder's counterpart of the
// simulator's lsdb.Snapshot, plus each link's Conflict Vector for D-LSR.
// It starts optimistic — every link empty until its advert arrives — and
// absorbs steady-state adverts without allocating. A View is not safe for
// concurrent use; its owner serializes access.
type View struct {
	// Snapshot holds the advertised per-link scalars: AvailBackup, Free
	// (the advertised primary availability) and Norm (‖APLV‖₁).
	lsdb.Snapshot

	g    *graph.Graph
	unit int
	plsr bool
	// cv[l] is link l's advertised Conflict Vector.
	cv []*bitvec.Vector
	// seqSeen records the highest advert sequence applied per origin.
	seqSeen map[graph.NodeID]uint64

	scratch graph.Scratch
	metrics []float64
	avoid   []bool
}

// NewView returns the optimistic initial view of g's links at the given
// capacity. plsr selects P-LSR's ‖APLV‖₁ backup metric; otherwise the
// view routes with D-LSR's Conflict Vector counts.
func NewView(g *graph.Graph, capacity, unitBW int, plsr bool) *View {
	n := g.NumLinks()
	v := &View{
		Snapshot: lsdb.Snapshot{
			AvailBackup: make([]int, n),
			Free:        make([]int, n),
			Norm:        make([]int, n),
		},
		g:       g,
		unit:    unitBW,
		plsr:    plsr,
		cv:      make([]*bitvec.Vector, n),
		seqSeen: make(map[graph.NodeID]uint64),
		avoid:   make([]bool, n),
	}
	for l := range v.cv {
		v.AvailBackup[l] = capacity
		v.Free[l] = capacity
		v.cv[l] = bitvec.New(n)
	}
	return v
}

// Apply installs one link summary, reloading the mirrored Conflict Vector
// in place. Adverts for links outside the topology are ignored.
//
//drtplint:hotpath
func (v *View) Apply(a proto.LinkAdvert) {
	l := int(a.Link)
	if l < 0 || l >= len(v.cv) {
		return
	}
	v.Free[l] = a.AvailPrim
	v.AvailBackup[l] = a.AvailBackup
	v.Norm[l] = a.Norm
	v.cv[l].SetBytes(a.CV)
}

// Update installs every link of an advert and reports whether it was
// fresh; an advert not newer than the last one applied from its origin
// is dropped.
//
//drtplint:hotpath
func (v *View) Update(m proto.LSUpdate) bool {
	if m.Seq <= v.seqSeen[m.Origin] {
		return false
	}
	v.seqSeen[m.Origin] = m.Seq
	for _, a := range m.Links {
		v.Apply(a)
	}
	return true
}

// Origins returns the number of nodes whose adverts have been applied
// through Update.
func (v *View) Origins() int { return len(v.seqSeen) }

// Routes computes a primary from src to dst and up to backups backup
// routes for it with the same kernel the simulator runs, never crossing a
// dead link. The primary is empty when none is feasible.
func (v *View) Routes(src, dst graph.NodeID, backups int, dead []bool) (graph.Path, []graph.Path) {
	ls := Links{Free: v.Free, AvailBackup: v.AvailBackup, Dead: dead, Unit: v.unit}
	primary := Primary(&v.scratch, v.g, src, dst, ls, 0)
	if primary.Empty() {
		return primary, nil
	}
	if v.plsr {
		v.metrics = normsInto(v.Norm, v.metrics)
	} else {
		v.metrics = v.conflictCountsInto(primary.Links(), v.metrics)
	}
	ls.Metric = v.metrics
	return primary, Backups(&v.scratch, v.g, src, dst, primary, nil, backups, ls, v.avoid, 0)
}

// conflictCountsInto is lsdb.DB.ConflictCountsInto over the mirrored
// Conflict Vectors: for every link l, the number of lset links whose
// backups traverse l.
//
//drtplint:hotpath
func (v *View) conflictCountsInto(lset []graph.LinkID, dst []float64) []float64 {
	if cap(dst) < len(v.cv) {
		dst = make([]float64, len(v.cv))
	}
	dst = dst[:len(v.cv)]
	for l, cv := range v.cv {
		c := 0
		for _, j := range lset {
			if cv.Get(int(j)) {
				c++
			}
		}
		dst[l] = float64(c)
	}
	return dst
}

// Advert summarizes link l of db as this node advertises it. A link to a
// neighbour declared down advertises zero bandwidth and an empty Conflict
// Vector so remote routing stops offering it.
func Advert(db *lsdb.DB, l graph.LinkID, down bool) proto.LinkAdvert {
	if down {
		return proto.LinkAdvert{Link: l, CV: make([]byte, (db.NumLinks()+7)/8)}
	}
	return proto.LinkAdvert{
		Link:        l,
		AvailPrim:   db.AvailableForPrimary(l),
		AvailBackup: db.AvailableForBackup(l),
		Norm:        db.APLVNorm(l),
		// AppendCV writes the wire form straight from the database,
		// skipping the intermediate bitvec.Vector a CV(l).Bytes() chain
		// would allocate.
		CV: db.AppendCV(l, nil),
	}
}
