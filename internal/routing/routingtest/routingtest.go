// Package routingtest builds the shared link-state fixtures of the
// differential tests that hold the simulator, the distributed routers and
// the route finder to one routing decision.
package routingtest

import (
	"fmt"

	"github.com/rtcl/drtp/internal/drtp"
	"github.com/rtcl/drtp/internal/graph"
	"github.com/rtcl/drtp/internal/proto"
	"github.com/rtcl/drtp/internal/rng"
	"github.com/rtcl/drtp/internal/routing"
	"github.com/rtcl/drtp/internal/topology"
)

// Fixture dimensions: every caller routes Backups backups per query on a
// network of Capacity-unit links.
const (
	Capacity = 16
	Backups  = 2
)

// State is one link state, built by establishing random connections on a
// Waxman network through a drtp.Manager under one scheme.
type State struct {
	Name string
	PLSR bool
	Net  *drtp.Network
	// Scheme is the simulator's caller: the state's scheme routing
	// Backups backups.
	Scheme *routing.LinkState
	// Updates carry every link of Net, one advert per origin node, built
	// with routing.Advert as the routers build theirs.
	Updates []proto.LSUpdate
	// MaxConflicts is the largest D-LSR conflict count any link reaches
	// against the primary of an ordered node pair.
	MaxConflicts int
}

// States returns a D-LSR and a P-LSR state for each seed.
func States(seeds ...int64) ([]*State, error) {
	var out []*State
	for _, seed := range seeds {
		for _, plsr := range []bool{false, true} {
			s, err := build(seed, plsr)
			if err != nil {
				return nil, err
			}
			out = append(out, s)
		}
	}
	return out, nil
}

func build(seed int64, plsr bool) (*State, error) {
	g, err := topology.Waxman(topology.WaxmanConfig{Nodes: 30, AvgDegree: 3, MinDegree: 2, Seed: seed})
	if err != nil {
		return nil, err
	}
	net, err := drtp.NewNetwork(g, Capacity, 1)
	if err != nil {
		return nil, err
	}
	newScheme, name := routing.NewDLSR, "D-LSR"
	if plsr {
		newScheme, name = routing.NewPLSR, "P-LSR"
	}
	mgr := drtp.NewManager(net, newScheme())
	src := rng.New(seed)
	for id := drtp.ConnID(1); id <= 250; id++ {
		a := graph.NodeID(src.Intn(g.NumNodes()))
		b := graph.NodeID(src.Intn(g.NumNodes() - 1))
		if b >= a {
			b++
		}
		// Rejections are part of the load; the state is what remains.
		_, _ = mgr.Establish(drtp.Request{ID: id, Src: a, Dst: b})
	}
	s := &State{
		Name:   fmt.Sprintf("%s/seed=%d", name, seed),
		PLSR:   plsr,
		Net:    net,
		Scheme: newScheme(routing.WithBackupCount(Backups)),
	}
	for n := 0; n < g.NumNodes(); n++ {
		m := proto.LSUpdate{Origin: graph.NodeID(n), Seq: 1}
		for _, l := range g.Out(graph.NodeID(n)) {
			m.Links = append(m.Links, routing.Advert(net.DB(), l, false))
		}
		s.Updates = append(s.Updates, m)
	}
	var counts []float64
	for _, p := range Pairs(g) {
		route, err := s.Scheme.Route(net, drtp.Request{Src: p[0], Dst: p[1]})
		if err != nil {
			continue
		}
		counts = net.DB().ConflictCountsInto(route.Primary.Links(), counts)
		for _, c := range counts {
			s.MaxConflicts = max(s.MaxConflicts, int(c))
		}
	}
	return s, nil
}

// Pairs returns every ordered pair of distinct nodes of g.
func Pairs(g *graph.Graph) [][2]graph.NodeID {
	var out [][2]graph.NodeID
	for a := 0; a < g.NumNodes(); a++ {
		for b := 0; b < g.NumNodes(); b++ {
			if a != b {
				out = append(out, [2]graph.NodeID{graph.NodeID(a), graph.NodeID(b)})
			}
		}
	}
	return out
}
