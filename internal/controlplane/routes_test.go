package controlplane

import (
	"reflect"
	"testing"

	"github.com/rtcl/drtp/internal/drtp"
	"github.com/rtcl/drtp/internal/graph"
	"github.com/rtcl/drtp/internal/proto"
	"github.com/rtcl/drtp/internal/router"
	"github.com/rtcl/drtp/internal/routing/routingtest"
	"github.com/rtcl/drtp/internal/transport"
)

// answerMatchesSimulator asserts that the route finder answers src -> dst
// exactly as the simulator's scheme routes it on the state's network, and
// reports whether a primary existed.
func answerMatchesSimulator(t *testing.T, s *routingtest.State, rf *RouteFinder, src, dst graph.NodeID) bool {
	t.Helper()
	g := s.Net.Graph()
	route, err := s.Scheme.Route(s.Net, drtp.Request{Src: src, Dst: dst})
	want := proto.RouteReply{Reason: "no-route"}
	switch {
	case err != nil:
	case len(route.Backups) == 0:
		want.Reason = "no-backup"
	default:
		want = proto.RouteReply{OK: true, Primary: route.Primary.Nodes(g)}
		for _, b := range route.Backups {
			want.Backups = append(want.Backups, b.Nodes(g))
		}
	}
	rf.mu.Lock()
	got := rf.routeLocked(proto.RouteQuery{Src: src, Dst: dst})
	rf.mu.Unlock()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s %d->%d: route finder %+v, simulator %+v", s.Name, src, dst, got, want)
	}
	return err == nil
}

// TestRoutesMatchSimulator feeds the route finder the mirrored adverts of
// link states built through drtp.Manager and asserts it answers every
// node pair with the simulator's primary and backups, also with a node
// excluded. The router's counterpart lives in internal/router; both
// compare against the same fixtures.
func TestRoutesMatchSimulator(t *testing.T) {
	states, err := routingtest.States(1, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	mem := transport.NewMem()
	defer mem.Close()
	newFinder := func(s *routingtest.State, at graph.NodeID) *RouteFinder {
		ep, err := mem.Attach(at)
		if err != nil {
			t.Fatal(err)
		}
		scheme := router.DLSR
		if s.PLSR {
			scheme = router.PLSR
		}
		rf, err := NewRouteFinder(RouteFinderConfig{
			Graph: s.Net.Graph(), Capacity: routingtest.Capacity, UnitBW: 1,
			Scheme: scheme, Backups: routingtest.Backups,
		}, ep)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range s.Updates {
			rf.handleLSUpdate(m)
		}
		if !rf.Synced() {
			t.Fatalf("%s: route finder not synced after every origin's advert", s.Name)
		}
		return rf
	}
	for i, s := range states {
		rf := newFinder(s, graph.NodeID(1000+i))
		routed := 0
		for _, p := range routingtest.Pairs(s.Net.Graph()) {
			if answerMatchesSimulator(t, s, rf, p[0], p[1]) {
				routed++
			}
		}
		_ = rf.Close()
		if routed < 200 || s.MaxConflicts < 4 {
			t.Fatalf("%s: %d routed pairs, max conflict count %d; want >= 200 and >= 4", s.Name, routed, s.MaxConflicts)
		}
	}

	// An excluded node is, to the simulator, every link touching it
	// failed.
	s := states[0]
	g := s.Net.Graph()
	rf := newFinder(s, 2000)
	defer rf.Close()
	const drained = graph.NodeID(0)
	rf.unsched[drained] = true
	for l := 0; l < g.NumLinks(); l++ {
		if lk := g.Link(graph.LinkID(l)); lk.From == drained || lk.To == drained {
			s.Net.FailLink(lk.ID)
			defer s.Net.RestoreLink(lk.ID)
		}
	}
	for _, p := range routingtest.Pairs(g) {
		if p[0] != drained && p[1] != drained {
			answerMatchesSimulator(t, s, rf, p[0], p[1])
		}
	}
}
