package router

import (
	"reflect"
	"testing"

	"github.com/rtcl/drtp/internal/drtp"
	"github.com/rtcl/drtp/internal/graph"
	"github.com/rtcl/drtp/internal/routing"
	"github.com/rtcl/drtp/internal/routing/routingtest"
)

// viewRouter is a transport-less router at node over view v: enough to
// drive its route computation.
func viewRouter(node graph.NodeID, v *routing.View, g *graph.Graph) *Router {
	return &Router{
		cfg:     Config{Node: node, Graph: g, Backups: routingtest.Backups},
		g:       g,
		view:    v,
		dead:    make([]bool, g.NumLinks()),
		downNbr: make(map[graph.NodeID]bool),
	}
}

// matchSimulator asserts that r routes to dst exactly as the simulator's
// scheme does on the state's network, and reports whether a primary
// existed.
func matchSimulator(t *testing.T, s *routingtest.State, r *Router, dst graph.NodeID) bool {
	t.Helper()
	g := s.Net.Graph()
	want, err := s.Scheme.Route(s.Net, drtp.Request{Src: r.cfg.Node, Dst: dst})
	r.mu.Lock()
	primary, backups := r.routesLocked(dst)
	r.mu.Unlock()
	got := drtp.Route{Primary: primary, Backups: backups}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s %d->%d: router %s, simulator %s", s.Name, r.cfg.Node, dst, format(g, got), format(g, want))
	}
	return err == nil
}

func format(g *graph.Graph, r drtp.Route) string {
	out := r.Primary.Format(g) + " /"
	for _, b := range r.Backups {
		out += " " + b.Format(g)
	}
	return out
}

// TestRoutesMatchSimulator feeds a router's view the adverts of link
// states built through drtp.Manager and asserts the router picks the
// simulator's primary and backups for every node pair, also with a
// neighbour declared down. The route finder's counterpart lives in
// internal/controlplane; both compare against the same fixtures.
func TestRoutesMatchSimulator(t *testing.T) {
	states, err := routingtest.States(1, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range states {
		g := s.Net.Graph()
		v := routing.NewView(g, routingtest.Capacity, 1, s.PLSR)
		for _, m := range s.Updates {
			v.Update(m)
		}
		routed := 0
		for _, p := range routingtest.Pairs(g) {
			if matchSimulator(t, s, viewRouter(p[0], v, g), p[1]) {
				routed++
			}
		}
		if routed < 200 || s.MaxConflicts < 4 {
			t.Fatalf("%s: %d routed pairs, max conflict count %d; want >= 200 and >= 4", s.Name, routed, s.MaxConflicts)
		}
	}

	// A neighbour declared down at the router is a failed link in the
	// simulator.
	s := states[0]
	g := s.Net.Graph()
	v := routing.NewView(g, routingtest.Capacity, 1, s.PLSR)
	for _, m := range s.Updates {
		v.Update(m)
	}
	src := graph.NodeID(0)
	nbr := g.Neighbors(src)[0]
	r := viewRouter(src, v, g)
	r.downNbr[nbr] = true
	down, _ := g.LinkBetween(src, nbr)
	s.Net.FailLink(down)
	defer s.Net.RestoreLink(down)
	for dst := 1; dst < g.NumNodes(); dst++ {
		matchSimulator(t, s, r, graph.NodeID(dst))
	}
}
