package routing_test

import (
	"testing"

	"github.com/rtcl/drtp/internal/drtp"
	"github.com/rtcl/drtp/internal/graph"
	"github.com/rtcl/drtp/internal/proto"
	"github.com/rtcl/drtp/internal/routing"
	"github.com/rtcl/drtp/internal/topology"
)

// TestViewUpdateAllocs pins steady-state advert application at zero
// allocations, for dense Conflict Vectors and for the sparse form large
// networks switch to: the mirrored vectors reload in place.
func TestViewUpdateAllocs(t *testing.T) {
	for _, nodes := range []int{60, 2100} {
		g, err := topology.Ring(nodes)
		if err != nil {
			t.Fatal(err)
		}
		net, err := drtp.NewNetwork(g, 10, 1)
		if err != nil {
			t.Fatal(err)
		}
		// The backup of 0 -> 1 runs the long way round, so the advertised
		// links carry Conflict Vector bits.
		if _, err := drtp.NewManager(net, routing.NewDLSR()).Establish(drtp.Request{ID: 1, Src: 0, Dst: 1}); err != nil {
			t.Fatal(err)
		}
		origin := graph.NodeID(nodes / 2)
		m := proto.LSUpdate{Origin: origin}
		for _, l := range g.Out(origin) {
			m.Links = append(m.Links, routing.Advert(net.DB(), l, false))
		}
		v := routing.NewView(g, 10, 1, false)
		m.Seq++
		v.Update(m)
		allocs := testing.AllocsPerRun(100, func() {
			m.Seq++
			if !v.Update(m) {
				t.Fatal("fresh advert dropped")
			}
		})
		if allocs != 0 {
			t.Fatalf("%d nodes: %.1f allocs per advert, want 0", nodes, allocs)
		}
		if v.Update(m) {
			t.Fatal("stale advert applied")
		}
		if l := m.Links[0].Link; v.Norm[l] != net.DB().APLVNorm(l) || v.AvailBackup[l] != net.DB().AvailableForBackup(l) {
			t.Fatalf("link %d: view norm %d avail %d, database %d %d", l, v.Norm[l], v.AvailBackup[l],
				net.DB().APLVNorm(l), net.DB().AvailableForBackup(l))
		}
	}
}
