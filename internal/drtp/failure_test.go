package drtp_test

import (
	"testing"

	"github.com/rtcl/drtp/internal/drtp"
	"github.com/rtcl/drtp/internal/graph"
	"github.com/rtcl/drtp/internal/routing"
)

func TestFailureRecoveredAndNoBackup(t *testing.T) {
	net := thetaNetwork(t, 10)
	routes := map[drtp.ConnID]drtp.Route{
		1: drtp.WithBackup(pathOf(t, net, 0, 1), pathOf(t, net, 0, 2, 1)),
		2: {Primary: pathOf(t, net, 0, 1)},
	}
	mgr := drtp.NewManager(net, fixedScheme{routes: routes}, drtp.WithOptionalBackup())
	for id := drtp.ConnID(1); id <= 2; id++ {
		if _, err := mgr.Establish(drtp.Request{ID: id, Src: 0, Dst: 1}); err != nil {
			t.Fatal(err)
		}
	}
	l01, _ := net.Graph().LinkBetween(0, 1)
	out := mgr.EvaluateLinkFailure(l01)
	if out.Affected != 2 || out.Recovered != 1 || out.NoBackup != 1 {
		t.Fatalf("outcome = %+v", out)
	}
	// Failure of a link not on any primary affects nobody.
	l21, _ := net.Graph().LinkBetween(2, 1)
	if out := mgr.EvaluateLinkFailure(l21); out.Affected != 0 {
		t.Fatalf("outcome = %+v", out)
	}
}

func TestFailureBackupHit(t *testing.T) {
	net := thetaNetwork(t, 10)
	// Primary and backup share link 0->2 (the scheme had no choice).
	routes := map[drtp.ConnID]drtp.Route{
		1: drtp.WithBackup(pathOf(t, net, 0, 2, 1), pathOf(t, net, 0, 2, 1)),
	}
	mgr := drtp.NewManager(net, fixedScheme{routes: routes})
	if _, err := mgr.Establish(drtp.Request{ID: 1, Src: 0, Dst: 1}); err != nil {
		t.Fatal(err)
	}
	l02, _ := net.Graph().LinkBetween(0, 2)
	out := mgr.EvaluateLinkFailure(l02)
	if out.Affected != 1 || out.BackupHit != 1 || out.Recovered != 0 {
		t.Fatalf("outcome = %+v", out)
	}
}

func TestFailureContention(t *testing.T) {
	// Capacity 2. Conns 1 and 2: primary 0->1 (overlapping), backups via
	// node 2. Conn 3's primary occupies one unit on 0->2 and 2->1, so
	// spare there is capped at 1: a failure of 0->1 can activate only one
	// of the two conflicting backups (establishment order wins).
	net := thetaNetwork(t, 2)
	routes := map[drtp.ConnID]drtp.Route{
		3: drtp.WithBackup(pathOf(t, net, 0, 2, 1), pathOf(t, net, 0, 3, 4, 1)),
		1: drtp.WithBackup(pathOf(t, net, 0, 1), pathOf(t, net, 0, 2, 1)),
		2: drtp.WithBackup(pathOf(t, net, 0, 1), pathOf(t, net, 0, 2, 1)),
	}
	mgr := drtp.NewManager(net, fixedScheme{routes: routes})
	for _, id := range []drtp.ConnID{3, 1, 2} {
		if _, err := mgr.Establish(drtp.Request{ID: id, Src: 0, Dst: 1}); err != nil {
			t.Fatalf("establish %d: %v", id, err)
		}
	}
	l02, _ := net.Graph().LinkBetween(0, 2)
	if sc := net.DB().SC(l02); sc != 1 {
		t.Fatalf("SC(0->2) = %d, want capped 1", sc)
	}
	if !net.DB().HasDeficit(l02) {
		t.Fatal("expected deficit on 0->2")
	}
	l01, _ := net.Graph().LinkBetween(0, 1)
	out := mgr.EvaluateLinkFailure(l01)
	if out.Affected != 2 || out.Recovered != 1 || out.Contention != 1 {
		t.Fatalf("outcome = %+v", out)
	}
}

func TestFailureEvaluationNonDestructive(t *testing.T) {
	net := thetaNetwork(t, 10)
	routes := map[drtp.ConnID]drtp.Route{
		1: drtp.WithBackup(pathOf(t, net, 0, 1), pathOf(t, net, 0, 2, 1)),
	}
	mgr := drtp.NewManager(net, fixedScheme{routes: routes})
	if _, err := mgr.Establish(drtp.Request{ID: 1, Src: 0, Dst: 1}); err != nil {
		t.Fatal(err)
	}
	l01, _ := net.Graph().LinkBetween(0, 1)
	before := net.DB().TotalSpareBW()
	for i := 0; i < 3; i++ {
		first := mgr.EvaluateLinkFailure(l01)
		if first.Recovered != 1 {
			t.Fatalf("iteration %d: %+v", i, first)
		}
	}
	if net.DB().TotalSpareBW() != before {
		t.Fatal("evaluation mutated spare bandwidth")
	}
	if mgr.NumActive() != 1 {
		t.Fatal("evaluation mutated the connection table")
	}
}

func TestLinkVsEdgeFailureModels(t *testing.T) {
	net := thetaNetwork(t, 10)
	// Conn 1 runs 0->2->1; conn 2 runs the reverse 1->2->0. Their
	// primaries share edges but no links.
	routes := map[drtp.ConnID]drtp.Route{
		1: drtp.WithBackup(pathOf(t, net, 0, 2, 1), pathOf(t, net, 0, 1)),
		2: drtp.WithBackup(pathOf(t, net, 1, 2, 0), pathOf(t, net, 1, 0)),
	}
	mgr := drtp.NewManager(net, fixedScheme{routes: routes})
	if _, err := mgr.Establish(drtp.Request{ID: 1, Src: 0, Dst: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Establish(drtp.Request{ID: 2, Src: 1, Dst: 0}); err != nil {
		t.Fatal(err)
	}
	l02, _ := net.Graph().LinkBetween(0, 2)
	if out := mgr.EvaluateLinkFailure(l02); out.Affected != 1 {
		t.Fatalf("link failure affected %d, want 1", out.Affected)
	}
	edge := net.Graph().Link(l02).Edge
	if out := mgr.EvaluateEdgeFailure(edge); out.Affected != 2 || out.Recovered != 2 {
		t.Fatalf("edge failure outcome = %+v", out)
	}
}

func TestSweepFailuresAndFaultTolerance(t *testing.T) {
	net := thetaNetwork(t, 10)
	routes := map[drtp.ConnID]drtp.Route{
		1: drtp.WithBackup(pathOf(t, net, 0, 1), pathOf(t, net, 0, 2, 1)),
	}
	mgr := drtp.NewManager(net, fixedScheme{routes: routes})
	if _, err := mgr.Establish(drtp.Request{ID: 1, Src: 0, Dst: 1}); err != nil {
		t.Fatal(err)
	}
	link := mgr.SweepFailures(drtp.LinkFailures)
	if len(link) != net.Graph().NumLinks() {
		t.Fatalf("link sweep size = %d", len(link))
	}
	edge := mgr.SweepFailures(drtp.EdgeFailures)
	if len(edge) != net.Graph().NumEdges() {
		t.Fatalf("edge sweep size = %d", len(edge))
	}
	ft, ok := drtp.FaultTolerance(link)
	if !ok || ft != 1.0 {
		t.Fatalf("fault tolerance = %v ok=%v, want 1.0", ft, ok)
	}
	if _, ok := drtp.FaultTolerance(nil); ok {
		t.Fatal("empty outcomes should be invalid")
	}
	empty := drtp.NewManager(thetaNetwork(t, 10), fixedScheme{})
	if _, ok := drtp.FaultTolerance(empty.SweepFailures(drtp.LinkFailures)); ok {
		t.Fatal("no affected connections should be invalid")
	}
}

// routePrimary selects a primary the way every link-state scheme does.
func routePrimary(net *drtp.Network, src, dst graph.NodeID) (graph.Path, error) {
	route, err := routing.NewNoBackup().Route(net, drtp.Request{Src: src, Dst: dst})
	return route.Primary, err
}

func TestRoutePrimaryMinHop(t *testing.T) {
	net := thetaNetwork(t, 10)
	p, err := routePrimary(net, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.Hops() != 1 {
		t.Fatalf("primary hops = %d, want direct route", p.Hops())
	}
	// Fill the direct link: primary routing must detour.
	l01, _ := net.Graph().LinkBetween(0, 1)
	for i := drtp.ConnID(100); i < 110; i++ {
		if err := net.DB().ReservePrimary(i, l01); err != nil {
			t.Fatal(err)
		}
	}
	p, err = routePrimary(net, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.Hops() != 2 || p.Contains(l01) {
		t.Fatalf("detour = %s", p.Format(net.Graph()))
	}
}

func TestFailureModelString(t *testing.T) {
	if drtp.LinkFailures.String() != "link" || drtp.EdgeFailures.String() != "edge" {
		t.Fatal("FailureModel.String wrong")
	}
	if drtp.FailureModel(0).String() != "unknown" {
		t.Fatal("unknown model string wrong")
	}
}
