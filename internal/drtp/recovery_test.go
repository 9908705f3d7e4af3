package drtp_test

import (
	"testing"

	"github.com/rtcl/drtp/internal/drtp"
	"github.com/rtcl/drtp/internal/graph"
)

func TestApplyLinkFailureSwitches(t *testing.T) {
	net := thetaNetwork(t, 10)
	primary := pathOf(t, net, 0, 1)
	backup := pathOf(t, net, 0, 2, 1)
	mgr := drtp.NewManager(net, fixedScheme{routes: map[drtp.ConnID]drtp.Route{
		1: drtp.WithBackup(primary, backup),
	}})
	if _, err := mgr.Establish(drtp.Request{ID: 1, Src: 0, Dst: 1}); err != nil {
		t.Fatal(err)
	}
	l01, _ := net.Graph().LinkBetween(0, 1)
	out := mgr.ApplyLinkFailure(l01)
	if out.Affected != 1 || out.Switched != 1 || out.Dropped != 0 {
		t.Fatalf("outcome = %+v", out)
	}
	if !net.LinkFailed(l01) {
		t.Fatal("link not marked failed")
	}
	conn, ok := mgr.Get(1)
	if !ok {
		t.Fatal("connection vanished")
	}
	if conn.Primary.String() != backup.String() {
		t.Fatalf("primary = %s, want the backup route", conn.Primary.Format(net.Graph()))
	}
	db := net.DB()
	// The backup's bandwidth moved from spare to primary; the old
	// primary's reservation on the failed link is gone.
	l02, _ := net.Graph().LinkBetween(0, 2)
	if db.PrimeBW(l02) != 1 || db.SpareBW(l02) != 0 {
		t.Fatalf("l02 prime=%d spare=%d", db.PrimeBW(l02), db.SpareBW(l02))
	}
	if db.PrimeBW(l01) != 0 {
		t.Fatalf("old primary still reserved: %d", db.PrimeBW(l01))
	}
	// fixedScheme implements no BackupRouter: no protection restored.
	if conn.HasBackup() {
		t.Fatal("unexpected restored backup")
	}
	// Release after switch must leave the network clean.
	if err := mgr.Release(1); err != nil {
		t.Fatal(err)
	}
	if db.TotalPrimeBW() != 0 || db.TotalSpareBW() != 0 {
		t.Fatal("resources leaked after post-switch release")
	}
}

func TestApplyLinkFailureDropsUnprotected(t *testing.T) {
	net := thetaNetwork(t, 10)
	mgr := drtp.NewManager(net, fixedScheme{routes: map[drtp.ConnID]drtp.Route{
		1: {Primary: pathOf(t, net, 0, 1)},
	}}, drtp.WithOptionalBackup())
	if _, err := mgr.Establish(drtp.Request{ID: 1, Src: 0, Dst: 1}); err != nil {
		t.Fatal(err)
	}
	l01, _ := net.Graph().LinkBetween(0, 1)
	out := mgr.ApplyLinkFailure(l01)
	if out.Affected != 1 || out.Dropped != 1 || out.Switched != 0 {
		t.Fatalf("outcome = %+v", out)
	}
	if mgr.NumActive() != 0 {
		t.Fatal("dropped connection still active")
	}
	if net.DB().TotalPrimeBW() != 0 {
		t.Fatal("dropped connection leaked bandwidth")
	}
}

func TestApplyLinkFailureReactiveReroute(t *testing.T) {
	net := thetaNetwork(t, 10)
	mgr := drtp.NewManager(net, fixedScheme{routes: map[drtp.ConnID]drtp.Route{
		1: {Primary: pathOf(t, net, 0, 1)},
	}}, drtp.WithOptionalBackup(), drtp.WithReactiveRecovery())
	if _, err := mgr.Establish(drtp.Request{ID: 1, Src: 0, Dst: 1}); err != nil {
		t.Fatal(err)
	}
	l01, _ := net.Graph().LinkBetween(0, 1)
	out := mgr.ApplyLinkFailure(l01)
	if out.Switched != 1 || out.Dropped != 0 {
		t.Fatalf("outcome = %+v", out)
	}
	conn, _ := mgr.Get(1)
	if conn.Primary.Contains(l01) {
		t.Fatal("re-routed primary still uses the failed link")
	}
	if conn.Primary.Hops() != 2 {
		t.Fatalf("re-routed primary = %s", conn.Primary.Format(net.Graph()))
	}
}

func TestApplyEdgeFailureBothDirections(t *testing.T) {
	net := thetaNetwork(t, 10)
	routes := map[drtp.ConnID]drtp.Route{
		1: drtp.WithBackup(pathOf(t, net, 0, 1), pathOf(t, net, 0, 2, 1)),
		2: drtp.WithBackup(pathOf(t, net, 1, 0), pathOf(t, net, 1, 2, 0)),
	}
	mgr := drtp.NewManager(net, fixedScheme{routes: routes})
	if _, err := mgr.Establish(drtp.Request{ID: 1, Src: 0, Dst: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Establish(drtp.Request{ID: 2, Src: 1, Dst: 0}); err != nil {
		t.Fatal(err)
	}
	l01, _ := net.Graph().LinkBetween(0, 1)
	out := mgr.ApplyEdgeFailure(net.Graph().Link(l01).Edge)
	if out.Affected != 2 || out.Switched != 2 {
		t.Fatalf("outcome = %+v", out)
	}
}

func TestApplyFailureSkipsDeadBackup(t *testing.T) {
	// First backup crosses an already-failed link; the second must win.
	net := thetaNetwork(t, 10)
	routes := map[drtp.ConnID]drtp.Route{
		1: {
			Primary: pathOf(t, net, 0, 1),
			Backups: []graph.Path{pathOf(t, net, 0, 2, 1), pathOf(t, net, 0, 3, 4, 1)},
		},
	}
	mgr := drtp.NewManager(net, fixedScheme{routes: routes})
	if _, err := mgr.Establish(drtp.Request{ID: 1, Src: 0, Dst: 1}); err != nil {
		t.Fatal(err)
	}
	l02, _ := net.Graph().LinkBetween(0, 2)
	net.FailLink(l02)
	l01, _ := net.Graph().LinkBetween(0, 1)
	out := mgr.ApplyLinkFailure(l01)
	if out.Switched != 1 {
		t.Fatalf("outcome = %+v", out)
	}
	conn, _ := mgr.Get(1)
	if conn.Primary.Hops() != 3 {
		t.Fatalf("switched onto %s, want the via-3-4 route", conn.Primary.Format(net.Graph()))
	}
	// The surviving (dead) first backup was released, not re-registered.
	if conn.HasBackup() {
		t.Fatal("dead backup should not be re-registered")
	}
	if net.DB().NumBackupsOn(l02) != 0 {
		t.Fatal("stale registration on failed link")
	}
}

func TestRestoreLink(t *testing.T) {
	net := thetaNetwork(t, 10)
	l01, _ := net.Graph().LinkBetween(0, 1)
	net.FailLink(l01)
	if !net.LinkFailed(l01) || net.NumFailedLinks() != 1 {
		t.Fatal("FailLink did not register")
	}
	if _, err := routePrimary(net, 0, 1); err != nil {
		t.Fatal("routing should detour, not fail")
	}
	p, _ := routePrimary(net, 0, 1)
	if p.Contains(l01) {
		t.Fatal("primary routed over failed link")
	}
	net.RestoreLink(l01)
	if net.LinkFailed(l01) || net.NumFailedLinks() != 0 {
		t.Fatal("RestoreLink did not clear")
	}
	p, _ = routePrimary(net, 0, 1)
	if !p.Contains(l01) {
		t.Fatal("restored link unused")
	}
	// Edge variants.
	edge := net.Graph().Link(l01).Edge
	net.FailEdge(edge)
	if net.NumFailedLinks() != 2 {
		t.Fatalf("failed links = %d", net.NumFailedLinks())
	}
	net.RestoreEdge(edge)
	if net.NumFailedLinks() != 0 {
		t.Fatal("RestoreEdge did not clear")
	}
}

func TestSwitchedConnectionGetsFreshBackups(t *testing.T) {
	// A scheme implementing BackupRouter restores protection after the
	// switch; the fixed scheme cannot, so use a tiny inline router.
	net := thetaNetwork(t, 10)
	primary := pathOf(t, net, 0, 1)
	backup := pathOf(t, net, 0, 2, 1)
	restored := pathOf(t, net, 0, 3, 4, 1)
	scheme := restoringScheme{
		fixedScheme: fixedScheme{routes: map[drtp.ConnID]drtp.Route{
			1: drtp.WithBackup(primary, backup),
		}},
		restore: restored,
	}
	mgr := drtp.NewManager(net, scheme)
	if _, err := mgr.Establish(drtp.Request{ID: 1, Src: 0, Dst: 1}); err != nil {
		t.Fatal(err)
	}
	l01, _ := net.Graph().LinkBetween(0, 1)
	out := mgr.ApplyLinkFailure(l01)
	if out.Switched != 1 || out.BackupsReestablished != 1 {
		t.Fatalf("outcome = %+v", out)
	}
	conn, _ := mgr.Get(1)
	if !conn.HasBackup() || conn.Backup().String() != restored.String() {
		t.Fatalf("restored backup = %s", conn.Backup().Format(net.Graph()))
	}
}

// restoringScheme adds a canned BackupRouter to fixedScheme.
type restoringScheme struct {
	fixedScheme
	restore graph.Path
}

func (s restoringScheme) RouteBackupsFor(*drtp.Network, drtp.Request, graph.Path, []graph.Path) []graph.Path {
	return []graph.Path{s.restore}
}
