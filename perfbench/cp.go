package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/rtcl/drtp/internal/controlplane"
	"github.com/rtcl/drtp/internal/graph"
	"github.com/rtcl/drtp/internal/lsdb"
	"github.com/rtcl/drtp/internal/proto"
	"github.com/rtcl/drtp/internal/rng"
	"github.com/rtcl/drtp/internal/router"
	"github.com/rtcl/drtp/internal/telemetry"
	"github.com/rtcl/drtp/internal/topology"
	"github.com/rtcl/drtp/internal/transport"
)

// cp-tcp: the whole control plane (route finder, setup coordinator, and a
// router plus agent per node) deployed in this process over a TCP mesh on
// the loopback interface, with drtpnode's default timers. The load is a
// closed loop of workers() clients calling Agent.Request on seeded random
// src != dst pairs; each client holds at most cpConfig.hold connections
// and releases its oldest (Agent.ReleaseConn) when it has more.

// cpSegments is how many deployments an untraced run loads in turn.
const cpSegments = 3

type cpConfig struct {
	nodes int
	idle  time.Duration
	hold  int
}

func cpParams(o options) cpConfig {
	if o.small {
		return cpConfig{nodes: 12, idle: 300 * time.Millisecond, hold: 4}
	}
	return cpConfig{nodes: 30, idle: 2 * time.Second, hold: 16}
}

// cpDeployConfig mirrors cmd/drtpnode's defaults: 40-unit links, D-LSR,
// one backup, 500 ms heartbeats (3 missed = down), 2 s RPC timeout, 3
// attempts, and the router's own hello/advert/setup timers.
func cpDeployConfig(g *graph.Graph, reg *telemetry.Registry) controlplane.DeployConfig {
	return controlplane.DeployConfig{
		Graph:             g,
		Capacity:          40,
		UnitBW:            1,
		Scheme:            router.DLSR,
		Backups:           1,
		HeartbeatInterval: 500 * time.Millisecond,
		HeartbeatMiss:     3,
		RPCTimeout:        2 * time.Second,
		RetryLimit:        3,
		Metrics:           reg,
	}
}

// loopbackMesh gives every node and both services a loopback address.
func loopbackMesh(g *graph.Graph) *transport.TCPMesh {
	addrs := make(map[graph.NodeID]string, g.NumNodes()+2)
	for n := range g.NumNodes() {
		addrs[graph.NodeID(n)] = "127.0.0.1:0"
	}
	addrs[controlplane.RouteFinderID(g)] = "127.0.0.1:0"
	addrs[controlplane.CoordinatorID(g)] = "127.0.0.1:0"
	return transport.NewTCPMesh(addrs)
}

// cpDeployment is a running deployment and the mesh under it.
type cpDeployment struct {
	g     *graph.Graph
	coord *controlplane.Coordinator
	nodes []*controlplane.NodeRuntime
	close func()
}

// deployCP starts a deployment with controlplane.Deploy and waits until
// it is synced.
func deployCP(g *graph.Graph) (*cpDeployment, error) {
	mesh := loopbackMesh(g)
	d, err := controlplane.Deploy(cpDeployConfig(g, nil), mesh)
	if err != nil {
		_ = mesh.Close()
		return nil, err
	}
	c := &cpDeployment{g: g, coord: d.Coord, close: func() { d.Close(); _ = mesh.Close() }}
	for n := range g.NumNodes() {
		c.nodes = append(c.nodes, d.Node(graph.NodeID(n)))
	}
	if err := d.WaitSynced(30 * time.Second); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

// loadResult is what a closed-loop load measured.
type loadResult struct {
	latMS, releaseMS  []float64
	ok, requests      int64
	releases, failed  int64
	wall              time.Duration
	firstFailure      string
	firstFailureMutex sync.Mutex
}

// add folds another load's counts into l.
func (l *loadResult) add(o *loadResult) {
	l.latMS = append(l.latMS, o.latMS...)
	l.releaseMS = append(l.releaseMS, o.releaseMS...)
	l.ok += o.ok
	l.requests += o.requests
	l.releases += o.releases
	l.failed += o.failed
	l.wall += o.wall
	if l.firstFailure == "" {
		l.firstFailure = o.firstFailure
	}
}

func (l *loadResult) fail(format string, args ...any) {
	atomic.AddInt64(&l.failed, 1)
	l.firstFailureMutex.Lock()
	if l.firstFailure == "" {
		l.firstFailure = fmt.Sprintf(format, args...)
	}
	l.firstFailureMutex.Unlock()
}

// runLoad drives workers() closed-loop clients until the deadline or,
// when quota > 0, until quota requests have been issued. Client w draws
// its pairs from random stream stream+w. recs, when not nil, get a span
// per client call. Every held connection is released before it returns.
// It records the latency of every request and release.
func runLoad(c *cpDeployment, seed int64, stream, hold int, deadline time.Time, quota int64, recs []*recorder) *loadResult {
	res := &loadResult{}
	n := c.g.NumNodes()
	var issued, nextID atomic.Int64
	lats := make([][]float64, workers())
	relLats := make([][]float64, workers())
	var wg sync.WaitGroup
	start := time.Now()
	for w := range workers() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var rec *recorder
			if recs != nil {
				rec = recs[w]
			}
			call := func(name spanName, f func()) {
				if rec != nil {
					rec.begin(name)
					defer rec.end()
				}
				f()
			}
			r := clientRand(seed, stream+w)
			type held struct {
				id  lsdb.ConnID
				src graph.NodeID
			}
			var queue []held
			release := func(h held) {
				atomic.AddInt64(&res.releases, 1)
				var reply proto.ReleaseReply
				var err error
				t := time.Now()
				call(spanReleaseConn, func() { reply, err = c.nodes[h.src].Agent.ReleaseConn(h.id) })
				relLats[w] = append(relLats[w], float64(time.Since(t))/1e6)
				if err != nil || !reply.OK {
					res.fail("release %d: err=%v reason=%q", h.id, err, reply.Reason)
				}
			}
			for {
				if quota > 0 {
					if issued.Add(1) > quota {
						break
					}
				} else if !time.Now().Before(deadline) {
					break
				}
				src := graph.NodeID(r.Intn(n))
				dst := graph.NodeID(r.Intn(n - 1))
				if dst >= src {
					dst++
				}
				id := lsdb.ConnID(nextID.Add(1))
				atomic.AddInt64(&res.requests, 1)
				t := time.Now()
				var reply proto.EstablishReply
				var err error
				call(spanRequest, func() { reply, err = c.nodes[src].Agent.Request(id, dst) })
				lats[w] = append(lats[w], float64(time.Since(t))/1e6)
				if err != nil || !reply.OK {
					res.fail("request %d %d->%d: err=%v reason=%q", id, src, dst, err, reply.Reason)
					continue
				}
				atomic.AddInt64(&res.ok, 1)
				queue = append(queue, held{id: id, src: src})
				if len(queue) > hold {
					release(queue[0])
					queue = queue[1:]
				}
			}
			for _, h := range queue {
				release(h)
			}
		}()
	}
	wg.Wait()
	res.wall = time.Since(start)
	for w := range lats {
		res.latMS = append(res.latMS, lats[w]...)
		res.releaseMS = append(res.releaseMS, relLats[w]...)
	}
	return res
}

// clientRand is the random source of client w's request pairs.
func clientRand(seed int64, w int) *rng.Source {
	return rng.New(seed).Split(fmt.Sprintf("cp/client/%d", w))
}

// drainedCP waits up to five seconds for the deployment to hold no
// connection: the coordinator counts none for the tenant and no router
// reserves primary bandwidth. It returns what is still held, or "".
func drainedCP(c *cpDeployment) string {
	deadline := time.Now().Add(5 * time.Second)
	for {
		conns := c.coord.TenantConns("default")
		prime, where := 0, ""
		for n := range c.g.NumNodes() {
			if bw := c.nodes[n].Router.DB().TotalPrimeBW(); bw != 0 {
				prime += bw
				if where == "" {
					where = fmt.Sprintf(" (router %d holds %d)", n, bw)
				}
			}
		}
		if conns == 0 && prime == 0 {
			return ""
		}
		if time.Now().After(deadline) {
			return fmt.Sprintf("coordinator conns %d, primary bandwidth %d%s", conns, prime, where)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// checkCPDrained records the drained check over one or more loads.
func checkCPDrained(rep *report, held []string) {
	for _, h := range held {
		if h != "" {
			rep.expect("cp-tcp.drained", false, "after releasing every connection: %s", h)
			return
		}
	}
	rep.expect("cp-tcp.drained", true, "%d deployment(s) hold no connection after releasing every one", len(held))
}

// idleCPU sleeps for d with the deployment synced and idle and returns
// the process CPU seconds used per wall second.
func idleCPU(d time.Duration) float64 {
	u0, s0 := cpuTimes()
	t := time.Now()
	time.Sleep(d)
	u1, s1 := cpuTimes()
	return ((u1 - u0) + (s1 - s0)).Seconds() / time.Since(t).Seconds()
}

func cpGraph(o options) (*graph.Graph, error) {
	return topology.Waxman(topology.WaxmanConfig{Nodes: cpParams(o).nodes, AvgDegree: 3, MinDegree: 2, Seed: networkSeed})
}

func measureCP(o options) (*report, error) {
	cfg := cpParams(o)
	g, err := cpGraph(o)
	if err != nil {
		return nil, err
	}
	rep := &report{}
	var c *cpDeployment
	setup, err := timeSetup(setupRuns, func() {
		c.close()
		c = nil
	}, func() error {
		c, err = deployCP(g)
		return err
	})
	if err != nil {
		return nil, err
	}
	defer func() {
		if c != nil {
			c.close()
		}
	}()

	idle := idleCPU(cfg.idle)
	// The load runs on cpSegments fresh deployments in turn, so that one
	// deployment's timer phases do not set the whole run's figure.
	res := &loadResult{}
	var held []string
	var allocs float64
	segment := time.Duration(o.seconds / cpSegments * float64(time.Second))
	for k := range cpSegments {
		if k > 0 {
			c.close()
			if c, err = deployCP(g); err != nil {
				return nil, err
			}
		}
		a0 := heapAllocs()
		r := runLoad(c, o.seed, k*workers(), cfg.hold, time.Now().Add(segment), 0, nil)
		allocs += float64(heapAllocs() - a0)
		held = append(held, drainedCP(c))
		res.add(r)
	}
	checkCPDrained(rep, held)
	rep.expect("cp-tcp.latency_samples", len(res.latMS) > 0, "%d request latencies", len(res.latMS))

	rep.attempted = res.requests + res.releases
	rep.failed = res.failed
	rep.add("setup_s", "s", setup, setupRuns)
	rep.add("requests_per_s", "1/s", float64(res.ok)/res.wall.Seconds(), 0)
	rep.add("allocs_per_request", "count", ratio(allocs, float64(res.requests)), 0)
	rep.add("accept_ratio", "ratio", ratio(float64(res.ok), float64(res.requests)), 0)
	rep.note("establish_p50_ms", "ms", percentile(res.latMS, 0.50), len(res.latMS))
	rep.note("establish_p99_ms", "ms", percentile(res.latMS, 0.99), len(res.latMS))
	rep.note("idle_cpu_cores", "cores", idle, 0)
	rep.note("failed_ratio", "ratio", ratio(float64(res.failed), float64(rep.attempted)), 0)
	if res.firstFailure != "" {
		fmt.Printf("# first failed operation: %s\n", res.firstFailure)
	}
	return rep, nil
}

func traceCP(o options) (*report, error) {
	cfg := cpParams(o)
	g, err := cpGraph(o)
	if err != nil {
		return nil, err
	}
	rep := &report{}

	// Untraced half: Deploy as is, load for half the run.
	c, err := deployCP(g)
	if err != nil {
		return nil, err
	}
	base := runLoad(c, o.seed, 0, cfg.hold, time.Now().Add(time.Duration(o.seconds/2*float64(time.Second))), 0, nil)
	c.close()

	// Traced half: the same deployment with counted sends and the
	// coordinator's stage histograms, then the same number of requests.
	reg := telemetry.NewRegistry()
	mesh := loopbackMesh(g)
	counter := &countingAttacher{inner: mesh}
	c, err = deployInstrumented(cpDeployConfig(g, reg), counter)
	if err != nil {
		_ = mesh.Close()
		return nil, err
	}
	closeDeployment := c.close
	c.close = func() { closeDeployment(); _ = mesh.Close() }
	defer c.close()
	m0 := counter.msgs.Load()
	t0 := time.Now()
	time.Sleep(cfg.idle)
	idleMsgs := float64(counter.msgs.Load()-m0) / time.Since(t0).Seconds()

	epoch := time.Now()
	recs := make([]*recorder, workers())
	for w := range recs {
		recs[w] = newRecorder(epoch, w)
	}
	m0, b0 := counter.msgs.Load(), counter.bytes.Load()
	pass, err := startTracedPass()
	if err != nil {
		return nil, err
	}
	res := runLoad(c, o.seed, 0, cfg.hold, time.Time{}, base.requests, recs)
	if err := pass.stop(); err != nil {
		return nil, err
	}
	msgs, bytes := counter.msgs.Load()-m0, counter.bytes.Load()-b0
	checkCPDrained(rep, []string{drainedCP(c)})
	rep.expect("cp-tcp.same_work", res.requests == base.requests, "traced %d requests, untraced %d", res.requests, base.requests)
	rep.attempted = res.requests + res.releases
	rep.failed = res.failed

	addZeroSimMetrics(rep)
	stage := reg.LatencyVec("drtp_cp_stage_seconds", "", "stage")
	hop := reg.LatencyVec("drtp_router_hop_signal_seconds", "", "role")
	ms := func(h *telemetry.LatencyHist) float64 { return float64(histMedian(h)) / 1e6 }
	rep.add("cp.admission_p50_ms", "ms", ms(stage.With("admission")), int(stage.With("admission").Count()))
	rep.add("cp.route_query_p50_ms", "ms", ms(stage.With("route_query")), int(stage.With("route_query").Count()))
	rep.add("cp.establish_stage_p50_ms", "ms", ms(stage.With("establish")), int(stage.With("establish").Count()))
	rep.add("cp.release_p50_ms", "ms", median(res.releaseMS), len(res.releaseMS))
	rep.add("router.hop_signal_p50_ms", "ms", ms(hop.With("primary")), int(hop.With("primary").Count()))
	rep.add("transport.msgs_per_conn", "count", ratio(float64(msgs), float64(res.ok)), 0)
	rep.add("proto.bytes_per_conn", "bytes", ratio(float64(bytes), float64(res.ok)), 0)
	rep.add("transport.idle_msgs_per_s", "1/s", idleMsgs, 0)
	pass.addCPU(rep)
	rep.add("trace.overhead_ratio", "ratio", res.wall.Seconds()/base.wall.Seconds()-1, 0)
	rep.writeSpans(o.outdir, "cp-tcp", recs)
	return rep, nil
}

// histMedian estimates a log2 latency histogram's median by linear
// interpolation inside the bucket that holds it, as Prometheus's
// histogram_quantile does; LatencyHist.Quantile returns the bucket's
// midpoint, which would read the same on most runs. Bucket b holds
// durations in [2^(b-1), 2^b) ns, and CountOver(d) counts the
// observations in buckets above d's, so the buckets up to and including
// b hold Count() - CountOver(2^(b-1)) observations.
func histMedian(h *telemetry.LatencyHist) time.Duration {
	total := h.Count()
	rank := float64(total) / 2
	below := float64(total - h.CountOver(0))
	for b := 1; b < 63 && total > 0; b++ {
		lo := time.Duration(1) << (b - 1)
		upTo := float64(total - h.CountOver(lo))
		if upTo >= rank && upTo > below {
			return lo + time.Duration((rank-below)/(upTo-below)*float64(lo))
		}
		below = upTo
	}
	return 0
}

// addZeroSimMetrics appends the simulator per-layer metrics for the
// control-plane workload, which never runs the simulator's manager.
func addZeroSimMetrics(rep *report) {
	for _, name := range []string{"drtp.failure_sweep.busy_s", "routing.route.busy_s", "drtp.establish.self_s",
		"drtp.release.busy_s", "drtp.apply_failure.busy_s", "sim.self_s"} {
		rep.add(name, "s", 0, 0)
	}
	for _, name := range []string{"drtp.failure_sweep.links", "routing.route.calls", "flood.cdp_per_request",
		"drtp.establish.calls", "drtp.apply_failure.switched", "drtp.apply_failure.dropped"} {
		rep.add(name, "count", 0, 0)
	}
	rep.add("routing.backup_found_ratio", "ratio", 0, 0)
	rep.add("lsdb.aplv_bytes", "bytes", 0, 0)
	rep.add("lsdb.register_fail_ratio", "ratio", 0, 0)
}

// countingAttacher counts the messages every endpoint it attaches sends
// and their framed size under the wire codec.
type countingAttacher struct {
	inner       controlplane.Attacher
	msgs, bytes atomic.Int64
}

func (a *countingAttacher) Attach(node graph.NodeID) (transport.Endpoint, error) {
	ep, err := a.inner.Attach(node)
	if err != nil {
		return nil, err
	}
	return &countingEndpoint{Endpoint: ep, a: a}, nil
}

type countingEndpoint struct {
	transport.Endpoint
	a *countingAttacher
}

func (e *countingEndpoint) Send(to graph.NodeID, msg proto.Message) error {
	env := proto.Envelope{From: e.Node(), To: to, Msg: msg}
	if b, err := env.MarshalBinary(); err == nil {
		e.a.bytes.Add(int64(len(b)) + 4) // 4-byte frame length prefix
	}
	e.a.msgs.Add(1)
	return e.Endpoint.Send(to, msg)
}

// deployInstrumented assembles the same deployment as controlplane.Deploy
// from the package's public constructors, and also hands the metrics
// registry to the coordinator, which Deploy does not, so the
// coordinator's stage histograms are recorded. It waits until the
// deployment is synced.
func deployInstrumented(cfg controlplane.DeployConfig, at controlplane.Attacher) (*cpDeployment, error) {
	g := cfg.Graph
	var (
		rf      *controlplane.RouteFinder
		closers []func()
	)
	c := &cpDeployment{g: g, close: func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}}
	fail := func(err error) (*cpDeployment, error) {
		c.close()
		return nil, err
	}
	rfEP, err := at.Attach(controlplane.RouteFinderID(g))
	if err != nil {
		return fail(err)
	}
	rf, err = controlplane.NewRouteFinder(controlplane.RouteFinderConfig{
		Graph: g, Capacity: cfg.Capacity, UnitBW: cfg.UnitBW, Scheme: cfg.Scheme, Backups: cfg.Backups,
	}, rfEP)
	if err != nil {
		_ = rfEP.Close()
		return fail(err)
	}
	closers = append(closers, func() { _ = rf.Close() })
	coordEP, err := at.Attach(controlplane.CoordinatorID(g))
	if err != nil {
		return fail(err)
	}
	c.coord, err = controlplane.NewCoordinator(controlplane.CoordinatorConfig{
		Graph: g, RouteFinder: controlplane.RouteFinderID(g), UnitBW: cfg.UnitBW,
		HeartbeatInterval: cfg.HeartbeatInterval, HeartbeatMiss: cfg.HeartbeatMiss,
		RPCTimeout: cfg.RPCTimeout, RetryLimit: cfg.RetryLimit, Metrics: cfg.Metrics,
	}, coordEP)
	if err != nil {
		_ = coordEP.Close()
		return fail(err)
	}
	coord := c.coord
	closers = append(closers, func() { _ = coord.Close() })
	for n := range g.NumNodes() {
		node := graph.NodeID(n)
		ep, err := at.Attach(node)
		if err != nil {
			return fail(err)
		}
		routerEP, agentCh := controlplane.SplitEndpoint(ep)
		rcfg := cfg.Router
		rcfg.Node, rcfg.Graph = node, g
		rcfg.Capacity, rcfg.UnitBW = cfg.Capacity, cfg.UnitBW
		rcfg.Scheme, rcfg.Backups = cfg.Scheme, cfg.Backups
		rcfg.Mirrors = []graph.NodeID{controlplane.RouteFinderID(g)}
		rcfg.Metrics = cfg.Metrics
		r, err := router.New(rcfg, routerEP)
		if err != nil {
			_ = routerEP.Close()
			return fail(err)
		}
		closers = append(closers, func() { _ = r.Close() })
		a, err := controlplane.NewAgent(controlplane.AgentConfig{
			Node: node, Graph: g, Coordinator: controlplane.CoordinatorID(g),
			HeartbeatInterval: cfg.HeartbeatInterval,
			RequestTimeout:    cfg.RPCTimeout * time.Duration(max(cfg.RetryLimit, 1)+2),
			RetryLimit:        cfg.RetryLimit,
		}, r, routerEP, agentCh)
		if err != nil {
			return fail(err)
		}
		closers = append(closers, func() { _ = a.Close() })
		c.nodes = append(c.nodes, &controlplane.NodeRuntime{Router: r, Agent: a})
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		ready := rf.Synced()
		for _, n := range c.nodes {
			ready = ready && n.Agent.Registered() && n.Router.Synced()
		}
		if ready {
			return c, nil
		}
		if time.Now().After(deadline) {
			return fail(fmt.Errorf("instrumented deployment not synced after 30s"))
		}
		time.Sleep(2 * time.Millisecond)
	}
}
