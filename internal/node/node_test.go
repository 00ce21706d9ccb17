package node

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"ringcast/internal/core"
	"ringcast/internal/cyclon"
	"ringcast/internal/ident"
	"ringcast/internal/transport"
	"ringcast/internal/vicinity"
	"ringcast/internal/view"
	"ringcast/internal/wire"
)

// testCluster spins up n in-memory nodes joined in a chain and gossiped to
// convergence. Every node sends through its own fault injector (a
// pass-through until a test programs it).
type testCluster struct {
	net    *transport.InMemNetwork
	nodes  []*Node
	faults []*transport.FaultInjector
	mu     sync.Mutex
	got    map[ident.ID][]wire.MsgID // deliveries per node
}

func testNodeConfig(i int) Config {
	return Config{
		ID:             ident.ID(1000 * (i + 1)),
		Fanout:         3,
		Selector:       core.RingCast{},
		Cyclon:         cyclon.Config{ViewSize: 8, ShuffleLen: 4},
		Vicinity:       vicinity.Config{ViewSize: 8, GossipLen: 8, Balanced: true, MaxAge: 20},
		GossipInterval: time.Hour, // ticker effectively off; tests drive GossipNow
		DedupCapacity:  128,
		Seed:           int64(i + 1),
	}
}

func newTestCluster(t *testing.T, n int) *testCluster {
	t.Helper()
	c := &testCluster{
		net: transport.NewInMemNetwork(),
		got: make(map[ident.ID][]wire.MsgID),
	}
	for i := 0; i < n; i++ {
		ep, err := c.net.Endpoint(fmt.Sprintf("n%03d", i))
		if err != nil {
			t.Fatal(err)
		}
		fi := transport.WrapFaults(ep, int64(i+1))
		c.faults = append(c.faults, fi)
		cfg := testNodeConfig(i)
		nd, err := New(cfg, fi, nil)
		if err != nil {
			t.Fatal(err)
		}
		nodeID := nd.ID()
		// installed after New: rebind delivery to the cluster recorder
		nd.deliver = func(d Delivery) {
			c.mu.Lock()
			c.got[nodeID] = append(c.got[nodeID], d.Msg.ID)
			c.mu.Unlock()
		}
		c.nodes = append(c.nodes, nd)
	}
	// Join each node via node 0 and warm up.
	for i := 1; i < n; i++ {
		if err := c.nodes[i].Join(c.nodes[0].Addr()); err != nil {
			t.Fatal(err)
		}
	}
	c.settle()
	for cycle := 0; cycle < 60; cycle++ {
		for _, nd := range c.nodes {
			nd.GossipNow()
		}
		c.settle()
		if c.ringConverged() {
			return c
		}
	}
	if !c.ringConverged() {
		t.Fatal("live cluster ring did not converge")
	}
	return c
}

// settle waits for the in-memory pumps to drain.
func (c *testCluster) settle() { time.Sleep(5 * time.Millisecond) }

// ringConverged verifies every node's pred/succ match the global sorted ring.
func (c *testCluster) ringConverged() bool {
	n := len(c.nodes)
	ids := make([]ident.ID, n)
	for i, nd := range c.nodes {
		ids[i] = nd.ID()
	}
	// test IDs are constructed ascending: 1000, 2000, ...
	for i, nd := range c.nodes {
		pred, succ, ok := nd.RingNeighbors()
		if !ok {
			return false
		}
		if succ.Node != ids[(i+1)%n] || pred.Node != ids[(i-1+n)%n] {
			return false
		}
	}
	return true
}

func (c *testCluster) deliveredCount(mid wire.MsgID) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	count := 0
	for _, mids := range c.got {
		for _, m := range mids {
			if m == mid {
				count++
				break
			}
		}
	}
	return count
}

func (c *testCluster) close() {
	for _, nd := range c.nodes {
		nd.Close()
	}
}

func TestLiveClusterDisseminatesToAll(t *testing.T) {
	c := newTestCluster(t, 24)
	defer c.close()
	mid, err := c.nodes[5].Publish([]byte("hello overlay"))
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.After(5 * time.Second)
	for c.deliveredCount(mid) < len(c.nodes) {
		select {
		case <-deadline:
			t.Fatalf("delivered to %d/%d nodes", c.deliveredCount(mid), len(c.nodes))
		case <-time.After(10 * time.Millisecond):
		}
	}
}

func TestLiveClusterEveryOriginReachesAll(t *testing.T) {
	c := newTestCluster(t, 12)
	defer c.close()
	for i := range c.nodes {
		mid, err := c.nodes[i].Publish([]byte("m"))
		if err != nil {
			t.Fatal(err)
		}
		deadline := time.After(5 * time.Second)
		for c.deliveredCount(mid) < len(c.nodes) {
			select {
			case <-deadline:
				t.Fatalf("origin %d: delivered to %d/%d", i, c.deliveredCount(mid), len(c.nodes))
			case <-time.After(5 * time.Millisecond):
			}
		}
	}
}

func TestDuplicateSuppression(t *testing.T) {
	c := newTestCluster(t, 16)
	defer c.close()
	mid, _ := c.nodes[0].Publish([]byte("x"))
	deadline := time.After(5 * time.Second)
	for c.deliveredCount(mid) < len(c.nodes) {
		select {
		case <-deadline:
			t.Fatal("dissemination incomplete")
		case <-time.After(5 * time.Millisecond):
		}
	}
	c.settle()
	// Each node must have delivered the message exactly once.
	c.mu.Lock()
	defer c.mu.Unlock()
	for nid, mids := range c.got {
		n := 0
		for _, m := range mids {
			if m == mid {
				n++
			}
		}
		if n != 1 {
			t.Fatalf("node %v delivered message %d times", nid, n)
		}
	}
}

func TestNodeSurvivesPeerCrash(t *testing.T) {
	c := newTestCluster(t, 16)
	defer c.close()
	// Crash three nodes abruptly (transport gone, no goodbye).
	for _, i := range []int{3, 7, 11} {
		c.nodes[i].Close()
	}
	// Keep gossiping: the survivors must heal and still disseminate.
	alive := make([]*Node, 0, 13)
	for i, nd := range c.nodes {
		if i != 3 && i != 7 && i != 11 {
			alive = append(alive, nd)
		}
	}
	for cycle := 0; cycle < 40; cycle++ {
		for _, nd := range alive {
			nd.GossipNow()
		}
		c.settle()
	}
	mid, err := alive[0].Publish([]byte("after crash"))
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.After(5 * time.Second)
	for c.deliveredCount(mid) < len(alive) {
		select {
		case <-deadline:
			t.Fatalf("delivered to %d/%d survivors", c.deliveredCount(mid), len(alive))
		case <-time.After(10 * time.Millisecond):
		}
	}
}

func TestNewValidation(t *testing.T) {
	net := transport.NewInMemNetwork()
	ep, _ := net.Endpoint("x")
	if _, err := New(Config{}, nil, nil); err == nil {
		t.Error("accepted nil transport")
	}
	if _, err := New(Config{Fanout: -1}, ep, nil); err == nil {
		t.Error("accepted negative fanout")
	}
}

func TestDefaultsFilled(t *testing.T) {
	net := transport.NewInMemNetwork()
	ep, _ := net.Endpoint("x")
	nd, err := New(Config{}, ep, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()
	if nd.cfg.Fanout != 3 || nd.cfg.Selector == nil || nd.cfg.DedupCapacity != 4096 {
		t.Fatalf("defaults not filled: %+v", nd.cfg)
	}
	if nd.ID().IsNil() {
		t.Fatal("node ID not drawn")
	}
}

func TestStartCloseLifecycle(t *testing.T) {
	net := transport.NewInMemNetwork()
	ep, _ := net.Endpoint("x")
	cfg := testNodeConfig(0)
	cfg.GossipInterval = 5 * time.Millisecond
	nd, err := New(cfg, ep, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := nd.Start(); err != nil {
		t.Fatal(err)
	}
	if err := nd.Start(); err == nil {
		t.Fatal("double start accepted")
	}
	time.Sleep(30 * time.Millisecond) // let the ticker fire a few times
	if err := nd.Close(); err != nil {
		t.Fatal(err)
	}
	if err := nd.Close(); err != nil {
		t.Fatalf("second close errored: %v", err)
	}
	if _, err := nd.Publish([]byte("x")); err == nil {
		t.Fatal("publish after close accepted")
	}
	if err := nd.Start(); err == nil {
		t.Fatal("start after close accepted")
	}
}

func TestTimerDrivenConvergence(t *testing.T) {
	// Nodes driven purely by their own tickers (no GossipNow): the real
	// asynchronous mode of operation.
	net := transport.NewInMemNetwork()
	const n = 10
	nodes := make([]*Node, 0, n)
	for i := 0; i < n; i++ {
		ep, err := net.Endpoint(fmt.Sprintf("t%02d", i))
		if err != nil {
			t.Fatal(err)
		}
		cfg := testNodeConfig(i)
		cfg.GossipInterval = 3 * time.Millisecond
		nd, err := New(cfg, ep, nil)
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, nd)
	}
	defer func() {
		for _, nd := range nodes {
			nd.Close()
		}
	}()
	for i := 1; i < n; i++ {
		if err := nodes[i].Join(nodes[0].Addr()); err != nil {
			t.Fatal(err)
		}
	}
	for _, nd := range nodes {
		if err := nd.Start(); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.After(10 * time.Second)
	for {
		converged := true
		for i, nd := range nodes {
			pred, succ, ok := nd.RingNeighbors()
			if !ok ||
				succ.Node != nodes[(i+1)%n].ID() ||
				pred.Node != nodes[(i-1+n)%n].ID() {
				converged = false
				break
			}
		}
		if converged {
			return
		}
		select {
		case <-deadline:
			t.Fatal("timer-driven cluster did not converge")
		case <-time.After(20 * time.Millisecond):
		}
	}
}

func TestStatsProgress(t *testing.T) {
	c := newTestCluster(t, 8)
	defer c.close()
	mid, _ := c.nodes[0].Publish([]byte("s"))
	deadline := time.After(5 * time.Second)
	for c.deliveredCount(mid) < len(c.nodes) {
		select {
		case <-deadline:
			t.Fatal("incomplete")
		case <-time.After(5 * time.Millisecond):
		}
	}
	s0 := c.nodes[0].Stats()
	if s0.Published != 1 {
		t.Fatalf("Published = %d, want 1", s0.Published)
	}
	if s0.Forwarded == 0 {
		t.Fatal("origin forwarded nothing")
	}
	if s0.Shuffles == 0 || s0.VicExchanges == 0 {
		t.Fatalf("gossip counters did not move: %+v", s0)
	}
}

func TestJoinUnreachableBootstrap(t *testing.T) {
	net := transport.NewInMemNetwork()
	ep, _ := net.Endpoint("x")
	nd, err := New(testNodeConfig(0), ep, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()
	if err := nd.Join("nowhere"); err == nil {
		t.Fatal("join to unreachable bootstrap succeeded")
	}
}

// The overlay must keep working when a fifth of all gossip and data
// messages are silently lost: push gossip's redundancy is the reliability
// mechanism (paper, Section 1). The loss is silent — the sender sees
// success, as on a congested path — so no send error is counted and no
// peer is evicted: what carries the message is redundancy, not eviction.
func TestClusterToleratesMessageLoss(t *testing.T) {
	c := newTestCluster(t, 16)
	defer c.close()
	for _, fi := range c.faults {
		fi.SetLoss(0.2)
	}
	defer func() {
		var errs uint64
		var lost int64
		for i, nd := range c.nodes {
			errs += nd.Stats().SendErrors
			lost += c.faults[i].InjectedDrops()
		}
		if lost == 0 {
			t.Error("no copy was lost: the loss model is not active")
		}
		if errs != 0 {
			t.Errorf("%d send errors under silent loss: copies were refused, not lost", errs)
		}
	}()
	// Gossip keeps running under loss.
	for cycle := 0; cycle < 20; cycle++ {
		for _, nd := range c.nodes {
			nd.GossipNow()
		}
		c.settle()
	}
	// With F=3 + ring redundancy, 20% loss still reaches nearly everyone;
	// require at least 14/16. Which copies the seeded loss model drops
	// depends on send interleaving, so under heavy scheduler contention
	// (the full-module -race run) a single message can occasionally strand
	// a few extra nodes and then die out — a fresh publish draws a fresh
	// drop pattern, so retry up to three messages before declaring the
	// redundancy mechanism broken.
	const attempts = 3
	best := 0
	for attempt := 0; attempt < attempts; attempt++ {
		mid, err := c.nodes[0].Publish([]byte(fmt.Sprintf("lossy-%d", attempt)))
		if err != nil {
			t.Fatal(err)
		}
		deadline := time.After(5 * time.Second)
		for c.deliveredCount(mid) < 14 {
			select {
			case <-deadline:
				if n := c.deliveredCount(mid); n > best {
					best = n
				}
				goto next
			case <-time.After(10 * time.Millisecond):
			}
		}
		return
	next:
	}
	t.Fatalf("only %d/16 deliveries under 20%% loss (best of %d messages)", best, attempts)
}

// BenchmarkNodeGossipCycle measures one live-node gossip cycle including
// codec and in-memory transport overhead.
func BenchmarkNodeGossipCycle(b *testing.B) {
	net := transport.NewInMemNetwork()
	nodes := make([]*Node, 0, 16)
	for i := 0; i < 16; i++ {
		ep, err := net.Endpoint(fmt.Sprintf("b%02d", i))
		if err != nil {
			b.Fatal(err)
		}
		nd, err := New(testNodeConfig(i), ep, nil)
		if err != nil {
			b.Fatal(err)
		}
		nodes = append(nodes, nd)
	}
	defer func() {
		for _, nd := range nodes {
			nd.Close()
		}
	}()
	for i := 1; i < len(nodes); i++ {
		if err := nodes[i].Join(nodes[0].Addr()); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		for _, nd := range nodes {
			nd.GossipNow()
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nodes[i%len(nodes)].GossipNow()
	}
}

// BenchmarkNodePublish measures publishing into a warmed 16-node cluster.
func BenchmarkNodePublish(b *testing.B) {
	net := transport.NewInMemNetwork()
	nodes := make([]*Node, 0, 16)
	for i := 0; i < 16; i++ {
		ep, err := net.Endpoint(fmt.Sprintf("p%02d", i))
		if err != nil {
			b.Fatal(err)
		}
		cfg := testNodeConfig(i)
		cfg.DedupCapacity = 1 << 16
		nd, err := New(cfg, ep, nil)
		if err != nil {
			b.Fatal(err)
		}
		nodes = append(nodes, nd)
	}
	defer func() {
		for _, nd := range nodes {
			nd.Close()
		}
	}()
	for i := 1; i < len(nodes); i++ {
		if err := nodes[i].Join(nodes[0].Addr()); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		for _, nd := range nodes {
			nd.GossipNow()
		}
	}
	body := []byte("benchmark message")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nodes[i%len(nodes)].Publish(body); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDeliveredHopCounts pins the wire-visible hop semantics over a manually
// wired 3-node chain A-B-C: the origin delivers locally at hop 0, the
// first-hop receiver at hop 1, the second-hop receiver at hop 2. Before the
// increment moved into forward (it used to happen only after delivery),
// every remote delivery under-reported by one and B's delivery was
// indistinguishable from the origin's.
func TestDeliveredHopCounts(t *testing.T) {
	net := transport.NewInMemNetwork()
	var (
		mu   sync.Mutex
		hops = map[ident.ID]uint16{}
	)
	mk := func(i int) *Node {
		ep, err := net.Endpoint(fmt.Sprintf("chain%d", i))
		if err != nil {
			t.Fatal(err)
		}
		cfg := testNodeConfig(i)
		cfg.Selector = core.Flood{} // forward on every link except the sender
		nd, err := New(cfg, ep, nil)
		if err != nil {
			t.Fatal(err)
		}
		id := nd.ID()
		nd.deliver = func(d Delivery) {
			mu.Lock()
			hops[id] = d.Msg.Hop
			mu.Unlock()
		}
		return nd
	}
	a, b, c := mk(0), mk(1), mk(2)
	defer a.Close()
	defer b.Close()
	defer c.Close()
	// Wire the chain directly (no gossip): A<->B<->C.
	a.cyc.AddContact(b.ID(), b.Addr())
	b.cyc.AddContact(a.ID(), a.Addr())
	b.cyc.AddContact(c.ID(), c.Addr())
	c.cyc.AddContact(b.ID(), b.Addr())

	if _, err := a.Publish([]byte("hop check")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		done := len(hops) == 3
		mu.Unlock()
		if done || time.Now().After(deadline) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	want := map[ident.ID]uint16{a.ID(): 0, b.ID(): 1, c.ID(): 2}
	for id, wantHop := range want {
		got, ok := hops[id]
		if !ok {
			t.Fatalf("node %v never got the message (hops=%v)", id, hops)
		}
		if got != wantHop {
			t.Errorf("node %v delivered at hop %d, want %d", id, got, wantHop)
		}
	}
}

// queueFullTransport accepts gossip-exchange frames but refuses every
// dissemination payload with ErrQueueFull, simulating a saturated outbound
// queue toward every peer.
type queueFullTransport struct {
	handler transport.Handler
}

func (q *queueFullTransport) Addr() string                   { return "qf" }
func (q *queueFullTransport) SetHandler(h transport.Handler) { q.handler = h }
func (q *queueFullTransport) Stats() transport.Stats         { return transport.Stats{} }
func (q *queueFullTransport) Close() error                   { return nil }
func (q *queueFullTransport) Send(to string, f *wire.Frame) error {
	if f.Kind == wire.KindGossip {
		return fmt.Errorf("%w: %s", transport.ErrQueueFull, to)
	}
	return nil
}

// TestQueueFullDoesNotEvictPeer verifies backpressure is not mistaken for
// peer death: a forward refused with ErrQueueFull must leave the target in
// the CYCLON and VICINITY views and be counted separately from SendErrors.
func TestQueueFullDoesNotEvictPeer(t *testing.T) {
	tr := &queueFullTransport{}
	cfg := testNodeConfig(1)
	nd, err := New(cfg, tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()
	// Seed the views with one peer via the hello-ack path.
	peer := view.Entry{Node: ident.ID(0xbeef), Addr: "peer-addr", Age: 0}
	nd.handle("peer-addr", &wire.Frame{
		Kind: wire.KindHelloAck, From: peer.Node, FromAddr: peer.Addr,
		Entries: []view.Entry{peer},
	})
	if _, err := nd.Publish([]byte("payload")); err != nil {
		t.Fatal(err)
	}
	s := nd.Stats()
	if s.QueueFull == 0 {
		t.Fatalf("QueueFull not counted: %+v", s)
	}
	if s.SendErrors != 0 {
		t.Fatalf("backpressure counted as SendErrors: %+v", s)
	}
	found := false
	for _, id := range nd.ViewIDs() {
		if id == peer.Node {
			found = true
		}
	}
	if !found {
		t.Fatal("peer evicted from CYCLON view on ErrQueueFull")
	}
}

// TestRestartEpochDistinguishesPublishes is the restart-identity regression:
// a supervised restart reuses the node's seed and ring ID, so its fresh
// pubSeq restarts at 1 and — without an incarnation epoch — reproduces the
// pre-crash MsgIDs exactly, and every peer's dedup cache silently swallows
// the post-restart publishes. The epoch stamped into MsgIDs is what breaks
// the collision.
func TestRestartEpochDistinguishesPublishes(t *testing.T) {
	c := newTestCluster(t, 8)
	defer c.close()

	preCrash, err := c.nodes[0].Publish([]byte("pre-crash"))
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.After(5 * time.Second)
	for c.deliveredCount(preCrash) < len(c.nodes) {
		select {
		case <-deadline:
			t.Fatalf("pre-crash delivered to %d/%d", c.deliveredCount(preCrash), len(c.nodes))
		case <-time.After(5 * time.Millisecond):
		}
	}

	// Crash node 0 and restart it exactly as the soak supervisor does:
	// same ID, same seed, same address — but a bumped incarnation epoch.
	c.nodes[0].Close()
	c.settle()
	ep, err := c.net.Endpoint("n000")
	if err != nil {
		t.Fatal(err)
	}
	cfg := testNodeConfig(0)
	cfg.Epoch = 1
	restarted, err := New(cfg, ep, nil)
	if err != nil {
		t.Fatal(err)
	}
	nodeID := restarted.ID()
	restarted.deliver = func(d Delivery) {
		c.mu.Lock()
		c.got[nodeID] = append(c.got[nodeID], d.Msg.ID)
		c.mu.Unlock()
	}
	c.nodes[0] = restarted
	if err := restarted.Join(c.nodes[1].Addr()); err != nil {
		t.Fatal(err)
	}
	for cycle := 0; cycle < 40; cycle++ {
		for _, nd := range c.nodes {
			nd.GossipNow()
		}
		c.settle()
	}

	postCrash, err := restarted.Publish([]byte("post-restart"))
	if err != nil {
		t.Fatal(err)
	}
	// Without the epoch this publish would reproduce the pre-crash MsgID
	// bit-for-bit — same origin, same seq — and dedup would swallow it.
	collision := wire.MsgID{Origin: postCrash.Origin, Epoch: 0, Seq: postCrash.Seq}
	if collision != preCrash {
		t.Fatalf("test premise broken: epoch-0 restart ID %v does not collide with pre-crash %v",
			collision, preCrash)
	}
	if postCrash == preCrash {
		t.Fatalf("restarted publish reused pre-crash MsgID %v", preCrash)
	}
	if postCrash.Epoch != 1 {
		t.Fatalf("restarted publish epoch = %d, want 1", postCrash.Epoch)
	}
	deadline = time.After(5 * time.Second)
	for c.deliveredCount(postCrash) < len(c.nodes) {
		select {
		case <-deadline:
			t.Fatalf("post-restart delivered to %d/%d nodes — dedup swallowed it?",
				c.deliveredCount(postCrash), len(c.nodes))
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// TestSetFanoutAppliesAtCycleBoundary pins the staged-commit contract: a
// mid-cycle fanout change is invisible until the next cycle boundary, then
// takes effect exactly there.
func TestSetFanoutAppliesAtCycleBoundary(t *testing.T) {
	net := transport.NewInMemNetwork()
	ep, err := net.Endpoint("solo")
	if err != nil {
		t.Fatal(err)
	}
	nd, err := New(testNodeConfig(0), ep, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()

	if got := nd.Fanout(); got != 3 {
		t.Fatalf("initial fanout = %d", got)
	}
	if err := nd.SetFanout(0); err == nil {
		t.Fatal("SetFanout(0) accepted")
	}
	if err := nd.SetFanout(7); err != nil {
		t.Fatal(err)
	}
	if got := nd.Fanout(); got != 3 {
		t.Fatalf("fanout changed mid-cycle: %d", got)
	}
	nd.GossipNow()
	if got := nd.Fanout(); got != 7 {
		t.Fatalf("fanout after cycle boundary = %d, want 7", got)
	}
}

// TestSetViewSizesStagedResize pins view-size re-tuning: invalid sizes are
// rejected against the shuffle/gossip lengths, zero means "leave alone",
// and a shrink is applied (with eviction) at the next cycle boundary.
func TestSetViewSizesStagedResize(t *testing.T) {
	c := newTestCluster(t, 12)
	defer c.close()
	nd := c.nodes[5]

	if err := nd.SetViewSizes(2, 0); err == nil {
		t.Fatal("cyclon view below shuffle length accepted")
	}
	if err := nd.SetViewSizes(0, 4); err == nil {
		t.Fatal("vicinity view below gossip length accepted")
	}
	if err := nd.SetViewSizes(0, 0); err != nil {
		t.Fatalf("no-op resize rejected: %v", err)
	}
	before := len(nd.ViewIDs())
	if before <= 4 {
		t.Fatalf("test premise broken: converged cyclon view has %d entries", before)
	}
	if err := nd.SetViewSizes(4, 8); err != nil {
		t.Fatal(err)
	}
	if got := len(nd.ViewIDs()); got != before {
		t.Fatalf("view resized mid-cycle: %d entries, had %d", got, before)
	}
	nd.GossipNow()
	c.settle()
	if got := len(nd.ViewIDs()); got > 4 {
		t.Fatalf("cyclon view holds %d entries after shrink to 4", got)
	}
}

// TestSetGossipIntervalRearms pins the live re-tune of the gossip period:
// a node started with an effectively-off ticker (an hour) begins cycling
// promptly once the interval is lowered, without waiting out the old timer.
func TestSetGossipIntervalRearms(t *testing.T) {
	net := transport.NewInMemNetwork()
	epA, err := net.Endpoint("ra")
	if err != nil {
		t.Fatal(err)
	}
	epB, err := net.Endpoint("rb")
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(testNodeConfig(0), epA, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := New(testNodeConfig(1), epB, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := a.Join(b.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	if err := a.SetGossipInterval(0); err == nil {
		t.Fatal("SetGossipInterval(0) accepted")
	}
	time.Sleep(30 * time.Millisecond)
	base := a.TransportStats().FramesSent // join traffic only; ticker is off
	if err := a.SetGossipInterval(5 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got := a.GossipInterval(); got != 5*time.Millisecond {
		t.Fatalf("GossipInterval() = %v", got)
	}
	deadline := time.After(5 * time.Second)
	for a.TransportStats().FramesSent <= base {
		select {
		case <-deadline:
			t.Fatal("no gossip traffic after interval re-arm")
		case <-time.After(5 * time.Millisecond):
		}
	}
}
