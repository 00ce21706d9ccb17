package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ringcast/internal/ident"
	"ringcast/internal/node"
	"ringcast/internal/pubsub"
	"ringcast/internal/runner"
	"ringcast/internal/transport"
	"ringcast/internal/wire"
)

// liveSpec defines a live workload: a cluster of real pubsub.Peers in this
// process, talking over loopback TCP, driven by one publishing goroutine.
type liveSpec struct {
	peers     int
	topics    []string
	bodyBytes int
	fanout    int
	gossip    time.Duration
	window    int     // closed loop: publishes in flight
	rate      float64 // open loop: publishes per second
}

var (
	smallSpec = liveSpec{peers: 32, topics: []string{"t0"}, bodyBytes: 64, fanout: 3,
		gossip: 100 * time.Millisecond, window: 64, rate: 200}
	bulkSpec = liveSpec{peers: 32, topics: []string{"t0", "t1"}, bodyBytes: 16 << 10, fanout: 3,
		gossip: 100 * time.Millisecond, window: 64, rate: 60}
)

const (
	// bodyHeader is the message index and the run nonce at the start of
	// every body; the rest is seeded filler the receiver verifies.
	bodyHeader = 16
	// capacityShare is the part of --seconds the closed loop gets; the
	// open loop gets the rest.
	capacityShare = 0.35
	// capWindow and openWindow cut the closed and open loops into windows;
	// each reported figure is the median over windows, so one stall (a GC
	// cycle, a busy neighbour) moves one window, not the run.
	capWindow  = 250 * time.Millisecond
	openWindow = 250 * time.Millisecond
	// warmup runs the closed loop unmeasured first, so every writer
	// connection the dissemination uses is dialled before timing starts.
	warmup = 500 * time.Millisecond
	// setupTimeout bounds ring formation; settleTimeout bounds the wait
	// for a phase's last deliveries.
	setupTimeout  = 60 * time.Second
	settleTimeout = 5 * time.Second
	// stallTimeout ends a closed loop whose window stopped completing.
	stallTimeout = 2 * time.Second
	// maxLateMS marks an open-loop run invalid: a generator this late
	// could not offer the load the workload defines.
	maxLateMS = 50.0
	// liveSetupReps is how many clusters an untraced run builds, in groups
	// of liveSetupGroup; setup_s is the median of the groups' mean build
	// times. Ring formation takes three to five gossip cycles, so one
	// build's time falls on one of a few steps a cycle apart, and which
	// step is likeliest drifts with the host's speed. The median of single
	// builds jumps a whole cycle when that drift crosses one half; the
	// median of group means moves in smaller steps.
	liveSetupReps  = 12
	liveSetupGroup = 3
)

// cluster is one running live system plus its delivery ledger.
type cluster struct {
	spec   liveSpec
	peers  []*pubsub.Peer
	traced []*tracedTransport // nil unless the cluster is traced
	tr     *tracer
	led    *ledger
	// redelivered is the re-deliveries the phase audits have counted.
	redelivered int64
	epoch       time.Time
	nonce       uint64
	tmpl        []byte       // body template: header zero, filler from the seed
	ids         [][]ident.ID // [peer][topic] node ID
	pubs        [][]uint64   // [peer][topic] publishes so far
}

func runLiveSmall(o options) (*result, error) { return runLive(o, smallSpec) }
func runLiveBulk(o options) (*result, error)  { return runLive(o, bulkSpec) }

// newCluster starts the peers, subscribes each to every topic through
// peer 0 (the paper's star bootstrap) and waits until every topic's ring
// is globally consistent.
func newCluster(spec liveSpec, seed int64, tr *tracer) (*cluster, error) {
	rng := rand.New(rand.NewSource(runner.UnitSeed(seed, 10)))
	c := &cluster{spec: spec, tr: tr, epoch: time.Now(), nonce: rng.Uint64(), tmpl: make([]byte, spec.bodyBytes)}
	rng.Read(c.tmpl[bodyHeader:])
	c.led = newLedger(spec.peers, spec.window)
	for i := 0; i < spec.peers; i++ {
		tcp, err := transport.ListenTCP("127.0.0.1:0")
		if err != nil {
			c.close()
			return nil, err
		}
		var base transport.Transport = tcp
		cfg := node.DefaultConfig()
		cfg.Fanout = spec.fanout
		cfg.GossipInterval = spec.gossip
		cfg.Seed = runner.UnitSeed(seed, 11, int64(i)) | 1
		if tr != nil {
			tt := &tracedTransport{base: tcp, peer: i, tr: tr}
			c.traced = append(c.traced, tt)
			base = tt
			cfg.Selector = tracedSelector{peer: i, tr: tr}
		}
		p, err := pubsub.NewPeer(base, cfg)
		if err != nil {
			tcp.Close()
			c.close()
			return nil, err
		}
		c.peers = append(c.peers, p)
	}
	for i, p := range c.peers {
		var boot []string
		if i > 0 {
			boot = []string{c.peers[0].Addr()}
		}
		sub := i
		for ti, topic := range spec.topics {
			ti := ti
			if err := p.Subscribe(topic, boot, func(ev pubsub.Event) { c.onDeliver(sub, ti, ev) }); err != nil {
				c.close()
				return nil, fmt.Errorf("subscribe peer %d: %w", i, err)
			}
		}
	}
	for _, p := range c.peers {
		ids := make([]ident.ID, len(spec.topics))
		for ti, topic := range spec.topics {
			nd, _ := p.Node(topic)
			ids[ti] = nd.ID()
		}
		c.ids = append(c.ids, ids)
		c.pubs = append(c.pubs, make([]uint64, len(spec.topics)))
	}
	deadline := time.Now().Add(setupTimeout)
	for !c.ringsConsistent() {
		if time.Now().After(deadline) {
			c.close()
			return nil, errors.New("rings did not converge within the set-up timeout")
		}
		time.Sleep(5 * time.Millisecond)
	}
	return c, nil
}

// ringsConsistent reports whether, on every topic, each node's pred/succ
// are its neighbours on the sorted ID circle.
func (c *cluster) ringsConsistent() bool {
	for _, topic := range c.spec.topics {
		nodes := make([]*node.Node, len(c.peers))
		ids := make([]ident.ID, len(c.peers))
		for i, p := range c.peers {
			nd, ok := p.Node(topic)
			if !ok {
				return false
			}
			nodes[i], ids[i] = nd, nd.ID()
		}
		sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
		pos := make(map[ident.ID]int, len(ids))
		for i, id := range ids {
			pos[id] = i
		}
		n := len(ids)
		for _, nd := range nodes {
			pred, succ, ok := nd.RingNeighbors()
			at := pos[nd.ID()]
			if !ok || pred.Node != ids[(at-1+n)%n] || succ.Node != ids[(at+1)%n] {
				return false
			}
		}
	}
	return true
}

func (c *cluster) close() {
	for _, p := range c.peers {
		p.Close()
	}
}

func (c *cluster) now() int64 { return int64(time.Since(c.epoch)) }

// onDeliver is every peer's delivery callback: it checks the body against
// what was published and records the pair in the ledger.
func (c *cluster) onDeliver(sub, topic int, ev pubsub.Event) {
	at := c.now()
	s := c.tr.child(spanDeliver, sub, ev.Msg.ID, ident.Nil, ev.Msg.Hop)
	defer c.tr.end(sub, s)
	b := ev.Msg.Body
	if len(b) != len(c.tmpl) || binary.LittleEndian.Uint64(b[8:]) != c.nonce || !bytes.Equal(b[bodyHeader:], c.tmpl[bodyHeader:]) {
		c.led.stray.Add(1)
		return
	}
	idx := int64(binary.LittleEndian.Uint64(b))
	if c.topicOf(idx) != topic {
		c.led.stray.Add(1)
		return
	}
	c.led.deliver(idx, sub, at, ev.Msg.Hop)
}

// topicOf and originOf round-robin origins over peers, then topics.
func (c *cluster) topicOf(idx int64) int  { return int(idx/int64(c.spec.peers)) % len(c.spec.topics) }
func (c *cluster) originOf(idx int64) int { return int(idx % int64(c.spec.peers)) }

// publish registers and publishes the next message, due at sched.
func (c *cluster) publish(sched int64) error {
	idx, ok := c.led.add(sched)
	if !ok {
		return errors.New("ledger full")
	}
	body := append([]byte(nil), c.tmpl...)
	binary.LittleEndian.PutUint64(body, uint64(idx))
	binary.LittleEndian.PutUint64(body[8:], c.nonce)
	origin, topic := c.originOf(idx), c.topicOf(idx)
	// The node numbers its publishes 1, 2, ...; knowing the MsgID up front
	// lets the Publish span parent the Sends and the local delivery.
	want := wire.MsgID{Origin: c.ids[origin][topic], Seq: c.pubs[origin][topic] + 1}
	s := c.tr.open(spanPublish, origin, want, ident.Nil)
	id, err := c.peers[origin].Publish(c.spec.topics[topic], body)
	c.tr.close(origin, s, ident.Nil)
	if err != nil {
		return err
	}
	c.pubs[origin][topic]++
	if id != want {
		return fmt.Errorf("publish returned MsgID %v, the tracer expected %v", id, want)
	}
	return nil
}

// phase is one measured stretch of publishing and what it left behind.
type phase struct {
	from, to   int64         // ledger index range
	t0         time.Duration // phase start, since the cluster epoch
	elapsed    time.Duration // phase start to last publish
	completed  int64         // closed loop: messages complete before the deadline
	rates      []float64     // closed loop: completions per second, per window
	winFrom    []time.Time   // closed loop: each window's start and end
	winTo      []time.Time
	cpuMarks   []time.Duration // open loop: process CPU time at each window start
	wallMarks  []time.Time     // open loop: wall time at each window start
	start      int64           // open loop: first publish's due time
	pubErrs    int64           // publishes the program refused
	lateMS     []float64       // open loop: generator lateness per publish
	before     counters
	after      counters
	mem0, mem1 runtime.MemStats
}

// closedLoop keeps spec.window publishes in flight for d: a publish
// completes when every subscriber has delivered it.
func (c *cluster) closedLoop(d time.Duration) phase {
	for len(c.led.done) > 0 {
		<-c.led.done
	}
	ph := c.begin()
	deadline := time.Now().Add(d)
	inflight := 0
	winStart, winDone := time.Now(), 0
	for time.Now().Before(deadline) {
		for inflight < c.spec.window {
			if err := c.publish(c.now()); err != nil {
				ph.pubErrs++
			}
			inflight++
		}
		select {
		case <-c.led.done:
			inflight--
			ph.completed++
			winDone++
			if now := time.Now(); now.Sub(winStart) >= capWindow {
				ph.rates = append(ph.rates, float64(winDone)/now.Sub(winStart).Seconds())
				ph.winFrom, ph.winTo = append(ph.winFrom, winStart), append(ph.winTo, now)
				winStart, winDone = now, 0
			}
		case <-time.After(stallTimeout):
			deadline = time.Now() // the window is stuck: misses will show
		}
	}
	c.end(&ph)
	return ph
}

// openLoop publishes at spec.rate for d, each message due at a fixed
// schedule whatever the system's state; latency counts from the schedule.
func (c *cluster) openLoop(d time.Duration) phase {
	ph := c.begin()
	n := int(c.spec.rate * d.Seconds())
	perWindow := int(c.spec.rate * openWindow.Seconds())
	ph.start = c.now() + int64(time.Millisecond)
	for k := 0; k < n; k++ {
		due := ph.start + int64(float64(k)*1e9/c.spec.rate)
		if wait := due - c.now(); wait > 0 {
			time.Sleep(time.Duration(wait))
		}
		if k%perWindow == 0 {
			ph.cpuMarks, ph.wallMarks = append(ph.cpuMarks, cpuTime()), append(ph.wallMarks, time.Now())
		}
		ph.lateMS = append(ph.lateMS, float64(c.now()-due)/1e6)
		if err := c.publish(due); err != nil {
			ph.pubErrs++
		}
	}
	c.end(&ph)
	return ph
}

func (c *cluster) begin() phase {
	ph := phase{from: c.led.n.Load()}
	runtime.ReadMemStats(&ph.mem0)
	ph.before = c.counters()
	ph.t0 = time.Duration(c.now())
	return ph
}

// end waits until the phase's messages are complete (or the settle
// timeout passes), then closes the phase's books.
func (c *cluster) end(ph *phase) {
	ph.to = c.led.n.Load()
	pubEnd := time.Duration(c.now())
	deadline := time.Now().Add(settleTimeout)
	for c.led.complete(ph.from, ph.to) < ph.to-ph.from && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	ph.after = c.counters()
	runtime.ReadMemStats(&ph.mem1)
	ph.elapsed = pubEnd - ph.t0
}

// counters sums the transport and node counters over every peer.
type counters struct {
	t     transport.Stats
	n     node.Stats
	stray int64
}

func (c *cluster) counters() counters {
	var s counters
	for _, p := range c.peers {
		ts := p.TransportStats()
		s.t.FramesSent += ts.FramesSent
		s.t.BytesSent += ts.BytesSent
		s.t.QueueDepth += ts.QueueDepth
		s.t.Writers += ts.Writers
		s.t.Drops += ts.Drops
		s.t.Rejects += ts.Rejects
		s.t.DialFailures += ts.DialFailures
		s.stray += p.StrayFrames()
		for _, topic := range c.spec.topics {
			if nd, ok := p.Node(topic); ok {
				ns := nd.Stats()
				s.n.Delivered += ns.Delivered
				s.n.Duplicates += ns.Duplicates
				s.n.Forwarded += ns.Forwarded
				s.n.SendErrors += ns.SendErrors
				s.n.QueueFull += ns.QueueFull
			}
		}
	}
	return s
}

// openStats is what an open-loop phase measured. Latency and CPU figures
// are medians over the phase's windows.
type openStats struct {
	lat        summary // delivery latency, ms, over all delivered pairs
	p50, p95   float64 // medians over windows of each window's percentile
	p99        float64
	rawP50     float64 // p50 and cpuPerDel before scaling to the reference host speed
	rawCPU     float64
	windows    int
	delivered  int64
	cpuPerDel  float64 // us
	framesPer  float64
	bytesPer   float64
	dupRatio   float64
	fwdPer     float64
	hopsMean   float64 // mean over messages of the last delivery's hop
	msPerHop   float64
	late       summary
	allocsPer  float64
	allocBPer  float64
	gcs        uint32
	framesRate float64 // frames per ms
}

// openStats scales each window's times by the speedometer's mean speed
// over it (calib.go); with a nil speedometer they stay raw.
func (c *cluster) openStats(ph phase, sp *speedometer) openStats {
	var s openStats
	var lat []float64
	var sumMS, sumHop float64
	maxHop := make(map[int64]uint16)
	byWindow := make([][]float64, len(ph.cpuMarks))
	c.led.each(ph.from, ph.to, func(idx int64, _ int, n uint32, at int64, hop uint16) {
		if n == 0 {
			return
		}
		sched := c.led.sched(idx)
		ms := float64(at-sched) / 1e6
		lat = append(lat, ms)
		if w := int((sched - ph.start) / int64(openWindow)); w < len(byWindow) {
			byWindow[w] = append(byWindow[w], ms)
		}
		if hop > 0 {
			sumMS += ms
			sumHop += float64(hop)
		}
		if hop > maxHop[idx] {
			maxHop[idx] = hop
		}
	})
	s.delivered = int64(len(lat))
	s.lat = summarize(lat)
	d := float64(s.delivered)
	// Whole windows only: the last, partial one and its CPU are dropped.
	var p50s, p95s, p99s, cpus, rawP50s, rawCPUs []float64
	for w := 0; w+1 < len(ph.cpuMarks); w++ {
		ws := summarize(byWindow[w])
		cpu := float64((ph.cpuMarks[w+1] - ph.cpuMarks[w]).Nanoseconds()) / 1e3 / float64(len(byWindow[w]))
		v := sp.speed(ph.wallMarks[w], ph.wallMarks[w+1])
		rawP50s, rawCPUs = append(rawP50s, ws.P50), append(rawCPUs, cpu)
		p50s, p95s, p99s = append(p50s, ws.P50*v), append(p95s, ws.P95*v), append(p99s, ws.P99*v)
		cpus = append(cpus, cpu*v)
	}
	s.p50, s.p95, s.p99 = median(p50s), median(p95s), median(p99s)
	s.cpuPerDel, s.windows = median(cpus), len(p50s)
	s.rawP50, s.rawCPU = median(rawP50s), median(rawCPUs)
	s.framesPer = float64(ph.after.t.FramesSent-ph.before.t.FramesSent) / d
	s.bytesPer = float64(ph.after.t.BytesSent-ph.before.t.BytesSent) / d
	dup := float64(ph.after.n.Duplicates - ph.before.n.Duplicates)
	s.dupRatio = dup / (float64(ph.after.n.Delivered-ph.before.n.Delivered) + dup)
	s.fwdPer = float64(ph.after.n.Forwarded-ph.before.n.Forwarded) / d
	var hops float64
	for _, h := range maxHop {
		hops += float64(h)
	}
	s.hopsMean = hops / float64(len(maxHop))
	s.msPerHop = sumMS / sumHop
	s.late = summarize(append([]float64(nil), ph.lateMS...))
	s.allocsPer = float64(ph.mem1.Mallocs-ph.mem0.Mallocs) / d
	s.allocBPer = float64(ph.mem1.TotalAlloc-ph.mem0.TotalAlloc) / d
	s.gcs = ph.mem1.NumGC - ph.mem0.NumGC
	s.framesRate = float64(ph.after.t.FramesSent-ph.before.t.FramesSent) / (ph.elapsed.Seconds() * 1e3)
	return s
}

// account adds a phase's ledger verdict to the result: every expected
// pair delivered exactly once, no publish refused.
func (c *cluster) account(r *result, name string, ph phase) {
	a := c.led.audit(ph.from, ph.to)
	c.redelivered += a.Redelivered
	r.attempted += a.Expected
	r.failed += a.Missing + a.Redelivered + ph.pubErrs
	miss := float64(a.Missing+a.Redelivered+ph.pubErrs) / float64(a.Expected)
	r.note("%s: miss ratio %.6g (expected pairs %d, missing %d, re-delivered %d, publish errors %d)",
		name, miss, a.Expected, a.Missing, a.Redelivered, ph.pubErrs)
	r.check(a.Missing == 0, "%s: %d (subscriber, message) pairs never delivered", name, a.Missing)
	r.check(a.Redelivered == 0, "%s: %d pairs delivered more than once", name, a.Redelivered)
	r.check(ph.pubErrs == 0, "%s: %d publishes refused", name, ph.pubErrs)
}

// finalAudit audits every message of the run again once the copies still
// in flight have settled. A phase is audited as soon as each of its pairs
// is delivered once, so a duplicate still queued then, or one that arrives
// during a later phase (a late re-delivery past the dedup window), is
// seen only here; each counts as a failed operation.
func (c *cluster) finalAudit(r *result) {
	seen := func() uint64 { s := c.counters(); return s.n.Delivered + s.n.Duplicates }
	deadline := time.Now().Add(settleTimeout)
	for last, quiet := seen(), 0; quiet < 5 && time.Now().Before(deadline); {
		time.Sleep(20 * time.Millisecond)
		if n := seen(); n == last {
			quiet++
		} else {
			last, quiet = n, 0
		}
	}
	n := c.led.n.Load()
	late := c.led.audit(0, n).Redelivered - c.redelivered
	r.failed += late
	r.note("final audit of %d messages after settling: %d late re-deliveries", n, late)
	r.check(late == 0, "%d pairs re-delivered after their phase was audited", late)
}

func runLive(o options, spec liveSpec) (*result, error) {
	r := newResult()
	if o.trace {
		return traceLive(o, spec, r)
	}
	var setups []float64
	var c *cluster
	for i := 0; i < liveSetupReps; i++ {
		if c != nil {
			c.close()
		}
		t0 := time.Now()
		var err error
		if c, err = newCluster(spec, o.seed, nil); err != nil {
			return nil, err
		}
		setups = append(setups, since(t0))
		r.note("setup %d: %.3f s until every ring was globally consistent", i+1, setups[i])
	}
	defer c.close()
	var groups []float64
	for g := 0; g+liveSetupGroup <= len(setups); g += liveSetupGroup {
		groups = append(groups, summarize(append([]float64(nil), setups[g:g+liveSetupGroup]...)).Mean)
	}
	r.setN("setup_s", median(groups), len(setups))

	sp := startSpeedometer()
	defer sp.stop()
	wu := c.closedLoop(warmup)
	c.account(r, "warm-up", wu)
	capPh := c.closedLoop(time.Duration(o.seconds * capacityShare * float64(time.Second)))
	c.account(r, "capacity", capPh)
	rates := make([]float64, len(capPh.rates))
	for i, rate := range capPh.rates {
		rates[i] = rate / sp.speed(capPh.winFrom[i], capPh.winTo[i])
	}
	r.setN("throughput_per_s", median(rates), int(capPh.completed))
	r.extra("capacity_pubs_per_s", median(rates), "1/s", int(capPh.completed))
	r.extra("raw.throughput_per_s", median(capPh.rates), "1/s", int(capPh.completed))
	r.note("capacity: median over %d windows of %v (closed loop, %d in flight); whole phase %.6g publishes/s",
		len(capPh.rates), capWindow, spec.window, float64(capPh.completed)/capPh.elapsed.Seconds())

	open := c.openLoop(time.Duration(o.seconds * (1 - capacityShare) * float64(time.Second)))
	c.account(r, "open-loop", open)
	c.finalAudit(r)
	s := c.openStats(open, sp)
	sp.stop()
	r.setN("p50_ms", s.p50, s.lat.N)
	r.set("cpu_us_per_delivery", s.cpuPerDel)
	r.set("msgs_per_delivery", s.framesPer)
	r.extra("p95_ms", s.p95, "ms", s.lat.N)
	r.extra("p99_ms", s.p99, "ms", s.lat.N)
	r.extra(fmt.Sprintf("p%.4g_ms", 100*s.lat.TailQ), s.lat.Tail, "ms", s.lat.N)
	r.extra("bytes_per_delivery", s.bytesPer, "B", s.lat.N)
	r.extra("raw.p50_ms", s.rawP50, "ms", s.lat.N)
	r.extra("raw.cpu_us_per_delivery", s.rawCPU, "us", 0)
	r.extra("miss_ratio", float64(r.failed)/float64(r.attempted), "ratio", int(r.attempted))
	r.note("open loop at %g publishes/s: p50, p95, p99 and CPU are medians over %d windows of %v; pooled p50 %.4g ms, p95 %.4g ms, p99 %.4g ms; p%.4g is the highest percentile with %d samples beyond it",
		spec.rate, s.windows, openWindow, s.lat.P50, s.lat.P95, s.lat.P99, 100*s.lat.TailQ, tailMargin)
	noteSpeed(r, "capacity and open loop, background", sp.all())
	r.note("duplicate ratio %.4f, hops %.3f (%.3f x log2 N)", s.dupRatio, s.hopsMean, s.hopsMean/math.Log2(float64(spec.peers)))
	r.note("generator lateness: p99 %.3g ms, max %.3g ms over %d publishes", s.late.P99, s.late.Max, s.late.N)
	r.check(s.late.P99 <= maxLateMS, "generator ran %.3g ms late at p99 (limit %g): the offered load was not met", s.late.P99, maxLateMS)
	r.check(c.led.stray.Load() == 0, "%d deliveries of unknown or corrupted messages", c.led.stray.Load())
	return r, nil
}

// traceLive is the traced run: one cluster with wrappers installed, an
// untraced open-loop half (wrappers pass through) and a traced half. The
// halves' frame and duplicate counts must agree: tracing may slow the
// program but must not change what it does.
func traceLive(o options, spec liveSpec, r *result) (*result, error) {
	tr := newTracer(spec.peers)
	c, err := newCluster(spec, o.seed, tr)
	if err != nil {
		return nil, err
	}
	defer c.close()
	wireMicro(r, c)

	half := time.Duration(o.seconds / 2 * float64(time.Second))
	c.account(r, "warm-up", c.closedLoop(warmup))
	plainPh := c.openLoop(half)
	c.account(r, "untraced half", plainPh)
	plain := c.openStats(plainPh, nil)

	tr.on.Store(true)
	stopSampler := c.sampleQueues()
	tracedPh := c.openLoop(half)
	depths := stopSampler()
	spans := tr.finish()
	c.account(r, "traced half", tracedPh)
	traced := c.openStats(tracedPh, nil)
	end := c.counters()

	for _, m := range []struct {
		name      string
		off, on   float64
		tolerance float64
	}{
		{"transport.frames_per_delivery", plain.framesPer, traced.framesPer, 0.05},
		{"node.duplicate_ratio", plain.dupRatio, traced.dupRatio, 0.05},
	} {
		r.note("%s: untraced %.5g, traced %.5g", m.name, m.off, m.on)
		r.check(math.Abs(m.on-m.off) <= m.tolerance*m.off, "%s differs between the untraced (%.5g) and traced (%.5g) halves", m.name, m.off, m.on)
	}
	c.finalAudit(r)
	r.check(c.led.stray.Load() == 0, "%d deliveries of unknown or corrupted messages", c.led.stray.Load())

	dur, self := selfTimes(spans)
	us := func(name string, src map[string][]float64) summary {
		xs := make([]float64, len(src[name]))
		for i, v := range src[name] {
			xs[i] = v / 1e3
		}
		return summarize(xs)
	}
	send, handle, handleSelf, pub := us(spanSend, dur), us(spanHandle, dur), us(spanHandle, self), us(spanPublish, dur)
	r.setN("transport.send_us_p50", send.P50, send.N)
	r.setN("transport.send_us_p99", send.P99, send.N)
	r.setN("transport.handle_us_p50", handle.P50, handle.N)
	r.setN("transport.handle_us_p99", handle.P99, handle.N)
	r.setN("transport.handle_self_us_p50", handleSelf.P50, handleSelf.N)
	r.setN("transport.handle_self_us_p99", handleSelf.P99, handleSelf.N)
	r.setN("pubsub.publish_us_p50", pub.P50, pub.N)
	r.setN("pubsub.publish_us_p99", pub.P99, pub.N)
	sel := us(spanSelect, dur)
	r.setN("core.select_ns", sel.P50*1e3, sel.N)
	ds := summarize(depths)
	r.setN("transport.queue_depth_mean", ds.Mean, ds.N)
	r.set("transport.queue_depth_max", ds.Max)
	r.set("transport.queue_wait_ms", ds.Mean/traced.framesRate)
	r.set("transport.frames_per_delivery", traced.framesPer)
	r.set("transport.bytes_per_delivery", traced.bytesPer)
	r.set("transport.bytes_per_frame", traced.bytesPer/traced.framesPer)
	var gossipB, upkeepB int64
	for _, t := range c.traced {
		gossipB += t.gossipBytes.Load()
		upkeepB += t.upkeepBytes.Load()
	}
	r.set("transport.upkeep_bytes_share", float64(upkeepB)/float64(gossipB+upkeepB))
	r.set("transport.drops", float64(end.t.Drops))
	r.set("transport.rejects", float64(end.t.Rejects))
	r.set("transport.dial_failures", float64(end.t.DialFailures))
	r.set("transport.writers", float64(end.t.Writers))
	r.set("transport.stray_frames", float64(end.stray))
	r.set("node.duplicate_ratio", traced.dupRatio)
	r.set("node.forwarded_per_delivery", traced.fwdPer)
	r.set("node.queue_full", float64(end.n.QueueFull))
	r.set("node.send_errors", float64(end.n.SendErrors))
	r.set("node.hops_mean", plain.hopsMean)
	r.set("node.hops_per_log2n", plain.hopsMean/math.Log2(float64(spec.peers)))
	r.set("node.ms_per_hop", plain.msPerHop)
	r.set("go.allocs_per_delivery", plain.allocsPer)
	r.set("go.alloc_bytes_per_delivery", plain.allocBPer)
	r.set("go.gc_cycles", float64(plain.gcs))
	r.setN("bench.gen_late_p99_ms", plain.late.P99, plain.late.N)
	r.set("bench.gen_late_max_ms", plain.late.Max)
	r.set("trace.overhead_p50_ms", traced.p50-plain.p50)
	r.set("trace.overhead_p99_ms", traced.p99-plain.p99)
	r.set("trace.overhead_cpu_us_per_delivery", traced.cpuPerDel-plain.cpuPerDel)
	r.set("trace.spans", float64(spanCount(spans)))
	path, err := writeSpans(o.outDir, fmt.Sprintf("%s-seed%d.tsv.gz", o.workload, o.seed), spans)
	if err != nil {
		return nil, err
	}
	r.note("spans written to %s", path)
	r.zero("core.select_pos_ns", "sim.cycle_ms", "sim.warmup_cycles", "cyclon.shuffle_us", "vicinity.merge_us",
		"sim.build_converged_s", "dissem.run_us.ringcast", "dissem.run_us.randcast", "dissem.run_us.dflood",
		"dissem.redundant_ratio", "dissem.snapshot_ms", "experiment.parallel_efficiency", "go.allocs_per_dissem")
	return r, nil
}

// sampleQueues samples the summed outbound queue depth every millisecond
// until the returned stop function is called; stop returns the samples.
func (c *cluster) sampleQueues() (stop func() []float64) {
	var samples []float64
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				var d int64
				for _, p := range c.peers {
					d += p.TransportStats().QueueDepth
				}
				samples = append(samples, float64(d))
			}
		}
	}()
	var once sync.Once
	return func() []float64 {
		once.Do(func() { close(done); wg.Wait() })
		return samples
	}
}

// wireMicro times Marshal and Unmarshal of the workload's own gossip frame.
func wireMicro(r *result, c *cluster) {
	nd, _ := c.peers[0].Node(c.spec.topics[0])
	body := append([]byte(nil), c.tmpl...)
	f := &wire.Frame{Kind: wire.KindGossip, From: nd.ID(), FromAddr: c.peers[0].Addr(), Topic: c.spec.topics[0],
		Msg: &wire.Message{ID: wire.MsgID{Origin: nd.ID(), Seq: 1}, Hop: 1, Body: body}}
	buf, err := wire.Marshal(f)
	if err != nil {
		r.check(false, "marshal the workload frame: %v", err)
		return
	}
	r.set("wire.frame_bytes", float64(wire.EncodedSize(f)))
	iters := 2_000_000 / (len(buf) + 100)
	var sink atomic.Int64
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		b, _ := wire.Marshal(f)
		sink.Add(int64(len(b)))
	}
	r.setN("wire.marshal_ns", float64(time.Since(t0).Nanoseconds())/float64(iters), iters)
	t0 = time.Now()
	for i := 0; i < iters; i++ {
		g, _ := wire.Unmarshal(buf)
		sink.Add(int64(g.Kind))
	}
	r.setN("wire.unmarshal_ns", float64(time.Since(t0).Nanoseconds())/float64(iters), iters)
	r.set("wire.marshal_allocs", testing.AllocsPerRun(100, func() { _, _ = wire.Marshal(f) }))
	r.set("wire.unmarshal_allocs", testing.AllocsPerRun(100, func() { _, _ = wire.Unmarshal(buf) }))
}
