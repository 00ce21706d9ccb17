// Package dissem executes message disseminations over a frozen overlay
// snapshot, following the paper's discrete dissemination model (Section 7):
// the generation of a message is hop 0; at hop h+1 the message reaches the
// gossip targets selected by every node first notified at hop h; a node
// receiving a duplicate ignores it.
//
// The overlay is a snapshot because the paper freezes gossip before
// disseminating (Section 7.1 shows ongoing gossip does not change the
// macroscopic behaviour in static networks, and Section 7.2 deliberately
// disables it after catastrophic failures to study the worst case).
//
//ringcast:deterministic
package dissem

import (
	"fmt"
	"math/rand"

	"ringcast/internal/core"
	"ringcast/internal/graph"
	"ringcast/internal/ident"
	"ringcast/internal/metrics"
	"ringcast/internal/runner"
	"ringcast/internal/sim"
)

// Overlay is an immutable-topology snapshot of a network: every node's
// outgoing links plus liveness flags (liveness is mutable so that
// catastrophic failures can be applied to a shared snapshot cheaply).
type Overlay struct {
	// ids holds per-node ident.IDs. Overlays built FromArena carry none
	// (ids is nil): at ten million nodes the ID slice plus the origin index
	// cost hundreds of megabytes the position-based scale path never reads.
	ids []ident.ID
	// links holds the ID-level link sets (nil for overlays built
	// FromArena); dissemination reads only the resolved arena.
	links []core.Links
	// arena holds all links resolved to dense positions in one flat int32
	// buffer with per-node offsets (core.PosArena), computed once at
	// Snapshot/FromLinks time so the dissemination hot path never consults
	// the ID index and carries no per-node slice headers. Shared by clones:
	// topology is immutable.
	arena *core.PosArena
	alive []bool
	// live caches the positions of live nodes in ascending order. It is
	// rebuilt eagerly at every liveness change (construction, KillFraction,
	// Clone) — all single-threaded setup points — so the parallel sweep
	// phase only ever reads it: RandomAliveOrigin and AliveCount are O(1)
	// allocation-free on the per-unit hot path.
	live  []int32
	index map[ident.ID]int
}

// rebuildLive recomputes the live-position cache from the alive flags.
func (o *Overlay) rebuildLive() {
	o.live = o.live[:0]
	for i, a := range o.alive {
		if a {
			o.live = append(o.live, int32(i))
		}
	}
}

// arenaShardNodes is the fixed shard granularity of parallel arena
// construction: shard boundaries depend only on N, never on the worker
// count, which is one half of why the built arena is bit-identical at any
// parallelism (the other half is the sequential placeholder patch pass).
const arenaShardNodes = 4096

// unresolvedSlot marks an arena slot whose link ID was absent from the
// snapshot index during the parallel fill; the sequential patch pass
// replaces it with a deterministic per-ID placeholder.
const unresolvedSlot int32 = -1 << 31

// pendingSlot records one arena slot awaiting a dangling-link placeholder.
type pendingSlot struct {
	slot int
	id   ident.ID
}

// resolveLinks builds o.arena from o.links and o.index: all nodes' resolved
// links in one flat []int32 arena with per-node offsets (core.PosArena).
// Every node position fits in int32 (populations beyond 2^31 nodes are out
// of scope). The fill is fanned across the worker pool in fixed-size node
// shards — each shard writes a disjoint arena region, so no synchronization
// is needed — and links pointing at IDs absent from the snapshot are then
// patched sequentially in arena order: distinct unknown IDs get distinct
// placeholders (-2, -3, ...) numbered by first occurrence in node order,
// exactly the numbering the sequential builder always produced, so arenas
// are bit-identical at any parallelism.
func (o *Overlay) resolveLinks(parallelism int) {
	n := len(o.links)
	rLens := make([]int, n)
	dLens := make([]int, n)
	for i, l := range o.links {
		rLens[i] = len(l.R)
		dLens[i] = len(l.D)
	}
	arena := core.NewPosArena(rLens, dLens)
	shards := (n + arenaShardNodes - 1) / arenaShardNodes
	pending := make([][]pendingSlot, shards)
	// The per-shard closure only reads o.index and o.links and writes its
	// own arena region and pending list, so Map's determinism contract
	// holds trivially; errors are impossible.
	_ = runner.Map(parallelism, shards, nil, func(s int) error {
		lo := s * arenaShardNodes
		hi := lo + arenaShardNodes
		if hi > n {
			hi = n
		}
		var pend []pendingSlot
		for i := lo; i < hi; i++ {
			base := arena.SlotBase(i)
			r := arena.RSlot(i)
			for k, id := range o.links[i].R {
				r[k] = o.resolveOne(id, base+k, &pend)
			}
			d := arena.DSlot(i)
			for k, id := range o.links[i].D {
				d[k] = o.resolveOne(id, base+len(r)+k, &pend)
			}
		}
		pending[s] = pend
		return nil
	})
	// Sequential patch pass: shards ascend in node order and each shard's
	// pending list is in slot order, so first-occurrence numbering is a pure
	// function of the links — independent of how many workers filled.
	var unknown map[ident.ID]int32
	for _, pend := range pending {
		for _, p := range pend {
			ph, ok := unknown[p.id]
			if !ok {
				if unknown == nil {
					unknown = make(map[ident.ID]int32)
				}
				ph = int32(-2 - len(unknown))
				unknown[p.id] = ph
			}
			arena.Patch(p.slot, ph)
		}
	}
	o.arena = arena
}

// resolveOne maps one link ID to its arena value: the dense position when
// the ID is in the snapshot, NilPos for nil links, and the unresolved
// sentinel (recorded in pend for the sequential patch pass) for dangling
// links, so distinct unknown IDs end up with distinct placeholders and
// selection dedups them exactly as the ID path would.
func (o *Overlay) resolveOne(id ident.ID, slot int, pend *[]pendingSlot) int32 {
	if id.IsNil() {
		return core.NilPos
	}
	if i, ok := o.index[id]; ok {
		return int32(i)
	}
	*pend = append(*pend, pendingSlot{slot: slot, id: id})
	return unresolvedSlot
}

// Snapshot captures the current overlay of a simulated network: r-links are
// each node's CYCLON view, d-links its VICINITY-derived ring neighbours.
// Dead nodes are captured too (their links no longer matter, but links
// pointing *at* them must keep dangling, as in the paper's no-self-healing
// failure experiments).
func Snapshot(nw *sim.Network) *Overlay {
	return SnapshotParallel(nw, 0)
}

// SnapshotParallel is Snapshot with an explicit worker count for the arena
// construction (0 = one worker per CPU, 1 = the reference sequential build).
// The built overlay is bit-identical at any parallelism; the knob exists for
// callers that must bound snapshot-time goroutines and for the determinism
// property tests.
func SnapshotParallel(nw *sim.Network, parallelism int) *Overlay {
	nodes := nw.Nodes()
	o := &Overlay{
		ids:   make([]ident.ID, len(nodes)),
		links: make([]core.Links, len(nodes)),
		alive: make([]bool, len(nodes)),
		index: make(map[ident.ID]int, len(nodes)),
	}
	for i, nd := range nodes {
		o.ids[i] = nd.ID
		o.alive[i] = nd.Alive
		o.index[nd.ID] = i
		l := core.Links{R: nd.Cyc.View().IDs()}
		if nd.Vic != nil {
			if pred, succ, ok := nd.Vic.RingNeighbors(); ok {
				l.D = []ident.ID{pred.Node, succ.Node}
			}
		}
		// Extra rings (Section 8): translate per-ring neighbour IDs back to
		// primary node IDs.
		for r, vic := range nd.ExtraVics {
			pred, succ, ok := vic.RingNeighbors()
			if !ok {
				continue
			}
			if p, ok := nw.ResolveRingID(r+1, pred.Node); ok {
				l.D = append(l.D, p)
			}
			if s, ok := nw.ResolveRingID(r+1, succ.Node); ok {
				l.D = append(l.D, s)
			}
		}
		o.links[i] = l
	}
	o.resolveLinks(parallelism)
	o.rebuildLive()
	return o
}

// FromLinks builds an overlay directly from per-node links — used for the
// static Section 3 baselines and idealized-topology ablations. ids[i] must
// be unique and non-nil.
func FromLinks(ids []ident.ID, links []core.Links) (*Overlay, error) {
	return FromLinksParallel(ids, links, 0)
}

// FromLinksParallel is FromLinks with an explicit worker count for the
// arena construction, under the same bit-identical contract as
// SnapshotParallel.
func FromLinksParallel(ids []ident.ID, links []core.Links, parallelism int) (*Overlay, error) {
	if len(ids) != len(links) {
		return nil, fmt.Errorf("dissem: %d ids but %d link sets", len(ids), len(links))
	}
	o := &Overlay{
		ids:   append([]ident.ID(nil), ids...),
		links: append([]core.Links(nil), links...),
		alive: make([]bool, len(ids)),
		index: make(map[ident.ID]int, len(ids)),
	}
	for i, id := range ids {
		if id.IsNil() {
			return nil, fmt.Errorf("dissem: node %d has nil ID", i)
		}
		if _, dup := o.index[id]; dup {
			return nil, fmt.Errorf("dissem: duplicate ID %v", id)
		}
		o.index[id] = i
		o.alive[i] = true
	}
	o.resolveLinks(parallelism)
	o.rebuildLive()
	return o, nil
}

// FromArena builds an overlay directly from a resolved position arena,
// with no ID layer at all: nodes are known only by their dense positions.
// This is the scale-path constructor — checkpointed arenas and the compact
// bootstrap engine both speak positions, and materializing ten million
// ident.IDs plus the origin index would cost hundreds of megabytes that
// position-based runs (RunScratchPos) never read. All nodes start alive.
// ID-keyed entry points (RunScratch, RandomAliveOrigin, Pos) refuse to run
// on such an overlay; everything position-based works unchanged.
func FromArena(arena *core.PosArena) *Overlay {
	o := &Overlay{
		arena: arena,
		alive: make([]bool, arena.N()),
	}
	for i := range o.alive {
		o.alive[i] = true
	}
	o.rebuildLive()
	return o
}

// N returns the number of nodes in the snapshot (dead included).
func (o *Overlay) N() int { return len(o.alive) }

// IDs returns the node IDs in snapshot order, or nil for an overlay built
// FromArena. Callers must not mutate.
func (o *Overlay) IDs() []ident.ID { return o.ids }

// Links returns node i's outgoing links. Callers must not mutate. An
// overlay built FromArena has no ID-level links and returns the zero value.
func (o *Overlay) Links(i int) core.Links {
	if o.links == nil {
		return core.Links{}
	}
	return o.links[i]
}

// AliveCount returns the number of live nodes.
func (o *Overlay) AliveCount() int { return len(o.live) }

// IsAlive reports node i's liveness.
func (o *Overlay) IsAlive(i int) bool { return o.alive[i] }

// Clone returns a deep copy sharing no mutable state, so failure scenarios
// can be applied independently to one warmed-up snapshot.
func (o *Overlay) Clone() *Overlay {
	c := &Overlay{
		ids:   o.ids,
		links: o.links,
		arena: o.arena,
		alive: append([]bool(nil), o.alive...),
		live:  append([]int32(nil), o.live...),
		index: o.index,
	}
	return c
}

// Pos returns the dense position of id in the snapshot, if present.
func (o *Overlay) Pos(id ident.ID) (int, bool) {
	i, ok := o.index[id]
	return i, ok
}

// PosLinks returns node i's outgoing links resolved to positions — a view
// into the overlay's arena. Callers must not mutate.
func (o *Overlay) PosLinks(i int) core.PosLinks { return o.arena.Links(i) }

// Arena returns the overlay's compact resolved-link arena. Callers must
// treat it as read-only; it is shared by every clone of the overlay.
func (o *Overlay) Arena() *core.PosArena { return o.arena }

// KillFraction marks a uniformly random fraction of live nodes dead —
// the catastrophic failure of Section 7.2 applied to the frozen overlay
// (gossip is not allowed to heal afterwards, the paper's deliberate
// worst case). It returns how many nodes were killed.
func (o *Overlay) KillFraction(frac float64, rng *rand.Rand) int {
	if frac <= 0 {
		return 0
	}
	live := make([]int, 0, len(o.alive))
	for i, a := range o.alive {
		if a {
			live = append(live, i)
		}
	}
	k := int(frac * float64(len(live)))
	rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
	for _, i := range live[:k] {
		o.alive[i] = false
	}
	o.rebuildLive()
	return k
}

// KillPositions marks the given snapshot positions dead; positions that
// are already dead (or out of range) are left unchanged and not counted.
// It is the deterministic counterpart of KillFraction, used by the
// scenario engine's correlated regional failures: the victim set is
// resolved at compile time (a ring arc or an ident prefix), so no
// randomness is consumed. It returns how many nodes transitioned from
// live to dead.
func (o *Overlay) KillPositions(pos []int32) int {
	killed := 0
	for _, p := range pos {
		if p >= 0 && int(p) < len(o.alive) && o.alive[p] {
			o.alive[p] = false
			killed++
		}
	}
	if killed > 0 {
		o.rebuildLive()
	}
	return killed
}

// RandomAliveOrigin picks a uniformly random live node to post a message
// from: one draw over the cached live positions (same ascending order the
// old per-call scan built, so draws are bit-identical), with no per-call
// allocation. It needs the ID layer; ID-less overlays use RandomAlivePos.
func (o *Overlay) RandomAliveOrigin(rng *rand.Rand) (ident.ID, error) {
	if o.ids == nil {
		return ident.Nil, fmt.Errorf("dissem: overlay carries no node IDs (built FromArena); use RandomAlivePos")
	}
	p, err := o.RandomAlivePos(rng)
	if err != nil {
		return ident.Nil, err
	}
	return o.ids[p], nil
}

// RandomAlivePos is RandomAliveOrigin for position-based runs: it returns
// the drawn live position itself, consuming exactly one rng draw (the same
// draw RandomAliveOrigin makes, so paired ID- and position-based sweeps
// pick identical origins from identical streams).
func (o *Overlay) RandomAlivePos(rng *rand.Rand) (int32, error) {
	if len(o.live) == 0 {
		return 0, fmt.Errorf("dissem: no live nodes")
	}
	return o.live[rng.Intn(len(o.live))], nil
}

// DGraph projects the overlay's d-links onto a graph.Directed for
// structural analysis (ring partition counting etc.). It reads the resolved
// arena — negative values (nil links and dangling placeholders) are exactly
// the links the old ID-index lookup skipped — so it works on compacted
// overlays too.
func (o *Overlay) DGraph() *graph.Directed {
	n := o.N()
	g := graph.NewDirected(n)
	for i := 0; i < n; i++ {
		for _, d := range o.arena.Links(i).D {
			if d >= 0 {
				g.AddEdge(i, int(d))
			}
		}
	}
	return g
}

// AliveSlice returns a copy of the liveness flags, aligned with IDs().
func (o *Overlay) AliveSlice() []bool { return append([]bool(nil), o.alive...) }

// delivery is one in-flight message copy. Both endpoints are dense overlay
// positions; from is always the forwarding node's position (the origin's
// own sends carry the origin's position — core.NilPos appears only as the
// selection-exclusion argument, never on a queued copy), so FaultModel
// implementations may index by from without guarding.
type delivery struct {
	to   int32
	from int32
}

// Bitmap is a packed per-node bit set: one bit per overlay position in
// []uint64 words, so the notified set of a million-node run costs 125 KB
// instead of a megabyte of bools and clears in a single memclr. Sized once
// per unit via Reuse and pooled with the run scratch.
type Bitmap []uint64

// Reuse returns a zeroed bitmap covering n bits, reusing b's storage when
// it is large enough.
func (b Bitmap) Reuse(n int) Bitmap {
	words := (n + 63) >> 6
	if cap(b) < words {
		return make(Bitmap, words)
	}
	b = b[:words]
	clear(b)
	return b
}

// Get reports whether bit i is set.
//
//ringcast:hotpath
func (b Bitmap) Get(i int32) bool { return b[uint32(i)>>6]&(1<<(uint32(i)&63)) != 0 }

// Set sets bit i.
//
//ringcast:hotpath
func (b Bitmap) Set(i int32) { b[uint32(i)>>6] |= 1 << (uint32(i) & 63) }

// Scratch holds the reusable buffers of the dissemination engine: the
// notified bitmap, the two frontier queues, the per-node target buffer and
// the selector's sampling pool. Reusing one Scratch across the runs of a
// sweep unit removes every per-hop and per-forward allocation; only the
// returned metrics are freshly allocated. A Scratch must not be shared
// between concurrent runs. The zero value is ready to use.
type Scratch struct {
	notified Bitmap
	frontier []delivery
	next     []delivery
	targets  []int32
	sel      core.PosScratch
}

// NewScratch returns an empty scratch; buffers grow on first use.
func NewScratch() *Scratch { return &Scratch{} }

// FaultModel injects scenario faults into a dissemination run. The engine
// calls HopStart at every hop boundary (0 before the origin forwards, then h
// before the arrivals of hop h are processed), consults Dead for
// scenario-killed nodes on every delivery, and consults Deliver for every
// message copy in flight (partitions and loss). Implementations must be
// deterministic given the run's rng: any randomness they consume (loss
// draws) comes from the same per-unit stream as target selection, so runs
// remain bit-identical at any parallelism. A FaultModel carries per-run
// state and must not be shared between concurrent runs; Begin resets it.
// internal/scenario compiles fault timelines into this interface.
type FaultModel interface {
	// Begin resets per-run state before a dissemination starts.
	Begin()
	// HopStart applies all timeline events scheduled at hop boundaries <= h.
	HopStart(h int)
	// Dead reports whether node i has been killed by a timeline event.
	// Overlay-level liveness is checked separately by the engine.
	Dead(i int32) bool
	// Deliver reports whether the in-flight copy from->to survives the
	// currently active partition and loss faults. A false return means the
	// copy is dropped and counted as Blocked.
	Deliver(from, to int32, rng *rand.Rand) bool
}

// Options tunes what a dissemination run records.
type Options struct {
	// SkipLoad omits the per-node sent/received arrays (O(N) memory per
	// run); large parameter sweeps that only need ratios should set it.
	SkipLoad bool
	// RecordMissed collects the IDs of live nodes that were never notified,
	// for the lifetime-vs-miss analysis of Figure 13.
	RecordMissed bool
	// Faults, when non-nil, injects scenario faults (partitions, loss,
	// correlated kills) into the run. Nil means the fail-free fast path with
	// exactly the pre-scenario randomness consumption.
	Faults FaultModel
}

// Run disseminates one message from origin over the overlay using the given
// selector and fanout, and returns the full measurement record. Messages
// sent to dead nodes are lost; dead nodes never forward. Run never mutates
// the overlay.
func Run(o *Overlay, origin ident.ID, sel core.Selector, fanout int, rng *rand.Rand) (*metrics.Dissemination, error) {
	return RunOpts(o, origin, sel, fanout, rng, Options{})
}

// RunOpts is Run with recording options.
func RunOpts(o *Overlay, origin ident.ID, sel core.Selector, fanout int, rng *rand.Rand, opts Options) (*metrics.Dissemination, error) {
	return RunScratch(o, origin, sel, fanout, rng, opts, nil)
}

// RunScratch is RunOpts with caller-managed scratch buffers: passing the
// same Scratch to every run of a sweep unit makes the engine allocation-free
// apart from the returned metrics. A nil scratch allocates a private one.
// It resolves the origin through the ID index; overlays built FromArena
// carry none and must use RunScratchPos.
func RunScratch(o *Overlay, origin ident.ID, sel core.Selector, fanout int, rng *rand.Rand, opts Options, sc *Scratch) (*metrics.Dissemination, error) {
	if o.ids == nil {
		return nil, fmt.Errorf("dissem: overlay carries no node IDs (built FromArena); use RunScratchPos")
	}
	oi, ok := o.index[origin]
	if !ok {
		return nil, fmt.Errorf("dissem: unknown origin %v", origin)
	}
	return RunScratchPos(o, int32(oi), sel, fanout, rng, opts, sc)
}

// RunScratchPos is RunScratch with the origin given as a dense overlay
// position — the scale-path entry point: no ID resolution, so it runs on
// ID-less FromArena overlays (where it requires a position selector and
// cannot record missed-node IDs). Given the position of the same origin and
// the same rng stream, it is bit-identical to RunScratch.
func RunScratchPos(o *Overlay, origin int32, sel core.Selector, fanout int, rng *rand.Rand, opts Options, sc *Scratch) (*metrics.Dissemination, error) {
	oi := int(origin)
	if oi < 0 || oi >= o.N() {
		return nil, fmt.Errorf("dissem: origin position %d outside [0,%d)", oi, o.N())
	}
	if !o.alive[oi] {
		return nil, fmt.Errorf("dissem: origin position %d is dead", oi)
	}
	if sel == nil {
		return nil, fmt.Errorf("dissem: selector must not be nil")
	}
	if opts.RecordMissed && o.ids == nil {
		return nil, fmt.Errorf("dissem: RecordMissed needs node IDs, but the overlay was built FromArena")
	}
	if sc == nil {
		sc = NewScratch()
	}
	d := &metrics.Dissemination{
		AliveTotal: o.AliveCount(),
	}
	if o.ids != nil {
		d.Origin = o.ids[oi]
	}
	if !opts.SkipLoad {
		d.SentPerNode = make([]int, o.N())
		d.RecvPerNode = make([]int, o.N())
	}
	sc.notified = sc.notified.Reuse(o.N())
	notified := sc.notified

	notified.Set(int32(oi))
	d.Reached = 1
	d.CumNotified = append(d.CumNotified, 1)

	// forward lets node i pick targets and appends the resulting deliveries
	// to out. Unknown targets (placeholder positions < 0) are dropped
	// silently, exactly as the ID path drops targets missing from the index.
	forward := func(i, from int32, out []delivery) []delivery {
		sc.targets = sel.SelectPos(sc.targets[:0], &sc.sel, o.arena.Links(int(i)), from, fanout, rng)
		for _, j := range sc.targets {
			if j < 0 {
				continue // link to an unknown node: treat as lost silently
			}
			if d.SentPerNode != nil {
				d.SentPerNode[i]++
			}
			out = append(out, delivery{to: j, from: i})
		}
		return out
	}

	faults := opts.Faults
	if faults != nil {
		faults.Begin()
		faults.HopStart(0)
	}
	frontier := forward(int32(oi), core.NilPos, sc.frontier[:0])
	next := sc.next[:0]
	for hop := 1; len(frontier) > 0; hop++ {
		if faults != nil {
			faults.HopStart(hop)
		}
		next = next[:0]
		for _, dl := range frontier {
			if faults != nil && !faults.Deliver(dl.from, dl.to, rng) {
				d.Blocked++
				continue
			}
			if d.RecvPerNode != nil {
				d.RecvPerNode[dl.to]++
			}
			if !o.alive[dl.to] || (faults != nil && faults.Dead(dl.to)) {
				d.Lost++
				continue
			}
			if notified.Get(dl.to) {
				d.Redundant++
				continue
			}
			d.Virgin++
			notified.Set(dl.to)
			d.Reached++
			next = forward(dl.to, dl.from, next)
		}
		d.CumNotified = append(d.CumNotified, d.Reached)
		frontier, next = next, frontier
	}
	sc.frontier, sc.next = frontier, next
	// Trim trailing hops where nothing new was notified but messages were
	// still in flight, keeping the last hop at which Reached grew (plus the
	// origin-only hop 0 when nothing ever spread).
	for len(d.CumNotified) > 1 && d.CumNotified[len(d.CumNotified)-1] == d.CumNotified[len(d.CumNotified)-2] {
		d.CumNotified = d.CumNotified[:len(d.CumNotified)-1]
	}
	if opts.RecordMissed {
		for i := range o.ids {
			// Nodes killed mid-run by a fault timeline were not missed — they
			// left the population — so they are excluded like overlay deaths.
			if !notified.Get(int32(i)) && o.alive[i] && (faults == nil || !faults.Dead(int32(i))) {
				d.Missed = append(d.Missed, o.ids[i])
			}
		}
	}
	return d, nil
}
