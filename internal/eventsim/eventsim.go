// Package eventsim is a discrete-event dissemination simulator with
// heterogeneous per-message latencies. It reproduces the robustness check of
// Section 7.1: the paper varied the message forwarding time from zero to
// several times the gossiping period and "recorded no effect whatsoever on
// the macroscopic behavior of disseminations" — the hit ratio and message
// overhead are invariant to timing, because a node forwards a fresh message
// to the same number of targets picked with the same logic regardless of
// when it arrives.
//
// Where internal/dissem advances in lockstep hops (the paper's presentation
// model), eventsim schedules each message copy individually on a priority
// queue with a caller-supplied latency distribution. Hop counts lose meaning
// here; completion time becomes continuous.
//
//ringcast:deterministic
package eventsim

import (
	"container/heap"
	"fmt"
	"math/rand"

	"ringcast/internal/core"
	"ringcast/internal/dissem"
	"ringcast/internal/ident"
)

// LatencyFunc draws the forwarding delay for one message copy.
type LatencyFunc func(rng *rand.Rand) float64

// ConstantLatency returns a LatencyFunc with a fixed delay.
func ConstantLatency(d float64) LatencyFunc {
	return func(*rand.Rand) float64 { return d }
}

// UniformLatency returns delays uniform in [lo, hi).
func UniformLatency(lo, hi float64) LatencyFunc {
	return func(rng *rand.Rand) float64 { return lo + rng.Float64()*(hi-lo) }
}

// ExpLatency returns exponentially distributed delays with the given mean —
// the classic wide-area latency stand-in.
func ExpLatency(mean float64) LatencyFunc {
	return func(rng *rand.Rand) float64 { return rng.ExpFloat64() * mean }
}

// Result records one event-driven dissemination.
type Result struct {
	// AliveTotal and Reached mirror the hop-based simulator's accounting.
	AliveTotal, Reached int
	// Virgin, Redundant and Lost split the message overhead as in Figure 8.
	Virgin, Redundant, Lost int
	// Blocked counts copies dropped in flight by injected faults
	// (partitions, loss) when the run executes under a FaultModel.
	Blocked int
	// CompletionTime is when the last first-time delivery happened.
	CompletionTime float64
	// Deliveries is the total number of message copies delivered.
	Deliveries int
}

// HitRatio is the fraction of live nodes reached.
func (r *Result) HitRatio() float64 {
	if r.AliveTotal == 0 {
		return 0
	}
	return float64(r.Reached) / float64(r.AliveTotal)
}

// MissRatio is 1 - HitRatio.
func (r *Result) MissRatio() float64 { return 1 - r.HitRatio() }

// Complete reports whether every live node was reached.
func (r *Result) Complete() bool { return r.Reached == r.AliveTotal }

// TotalMsgs is the total number of point-to-point messages sent.
func (r *Result) TotalMsgs() int { return r.Virgin + r.Redundant + r.Lost + r.Blocked }

// FaultModel injects scenario faults into an event-driven run. It is the
// continuous-time twin of dissem.FaultModel: instead of hop boundaries, the
// engine schedules one sentinel event per entry of EventTimes on its heap —
// sentinels sort before same-time deliveries — and calls AdvanceTo when a
// sentinel pops. Dead and Deliver follow the hop engine's semantics, and the
// same determinism contract applies: all randomness comes from the run's
// rng, per-run state is reset by Begin, and a model must not be shared
// between concurrent runs. internal/scenario's State implements both fault
// interfaces, which is what makes the cross-surface invariance test
// possible (same scenario, hop engine vs event engine at constant latency,
// identical reached counts).
type FaultModel interface {
	// Begin resets per-run state before a dissemination starts.
	Begin()
	// EventTimes lists the times (ascending) at which timeline events fire;
	// the engine schedules a sentinel heap entry for each.
	EventTimes() []float64
	// AdvanceTo applies all timeline events scheduled at times <= t.
	AdvanceTo(t float64)
	// Dead reports whether node i has been killed by a timeline event.
	Dead(i int32) bool
	// Deliver reports whether the in-flight copy from->to survives the
	// currently active partition and loss faults.
	Deliver(from, to int32, rng *rand.Rand) bool
}

// event is one in-flight message copy. Endpoints are dense overlay
// positions; from is always the forwarding node's position (the origin's
// own sends carry the origin's position — core.NilPos appears only as the
// selection-exclusion argument, never on a scheduled copy), so FaultModel
// implementations may index by from without guarding.
type event struct {
	at   float64
	to   int32
	from int32
	seq  int // tie-breaker for deterministic ordering
}

// eventQueue is a min-heap on (at, seq).
type eventQueue []event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x interface{}) { *q = append(*q, x.(event)) }
func (q *eventQueue) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// Scratch holds the reusable buffers of the event engine: the notified
// bitmap, the event heap, and the selection buffers. Reusing one Scratch
// across runs within a sweep unit removes all per-run allocation. A Scratch
// must not be shared between concurrent runs; the zero value is ready.
type Scratch struct {
	notified dissem.Bitmap
	q        eventQueue
	targets  []int32
	sel      core.PosScratch
}

// NewScratch returns an empty scratch; buffers grow on first use.
func NewScratch() *Scratch { return &Scratch{} }

// Run disseminates one message from origin over the frozen overlay with
// per-copy latencies drawn from lat. The selection logic is identical to the
// hop-based simulator; only timing differs.
func Run(o *dissem.Overlay, origin ident.ID, sel core.Selector, fanout int, lat LatencyFunc, rng *rand.Rand) (*Result, error) {
	return RunScratch(o, origin, sel, fanout, lat, rng, nil)
}

// RunScratch is Run with caller-managed scratch buffers (see Scratch). A nil
// scratch allocates a private one.
func RunScratch(o *dissem.Overlay, origin ident.ID, sel core.Selector, fanout int, lat LatencyFunc, rng *rand.Rand, sc *Scratch) (*Result, error) {
	return RunFaults(o, origin, sel, fanout, lat, rng, nil, sc)
}

// sentinelPos marks a heap entry as a fault-timeline sentinel rather than a
// message copy. Real deliveries always target positions >= 0.
const sentinelPos int32 = -1

// RunFaults is RunScratch with an optional fault model: timeline events are
// scheduled as sentinel entries on the engine's event heap and applied in
// time order, interleaved with deliveries (a sentinel sorts before
// same-time deliveries). A nil faults runs the fail-free fast path with
// exactly the pre-scenario randomness consumption.
func RunFaults(o *dissem.Overlay, origin ident.ID, sel core.Selector, fanout int, lat LatencyFunc, rng *rand.Rand, faults FaultModel, sc *Scratch) (*Result, error) {
	if sel == nil {
		return nil, fmt.Errorf("eventsim: selector must not be nil")
	}
	if lat == nil {
		return nil, fmt.Errorf("eventsim: latency function must not be nil")
	}
	oi, ok := o.Pos(origin)
	if !ok {
		return nil, fmt.Errorf("eventsim: unknown origin %v", origin)
	}
	if !o.IsAlive(oi) {
		return nil, fmt.Errorf("eventsim: origin %v is dead", origin)
	}
	if sc == nil {
		sc = NewScratch()
	}
	res := &Result{AliveTotal: o.AliveCount()}
	sc.notified = sc.notified.Reuse(o.N())
	notified := sc.notified
	notified.Set(int32(oi))
	res.Reached = 1

	q := &sc.q
	*q = (*q)[:0]
	seq := 0
	if faults != nil {
		faults.Begin()
		// Sentinels are pushed before anything else, so at equal times their
		// lower sequence numbers pop them ahead of deliveries — the
		// continuous-time analogue of applying events at a hop boundary
		// before the hop's arrivals are processed.
		for _, t := range faults.EventTimes() {
			seq++
			heap.Push(q, event{at: t, to: sentinelPos, seq: seq})
		}
	}
	emit := func(i, from int32, now float64) {
		sc.targets = sel.SelectPos(sc.targets[:0], &sc.sel, o.PosLinks(int(i)), from, fanout, rng)
		for _, j := range sc.targets {
			if j < 0 {
				continue // link to an unknown node: lost silently
			}
			seq++
			heap.Push(q, event{at: now + lat(rng), to: j, from: i, seq: seq})
		}
	}
	emit(int32(oi), core.NilPos, 0)

	for q.Len() > 0 {
		ev := heap.Pop(q).(event)
		if ev.to == sentinelPos {
			faults.AdvanceTo(ev.at)
			continue
		}
		if faults != nil && !faults.Deliver(ev.from, ev.to, rng) {
			res.Blocked++
			continue
		}
		res.Deliveries++
		if !o.IsAlive(int(ev.to)) || (faults != nil && faults.Dead(ev.to)) {
			res.Lost++
			continue
		}
		if notified.Get(ev.to) {
			res.Redundant++
			continue
		}
		res.Virgin++
		notified.Set(ev.to)
		res.Reached++
		res.CompletionTime = ev.at
		emit(ev.to, ev.from, ev.at)
	}
	return res, nil
}
