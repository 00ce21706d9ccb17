package soak

// The completeness gate. Dissemination in RingCast is one-shot: a message
// reaches whoever is reachable from the origin while its copies are in
// flight, and nothing redelivers it later (the paper's completeness
// guarantee is explicitly scoped by connectivity). The gate therefore
// decides AT PUBLISH TIME which nodes a message must reach, and excludes
// publishes whose outcome is a race with a fault transition:
//
//   - within the guard window of any scheduled scenario event,
//   - while a loss rate is programmed (probabilistic by definition),
//   - on secondary topics while a partition is active: arcs are contiguous
//     in the FIRST topic's ring, so only that overlay keeps its intra-arc
//     ring path; the other overlays' rings are scattered by an
//     address-based split and their completeness is probabilistic,
//   - to or from nodes that recently restarted, were recently wedged or
//     unwedged, or are currently wedged or partitioned away.
//
// Ungated publishes still count toward throughput; they are just not part
// of the delivery-completeness verdict.

import (
	"sort"
	"time"

	"ringcast/internal/scenario"
)

// window is a closed interval of wall-clock time; an open end is the zero
// time.
type window struct {
	from time.Time
	to   time.Time
}

func (w window) contains(t time.Time, pad time.Duration) bool {
	if t.Before(w.from.Add(-pad)) {
		return false
	}
	return w.to.IsZero() || !t.After(w.to.Add(pad))
}

// gatePlan is the schedule-derived gating rule, fixed once the publish
// phase starts (the scenario timeline is known upfront, so the plan needs
// no locking).
type gatePlan struct {
	guard    time.Duration
	arcTopic string
	// fires are the scheduled event instants.
	fires []time.Time
	// loss spans cover programmed loss (rate > 0) periods.
	loss []window
	// parts spans cover active partitions.
	parts []window
	// retune is the first set-param fire instant (zero when the timeline has
	// none); the report splits latency samples around it.
	retune time.Time
}

// newGatePlan projects the scenario timeline onto wall-clock instants:
// event At steps fire at start + At*step.
func newGatePlan(cfg Config, start time.Time) *gatePlan {
	p := &gatePlan{guard: cfg.Guard, arcTopic: cfg.Topics[0]}
	// Walk the dissemination events in the order the driver applies them
	// (stable by At), tracking which loss and partition spans are open.
	events := make([]scenario.Event, 0, len(cfg.Scenario.Events))
	for _, e := range cfg.Scenario.Events {
		if e.Kind == scenario.KindFlashCrowd || e.Kind == scenario.KindChurnRate {
			continue // network-phase kinds; the live driver ignores them too
		}
		events = append(events, e)
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
	lossOpen, partOpen := -1, -1 // index of the open span, -1 = none
	for _, e := range events {
		at := start.Add(time.Duration(e.At) * cfg.StepInterval)
		p.fires = append(p.fires, at)
		switch e.Kind {
		case scenario.KindPartition:
			if partOpen < 0 {
				p.parts = append(p.parts, window{from: at})
				partOpen = len(p.parts) - 1
			}
		case scenario.KindHeal:
			if partOpen >= 0 {
				p.parts[partOpen].to = at
				partOpen = -1
			}
		case scenario.KindLoss:
			if e.Rate > 0 && lossOpen < 0 {
				p.loss = append(p.loss, window{from: at})
				lossOpen = len(p.loss) - 1
			} else if e.Rate == 0 && lossOpen >= 0 {
				p.loss[lossOpen].to = at
				lossOpen = -1
			}
		case scenario.KindSetParam:
			// A re-tune does not threaten completeness, but it lands in
			// fires like any event: the guard window keeps racing publishes
			// out of the latency split around the transition.
			if p.retune.IsZero() {
				p.retune = at
			}
		}
	}
	return p
}

// gate reports whether a publish on topic at instant t participates in
// the completeness verdict.
func (p *gatePlan) gate(topic string, t time.Time) bool {
	for _, fire := range p.fires {
		d := t.Sub(fire)
		if d < 0 {
			d = -d
		}
		if d <= p.guard {
			return false
		}
	}
	for _, w := range p.loss {
		if w.contains(t, p.guard) {
			return false
		}
	}
	if topic != p.arcTopic {
		for _, w := range p.parts {
			if w.contains(t, p.guard) {
				return false
			}
		}
	}
	return true
}

// setPlan installs the gate plan at publish-phase start.
func (f *fleet) setPlan(p *gatePlan) {
	f.gmu.Lock()
	f.plan = p
	f.gmu.Unlock()
}

// gatePublish decides whether a publish from origin on topic at instant t
// is gated, and if so, which procs must deliver it. The origin itself is
// always expected (a publish delivers locally).
func (f *fleet) gatePublish(origin int, topic string, t time.Time) (bool, []int) {
	f.gmu.Lock()
	plan := f.plan
	f.gmu.Unlock()
	if plan == nil || !plan.gate(topic, t) {
		return false, nil
	}
	// Restart survivors gate like everyone else: a relaunched process
	// publishes under a fresh incarnation epoch, so its restarted sequence
	// numbers cannot collide with pre-crash message IDs. Only the stability
	// guard (recent transitions) excludes an origin now.
	if !f.stableFor(origin, t, plan.guard) {
		return false, nil
	}
	expected := []int{origin}
	for j := range f.procs {
		if j == origin {
			continue
		}
		if !f.stableFor(j, t, plan.guard) {
			continue
		}
		if f.blockedBetween(origin, j) {
			continue
		}
		expected = append(expected, j)
	}
	return true, expected
}

// stableFor reports whether proc i has been up, unwedged and
// transition-free for at least guard before t.
func (f *fleet) stableFor(i int, t time.Time, guard time.Duration) bool {
	st, since := f.procs[i].snapshot()
	if st != stateUp || t.Sub(since) < guard {
		return false
	}
	wedged, wAt := f.wedgeState(i)
	if wedged {
		return false
	}
	if !wAt.IsZero() && t.Sub(wAt) < guard {
		return false
	}
	return true
}
