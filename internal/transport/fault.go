package transport

import (
	"math/rand"
	"sync"
	"sync/atomic"

	"ringcast/internal/wire"
)

// FaultInjector wraps a Transport with scenario-driven fault injection
// between real nodes: pairwise partitions (black-holed destinations) and
// per-copy message loss. It is the live runtime's injection surface of the
// scenario engine — the counterpart of the simulators' FaultModel hooks —
// and the one fault path of the in-memory fabric too.
//
// Faults are injected on the outbound path, before the inner transport sees
// the frame, so they compose with any base transport (TCP, in-memory, mux
// topics). A blocked or lost frame is swallowed silently — like a
// black-holed route or a congested switch, not like a connection refusal —
// and counted as an injected drop: Stats() reports the inner transport's
// counters with Drops increased by the injected count, so the stats
// plumbing (node.TransportStats, pubsub.Peer.TransportStats, the
// ringcast_transport_drops_total series) surfaces injected faults with no
// extra wiring.
//
// Loss draws come from the injector's own seeded rng, so a live experiment
// is reproducible for a given seed and frame order. All methods are safe
// for concurrent use.
type FaultInjector struct {
	inner Transport

	mu      sync.Mutex
	rng     *rand.Rand
	loss    float64
	blocked map[string]struct{}

	injected atomic.Int64
	closed   atomic.Bool
}

var _ Transport = (*FaultInjector)(nil)

// WrapFaults wraps inner with a fault injector. seed drives the loss draws.
func WrapFaults(inner Transport, seed int64) *FaultInjector {
	return &FaultInjector{
		inner:   inner,
		rng:     rand.New(rand.NewSource(seed)),
		blocked: make(map[string]struct{}),
	}
}

// SetLoss sets the per-frame drop probability (0 disables loss, 1 drops
// everything).
func (fi *FaultInjector) SetLoss(rate float64) {
	fi.mu.Lock()
	fi.loss = rate
	fi.mu.Unlock()
}

// Block partitions this endpoint from the given destination addresses:
// frames to them are black-holed (and counted as injected drops) until
// Unblock or HealAll.
func (fi *FaultInjector) Block(addrs ...string) {
	fi.mu.Lock()
	for _, a := range addrs {
		fi.blocked[a] = struct{}{}
	}
	fi.mu.Unlock()
}

// Unblock restores connectivity to the given destinations.
func (fi *FaultInjector) Unblock(addrs ...string) {
	fi.mu.Lock()
	for _, a := range addrs {
		delete(fi.blocked, a)
	}
	fi.mu.Unlock()
}

// HealAll removes every active partition (loss is unaffected).
func (fi *FaultInjector) HealAll() {
	fi.mu.Lock()
	fi.blocked = make(map[string]struct{})
	fi.mu.Unlock()
}

// InjectedDrops reports how many frames the injector has swallowed
// (partition plus loss) since creation.
func (fi *FaultInjector) InjectedDrops() int64 { return fi.injected.Load() }

// Addr implements Transport.
func (fi *FaultInjector) Addr() string { return fi.inner.Addr() }

// SetHandler implements Transport. Inbound frames are not subject to
// injection (faults are modelled on the sender side, once per link).
func (fi *FaultInjector) SetHandler(h Handler) { fi.inner.SetHandler(h) }

// Send implements Transport, applying partition and loss before
// delegating to the inner transport.
func (fi *FaultInjector) Send(to string, f *wire.Frame) error {
	if fi.closed.Load() {
		return ErrClosed
	}
	fi.mu.Lock()
	_, blocked := fi.blocked[to]
	lost := !blocked && fi.loss > 0 && fi.rng.Float64() < fi.loss
	fi.mu.Unlock()
	if blocked || lost {
		fi.injected.Add(1)
		return nil
	}
	return fi.inner.Send(to, f)
}

// Stats implements Transport: the inner transport's counters with injected
// drops folded into Drops.
func (fi *FaultInjector) Stats() Stats {
	s := fi.inner.Stats()
	s.Drops += fi.injected.Load()
	return s
}

// Close implements Transport: closes the inner transport.
func (fi *FaultInjector) Close() error {
	fi.closed.Store(true)
	return fi.inner.Close()
}
