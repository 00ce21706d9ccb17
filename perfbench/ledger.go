package main

import (
	"sync"
	"sync/atomic"
)

// ledgerChunk is how many messages share one lazily allocated block.
const ledgerChunk = 1024

// ledgerMaxChunks bounds the messages one ledger can track (1M).
const ledgerMaxChunks = 1024

// chunk holds per-(message, subscriber) delivery state for ledgerChunk
// messages. Slots are indexed msg%ledgerChunk*subs + subscriber.
type chunk struct {
	sched     [ledgerChunk]int64 // scheduled publish time, ns since epoch
	remaining [ledgerChunk]atomic.Int32
	count     []atomic.Uint32 // deliveries of the pair
	at        []atomic.Int64  // first delivery time, ns since epoch
	hop       []atomic.Uint32 // hop count of the first delivery
}

// ledger is the live exactly-once check: every (subscriber, message) pair
// must be delivered exactly once. It is written concurrently by every
// peer's delivery path; messages are added by the single generator.
type ledger struct {
	subs   int
	n      atomic.Int64 // messages added
	chunks [ledgerMaxChunks]atomic.Pointer[chunk]
	// done receives one token per message whose every subscriber has
	// delivered it (the closed loop's completion signal).
	done chan struct{}
	// stray counts deliveries the ledger cannot place: unknown message
	// index or a body that differs from what was published.
	stray atomic.Int64

	mu sync.Mutex // serializes add's chunk allocation
}

// newLedger tracks messages each expected at subs subscribers. window is
// the completion channel's capacity: the most messages that can complete
// before the generator collects their tokens.
func newLedger(subs, window int) *ledger {
	return &ledger{subs: subs, done: make(chan struct{}, window)}
}

// add registers the next message, scheduled at sched, and returns its index.
// ok is false when the ledger is full.
func (l *ledger) add(sched int64) (idx int64, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	idx = l.n.Load()
	ci := idx / ledgerChunk
	if ci >= ledgerMaxChunks {
		return 0, false
	}
	c := l.chunks[ci].Load()
	if c == nil {
		c = &chunk{
			count: make([]atomic.Uint32, ledgerChunk*l.subs),
			at:    make([]atomic.Int64, ledgerChunk*l.subs),
			hop:   make([]atomic.Uint32, ledgerChunk*l.subs),
		}
		l.chunks[ci].Store(c)
	}
	c.sched[idx%ledgerChunk] = sched
	c.remaining[idx%ledgerChunk].Store(int32(l.subs))
	l.n.Store(idx + 1) // publishes the slot to deliverers
	return idx, true
}

// sched returns the scheduled publish time of a registered message.
func (l *ledger) sched(idx int64) int64 {
	return l.chunks[idx/ledgerChunk].Load().sched[idx%ledgerChunk]
}

// deliver records that subscriber sub received message idx at time at with
// the given hop count. Unknown messages count as stray.
func (l *ledger) deliver(idx int64, sub int, at int64, hop uint16) {
	if idx < 0 || idx >= l.n.Load() || sub < 0 || sub >= l.subs {
		l.stray.Add(1)
		return
	}
	c := l.chunks[idx/ledgerChunk].Load()
	slot := int(idx%ledgerChunk)*l.subs + sub
	if c.count[slot].Add(1) != 1 {
		return // a re-delivery: audit reports it
	}
	c.at[slot].Store(at)
	c.hop[slot].Store(uint32(hop))
	if c.remaining[idx%ledgerChunk].Add(-1) == 0 {
		select {
		case l.done <- struct{}{}:
		default: // nobody is counting completions in this phase
		}
	}
}

// audit is the verdict over messages [from, to).
type audit struct {
	Expected    int64 // pairs that should have been delivered
	Delivered   int64 // pairs delivered at least once
	Missing     int64 // pairs never delivered
	Redelivered int64 // extra deliveries beyond the first
}

// audit counts delivered, missing and re-delivered pairs over [from, to).
func (l *ledger) audit(from, to int64) audit {
	var a audit
	l.each(from, to, func(_ int64, _ int, n uint32, _ int64, _ uint16) {
		a.Expected++
		switch {
		case n == 0:
			a.Missing++
		default:
			a.Delivered++
			a.Redelivered += int64(n - 1)
		}
	})
	return a
}

// each visits every pair of messages [from, to) with its delivery count,
// first delivery time and hop.
func (l *ledger) each(from, to int64, fn func(idx int64, sub int, count uint32, at int64, hop uint16)) {
	for idx := from; idx < to; idx++ {
		c := l.chunks[idx/ledgerChunk].Load()
		base := int(idx%ledgerChunk) * l.subs
		for s := 0; s < l.subs; s++ {
			fn(idx, s, c.count[base+s].Load(), c.at[base+s].Load(), uint16(c.hop[base+s].Load()))
		}
	}
}

// complete reports how many of messages [from, to) every subscriber has
// delivered.
func (l *ledger) complete(from, to int64) int64 {
	var n int64
	for idx := from; idx < to; idx++ {
		if l.chunks[idx/ledgerChunk].Load().remaining[idx%ledgerChunk].Load() == 0 {
			n++
		}
	}
	return n
}
