package main

import (
	"math/rand"
	"sync/atomic"
	"time"

	"ringcast/internal/core"
	"ringcast/internal/ident"
	"ringcast/internal/transport"
	"ringcast/internal/wire"
)

// The traced run times each layer from outside, by wrapping the values the
// benchmark hands the program. A wrapper implements every method of the
// value it wraps and forwards each call unchanged, so the program takes
// the same code path with or without it (wrap_test.go checks the method
// sets). The untraced end-to-end runs install no wrappers at all.

// tracedTransport wraps a peer's base TCP transport: Send spans cover
// marshal, framing and enqueue; handle spans cover everything the inbound
// handler does (mux demux, node receive path, delivery, forwarding).
type tracedTransport struct {
	base *transport.TCPTransport
	peer int
	tr   *tracer

	// Marshalled bytes of accepted sends while tracing, split into
	// dissemination payload frames and overlay upkeep frames.
	gossipBytes, upkeepBytes atomic.Int64
}

var _ transport.Transport = (*tracedTransport)(nil)

func (t *tracedTransport) Addr() string           { return t.base.Addr() }
func (t *tracedTransport) Stats() transport.Stats { return t.base.Stats() }
func (t *tracedTransport) Close() error           { return t.base.Close() }

func (t *tracedTransport) SetSendQueueCap(frames int) error    { return t.base.SetSendQueueCap(frames) }
func (t *tracedTransport) SetMaxBatchBytes(n int) error        { return t.base.SetMaxBatchBytes(n) }
func (t *tracedTransport) SetWriterIdle(d time.Duration) error { return t.base.SetWriterIdle(d) }

// SetHandler installs h behind a wrapper that opens a handle span around
// each inbound dissemination frame of a traced message.
func (t *tracedTransport) SetHandler(h transport.Handler) {
	t.base.SetHandler(func(remote string, f *wire.Frame) {
		if f.Kind != wire.KindGossip || f.Msg == nil {
			h(remote, f)
			return
		}
		s := t.tr.open(spanHandle, t.peer, f.Msg.ID, f.From)
		h(remote, f)
		t.tr.close(t.peer, s, f.From)
	})
}

// Send forwards to the base transport, as a child span of the Publish or
// handle span that sends a traced message.
func (t *tracedTransport) Send(to string, f *wire.Frame) error {
	if f.Kind != wire.KindGossip || f.Msg == nil {
		err := t.base.Send(to, f)
		if err == nil && t.tr.on.Load() {
			t.upkeepBytes.Add(int64(wire.EncodedSize(f)))
		}
		return err
	}
	s := t.tr.child(spanSend, t.peer, f.Msg.ID, ident.Nil, 0)
	err := t.base.Send(to, f)
	t.tr.end(t.peer, s)
	if err == nil && t.tr.on.Load() {
		t.gossipBytes.Add(int64(wire.EncodedSize(f)))
	}
	return err
}

// tracedSelector wraps the nodes' RingCast selector: each Select is a
// core.Select span under the Publish or handle span that called it.
type tracedSelector struct {
	inner core.RingCast
	peer  int
	tr    *tracer
}

var (
	_ core.Selector    = tracedSelector{}
	_ core.PosSelector = tracedSelector{}
)

func (s tracedSelector) Name() string { return s.inner.Name() }

func (s tracedSelector) Select(links core.Links, from ident.ID, fanout int, rng *rand.Rand) []ident.ID {
	sp := s.tr.child(spanSelect, s.peer, zeroID, from, 0)
	out := s.inner.Select(links, from, fanout, rng)
	s.tr.end(s.peer, sp)
	return out
}

func (s tracedSelector) SelectPos(dst []int32, sc *core.PosScratch, links core.PosLinks, from int32, fanout int, rng *rand.Rand) []int32 {
	return s.inner.SelectPos(dst, sc, links, from, fanout, rng)
}
