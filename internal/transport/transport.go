// Package transport abstracts how live nodes exchange wire frames — the
// socket layer under the paper's deployment story (Section 8's topic-based
// middleware, one overlay per topic). Implementations: an in-memory fabric
// for tests, examples and single-process clusters, a TCP endpoint for real
// deployments, a topic Mux that layers pub/sub routing on top of any base
// transport, and a FaultInjector wrapper that black-holes or degrades links
// under control of the scenario engine (internal/scenario).
//
// Determinism contract: live transports are inherently asynchronous —
// frame interleaving depends on goroutine and kernel scheduling, unlike the
// simulators — but every injected fault is reproducible: the FaultInjector
// draws loss from its own seeded stream. Counters (Stats) are monotonic and
// safe to read concurrently.
package transport

import (
	"errors"

	"ringcast/internal/wire"
)

// Handler consumes an inbound frame. remote is the sender's listen address
// as announced in the frame, suitable for replying via Send. Handlers are
// invoked sequentially per endpoint; implementations must not block
// indefinitely.
type Handler func(remote string, f *wire.Frame)

// Transport moves frames between named endpoints.
type Transport interface {
	// Addr returns this endpoint's stable address, usable by peers in Send.
	Addr() string
	// SetHandler installs the inbound frame handler. It must be called
	// exactly once, before any frame is expected; frames arriving earlier
	// are dropped.
	SetHandler(h Handler)
	// Send hands one frame to the transport for delivery to the endpoint at
	// addr. Send must not block on a slow destination: implementations either
	// queue the frame (TCP), hand it to a bounded inbox (in-memory), or drop
	// under overload. An error means the frame was NOT accepted — unreachable
	// destinations (evidence of peer death for gossip protocols), a closed
	// endpoint, or local backpressure (ErrQueueFull, which signals congestion
	// rather than peer death).
	Send(to string, f *wire.Frame) error
	// Stats returns a snapshot of the endpoint's runtime counters.
	Stats() Stats
	// Close releases the endpoint. Subsequent Sends fail.
	Close() error
}

// Common transport errors.
var (
	// ErrClosed is returned by operations on a closed endpoint.
	ErrClosed = errors.New("transport: endpoint closed")
	// ErrUnreachable is returned when the destination does not exist or
	// refuses delivery.
	ErrUnreachable = errors.New("transport: destination unreachable")
	// ErrQueueFull is returned when a non-droppable frame cannot be queued
	// because the destination's outbound queue is at capacity. It signals
	// local congestion, not peer death: callers should NOT evict the peer.
	ErrQueueFull = errors.New("transport: outbound queue full")
)

// Stats is a snapshot of a transport endpoint's counters. All fields are
// cumulative except QueueDepth and Writers, which are instantaneous gauges.
type Stats struct {
	// FramesSent counts frames actually written to the network.
	FramesSent int64
	// BytesSent counts wire bytes written (including length prefixes).
	BytesSent int64
	// QueueDepth is the number of frames currently queued across all peers.
	QueueDepth int64
	// Writers is the number of live per-peer writer goroutines.
	Writers int64
	// Drops counts frames accepted by Send but later discarded: overflow
	// drop-oldest evictions, frames flushed when a peer's connection failed,
	// and frames abandoned at Close.
	Drops int64
	// Rejects counts Send calls refused with ErrQueueFull (non-droppable
	// frame, full queue). The caller saw the error, so these are accounted
	// separately from silent Drops.
	Rejects int64
	// DialFailures counts outbound connection attempts that failed.
	DialFailures int64
}

// Droppable reports whether a frame may be silently discarded under
// backpressure. Periodic gossip exchanges (shuffles, vicinity trades,
// handshakes) are — the next cycle supersedes them, and dropping the oldest
// keeps the freshest view data flowing. Dissemination payloads (KindGossip)
// are not: the application message would be lost silently, so Send reports
// ErrQueueFull instead and lets the caller fail over to another target.
func Droppable(f *wire.Frame) bool { return f.Kind != wire.KindGossip }
