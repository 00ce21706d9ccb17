package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"ringcast/internal/ident"
	"ringcast/internal/wire"
)

// Span names: one per layer boundary the traced run wraps.
const (
	spanPublish  = "pubsub.Publish"
	spanSelect   = "core.Select"
	spanSend     = "transport.Send"
	spanHandle   = "transport.handle"
	spanDeliver  = "deliver" // the application's delivery callback
	spanCycle    = "sim.Cycle"
	spanRun      = "dissem.Run"
	spanSelPos   = "core.SelectPos"
	spanSnapshot = "dissem.Snapshot"
)

// zeroID is the MsgID of spans that belong to no live message.
var zeroID wire.MsgID

// span is one recorded interval. Spans of one live message share its MsgID;
// parent indexes the enclosing span in the same peer's buffer (-1 for a
// root). A delivery span covers the application's delivery callback and
// carries the hop count.
type span struct {
	name       string
	start, end int64 // ns since the tracer's epoch
	parent     int32
	hop        uint16
	msg        wire.MsgID
}

// spanBuf holds one peer's spans plus the spans currently open on it,
// indexed two ways so that wrapped calls can find their parent without
// goroutine identity: Send and delivery find the open Publish or handle
// span of their message, Select finds it by the upstream sender it is
// given (ident.Nil for a publish). Frames from one sender reach a peer over
// one connection, so at most one handle per (peer, sender) is open.
type spanBuf struct {
	mu     sync.Mutex
	spans  []span
	byMsg  map[wire.MsgID]int32
	byFrom map[ident.ID]int32
}

// tracer keeps spans in memory, one buffer per peer plus one for the
// simulators, and writes them out once, at the end of the run.
type tracer struct {
	epoch time.Time
	on    atomic.Bool // spans are recorded only while on
	bufs  []*spanBuf
}

// newTracer makes a tracer for peers live peers (0 for a simulator run).
func newTracer(peers int) *tracer {
	t := &tracer{epoch: time.Now()}
	for i := 0; i <= peers; i++ {
		t.bufs = append(t.bufs, &spanBuf{byMsg: map[wire.MsgID]int32{}, byFrom: map[ident.ID]int32{}})
	}
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// buf returns a peer's buffer; peer -1 is the simulators'.
func (t *tracer) buf(peer int) *spanBuf {
	if peer < 0 {
		return t.bufs[len(t.bufs)-1]
	}
	return t.bufs[peer]
}

// open starts a Publish or handle span and registers it as the parent for
// the calls it makes. It returns -1 when tracing is off; close ignores -1.
func (t *tracer) open(name string, peer int, msg wire.MsgID, from ident.ID) int32 {
	if t == nil || !t.on.Load() {
		return -1
	}
	b := t.buf(peer)
	b.mu.Lock()
	idx := int32(len(b.spans))
	b.spans = append(b.spans, span{name: name, parent: -1, msg: msg})
	// A concurrent duplicate of the message may already be open here; the
	// first registration wins and the later span stays a childless root.
	if _, dup := b.byMsg[msg]; !dup {
		b.byMsg[msg] = idx
	}
	if _, dup := b.byFrom[from]; !dup {
		b.byFrom[from] = idx
	}
	b.spans[idx].start = t.now()
	b.mu.Unlock()
	return idx
}

// close ends a span from open and unregisters it.
func (t *tracer) close(peer int, idx int32, from ident.ID) {
	if idx < 0 {
		return
	}
	end := t.now()
	b := t.buf(peer)
	b.mu.Lock()
	s := &b.spans[idx]
	s.end = end
	if b.byMsg[s.msg] == idx {
		delete(b.byMsg, s.msg)
	}
	if p, ok := b.byFrom[from]; ok && p == idx {
		delete(b.byFrom, from)
	}
	b.mu.Unlock()
}

// child starts a span under the open span of msg (Send, delivery) or, when
// msg is zero, of the upstream sender from (Select). It returns -1 when no
// traced parent is open.
func (t *tracer) child(name string, peer int, msg wire.MsgID, from ident.ID, hop uint16) int32 {
	if t == nil || !t.on.Load() {
		return -1
	}
	b := t.buf(peer)
	b.mu.Lock()
	var parent int32
	var ok bool
	if msg != zeroID {
		parent, ok = b.byMsg[msg]
	} else {
		parent, ok = b.byFrom[from]
	}
	if !ok {
		b.mu.Unlock()
		return -1
	}
	idx := int32(len(b.spans))
	b.spans = append(b.spans, span{name: name, parent: parent, hop: hop, msg: b.spans[parent].msg})
	b.spans[idx].start = t.now()
	b.mu.Unlock()
	return idx
}

// end closes a span from child or root.
func (t *tracer) end(peer int, idx int32) {
	if idx < 0 {
		return
	}
	end := t.now()
	b := t.buf(peer)
	b.mu.Lock()
	b.spans[idx].end = end
	b.mu.Unlock()
}

// root starts a parentless simulator span.
func (t *tracer) root(name string) int32 {
	if t == nil || !t.on.Load() {
		return -1
	}
	b := t.buf(-1)
	b.mu.Lock()
	idx := int32(len(b.spans))
	b.spans = append(b.spans, span{name: name, parent: -1})
	b.spans[idx].start = t.now()
	b.mu.Unlock()
	return idx
}

// finish stops recording and returns a copy of every buffer's spans;
// parent indices are relative to the buffer they are in. A span still open
// (a duplicate frame in flight when the phase settled) has end 0; it may
// close later, in the tracer's buffer, not in the copy.
func (t *tracer) finish() [][]span {
	t.on.Store(false)
	out := make([][]span, len(t.bufs))
	for i, b := range t.bufs {
		b.mu.Lock()
		out[i] = append([]span(nil), b.spans...)
		b.mu.Unlock()
	}
	return out
}

// selfTimes returns, per span name, every span's duration and its self
// time: the duration minus the part covered by its child spans. Children of
// one parent run sequentially on the parent's goroutine, so their
// durations never overlap and can simply be summed. Delivery spans are the
// application's callback: they count against their parent's self time.
// Spans still open when tracing stopped are left out.
func selfTimes(bufs [][]span) (dur, self map[string][]float64) {
	dur = make(map[string][]float64)
	self = make(map[string][]float64)
	for _, spans := range bufs {
		child := make([]int64, len(spans))
		for _, s := range spans {
			if s.parent >= 0 && s.end != 0 {
				child[s.parent] += s.end - s.start
			}
		}
		for i, s := range spans {
			if s.end == 0 {
				continue // still open when tracing stopped
			}
			d := float64(s.end - s.start)
			dur[s.name] = append(dur[s.name], d)
			self[s.name] = append(self[s.name], d-float64(child[i]))
		}
	}
	return dur, self
}

// spanCount totals the spans of every buffer.
func spanCount(bufs [][]span) int {
	n := 0
	for _, b := range bufs {
		n += len(b)
	}
	return n
}

// writeSpans stores the spans as gzip-compressed tab-separated lines
// (name, start_ns, end_ns, parent, peer, hop, msg) under dir; parent is the
// line number within the same peer's spans, peer -1 the simulators.
func writeSpans(dir, name string, bufs [][]span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace dir: %w", err)
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("trace file: %w", err)
	}
	defer f.Close()
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	fmt.Fprintln(bw, "name\tstart_ns\tend_ns\tparent\tpeer\thop\tmsg")
	for peer, spans := range bufs {
		if peer == len(bufs)-1 {
			peer = -1
		}
		for _, s := range spans {
			fmt.Fprintf(bw, "%s\t%d\t%d\t%d\t%d\t%d\t%s\n", s.name, s.start, s.end, s.parent, peer, s.hop, s.msg)
		}
	}
	if err := bw.Flush(); err != nil {
		return "", fmt.Errorf("trace write: %w", err)
	}
	if err := zw.Close(); err != nil {
		return "", fmt.Errorf("trace write: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("trace close: %w", err)
	}
	return path, nil
}
