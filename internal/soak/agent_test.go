package soak

// In-process round trip of the control protocol: one Agent with stub
// hooks, one Client per assertion group, no subprocesses. This is the
// race-detector's view of the agent (the process-level soak tests exercise
// it only inside child processes, outside the instrumented binary).

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ringcast/internal/transport"
	"ringcast/internal/wire"
)

// stubHooks builds a hook set over recording stubs.
func stubHooks(t testing.TB) (Hooks, *atomic.Int32, *struct {
	mu    sync.Mutex
	topic string
	body  string
}) {
	t.Helper()
	quits := &atomic.Int32{}
	pub := &struct {
		mu    sync.Mutex
		topic string
		body  string
	}{}
	var seq atomic.Uint64
	fabric := transport.NewInMemNetwork()
	ep, err := fabric.Endpoint("agent-under-test")
	if err != nil {
		t.Fatal(err)
	}
	fi := transport.WrapFaults(ep, 1)
	t.Cleanup(func() { fi.Close() })
	return Hooks{
		Publish: func(topic string, body []byte) (wire.MsgID, error) {
			pub.mu.Lock()
			pub.topic, pub.body = topic, string(body)
			pub.mu.Unlock()
			return wire.MsgID{Origin: 42, Epoch: 7, Seq: seq.Add(1)}, nil
		},
		Status: func() map[string]TopicStatus {
			return map[string]TopicStatus{
				"alpha": {ID: 42, View: 5, Pred: 40, Succ: 44, Ring: true},
				"beta":  {ID: 43, View: 2},
			}
		},
		Faults: fi,
		SetParam: func(key, value string) error {
			if key != "gossip.interval" {
				return errUnknownKey
			}
			return nil
		},
		Quit: func() { quits.Add(1) },
	}, quits, pub
}

// errUnknownKey stands in for the config engine's unknown-key rejection in
// the stub hook set.
var errUnknownKey = errors.New("stub: unknown key")

func TestAgentControlRoundTrip(t *testing.T) {
	agent, err := NewAgent("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()
	hooks, quits, pub := stubHooks(t)
	agent.Start(hooks)

	c, err := DialControl(agent.Addr(), 3*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	st, err := c.Status()
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	if !st["alpha"].Ring || st["alpha"].Succ != 44 || st["beta"].View != 2 {
		t.Errorf("status = %+v", st)
	}

	// Publish: the body is everything after the topic, spaces included.
	ack, err := c.Publish("alpha", "hello soak world")
	if err != nil {
		t.Fatalf("publish: %v", err)
	}
	if ack.Origin != 42 || ack.Epoch != 7 || ack.Seq != 1 || ack.T == 0 {
		t.Errorf("ack = %+v", ack)
	}
	pub.mu.Lock()
	gotTopic, gotBody := pub.topic, pub.body
	pub.mu.Unlock()
	if gotTopic != "alpha" || gotBody != "hello soak world" {
		t.Errorf("publish forwarded (%q, %q)", gotTopic, gotBody)
	}

	// Ledger: deliveries dedup by full message ID (epoch included) and
	// come back sorted origin, then epoch, then seq.
	agent.Deliver("alpha", wire.MsgID{Origin: 9, Seq: 2})
	agent.Deliver("alpha", wire.MsgID{Origin: 9, Seq: 1})
	agent.Deliver("alpha", wire.MsgID{Origin: 9, Seq: 2})           // duplicate
	agent.Deliver("alpha", wire.MsgID{Origin: 9, Epoch: 1, Seq: 1}) // restart incarnation
	agent.Deliver("beta", wire.MsgID{Origin: 5, Seq: 1})
	entries, err := c.Ledger("alpha")
	if err != nil {
		t.Fatalf("ledger: %v", err)
	}
	if len(entries) != 3 || entries[0].Seq != 1 || entries[1].Seq != 2 ||
		entries[2].Epoch != 1 || entries[2].Seq != 1 {
		t.Errorf("ledger entries = %+v", entries)
	}

	// The set verb reaches the SetParam hook, rejections included.
	if err := c.SetParam("gossip.interval", "50ms"); err != nil {
		t.Fatalf("set: %v", err)
	}
	if err := c.SetParam("no.such.key", "1"); err == nil {
		t.Error("set of unknown key succeeded")
	}

	// Fault surface plumbed through.
	if err := c.Block("10.0.0.2:7", "10.0.0.3:7"); err != nil {
		t.Errorf("block: %v", err)
	}
	if err := c.Unblock("10.0.0.2:7"); err != nil {
		t.Errorf("unblock: %v", err)
	}
	if err := c.Heal(); err != nil {
		t.Errorf("heal: %v", err)
	}
	if err := c.SetLoss(0.25); err != nil {
		t.Errorf("loss: %v", err)
	}
	// A loss rate must be a finite probability: NaN would otherwise turn
	// loss off silently, and -1 or 7 are not rates at all.
	for _, bad := range []string{"NaN", "-1", "7", "+Inf", "0.5x"} {
		if _, err := c.do("loss " + bad); err == nil {
			t.Errorf("loss %s accepted", bad)
		}
	}

	// Unknown commands — the counter and identity verbs included: counters
	// come from /metrics — and malformed publishes fail without killing the
	// connection.
	for _, cmd := range []string{"bogus", "stats", "info", "ping", "get gossip.interval"} {
		if _, err := c.do(cmd); err == nil || !strings.Contains(err.Error(), "unknown command") {
			t.Errorf("%s returned %v, want unknown command", cmd, err)
		}
	}
	if _, err := c.do("publish alpha"); err == nil {
		t.Error("publish without body succeeded")
	}
	if _, err := c.Status(); err != nil {
		t.Fatalf("status after errors: %v", err)
	}

	if err := c.Quit(); err != nil {
		t.Fatalf("quit: %v", err)
	}
	if quits.Load() != 1 {
		t.Errorf("quit hook ran %d times", quits.Load())
	}
}

// TestAgentWedgeBlocksDeliver drives the wedge through the agent's
// transport gate: while wedged, inbound frames wait ahead of the handler
// (so nothing reaches the node or the ledger); unwedge releases them; and
// closing the agent releases a fresh wedge so no inbound goroutine leaks.
func TestAgentWedgeBlocksDeliver(t *testing.T) {
	agent, err := NewAgent("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()
	hooks, _, _ := stubHooks(t)
	agent.Start(hooks)
	c, err := DialControl(agent.Addr(), 3*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	fabric := transport.NewInMemNetwork()
	src, err := fabric.Endpoint("src")
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	dst, err := fabric.Endpoint("dst")
	if err != nil {
		t.Fatal(err)
	}
	gated := agent.Gate(dst)
	recorded := make(chan struct{}, 2)
	gated.SetHandler(func(_ string, f *wire.Frame) {
		agent.Deliver("alpha", f.Msg.ID)
		recorded <- struct{}{}
	})
	send := func(seq uint64) {
		t.Helper()
		f := &wire.Frame{Kind: wire.KindGossip, From: 1, FromAddr: "src",
			Msg: &wire.Message{ID: wire.MsgID{Origin: 1, Seq: seq}, Body: []byte("x")}}
		if err := src.Send("dst", f); err != nil {
			t.Fatal(err)
		}
	}

	if err := c.Wedge(); err != nil {
		t.Fatal(err)
	}
	send(1)
	select {
	case <-recorded:
		t.Fatal("frame reached the handler while wedged")
	case <-time.After(150 * time.Millisecond):
	}
	if entries, err := c.Ledger("alpha"); err != nil || len(entries) != 0 {
		t.Errorf("wedged ledger = %+v (err %v), want empty", entries, err)
	}

	if err := c.Unwedge(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-recorded:
	case <-time.After(5 * time.Second):
		t.Fatal("frame still held after unwedge")
	}
	if entries, err := c.Ledger("alpha"); err != nil || len(entries) != 1 {
		t.Errorf("unwedged ledger = %+v (err %v), want one entry", entries, err)
	}

	// Closing the agent releases a fresh wedge: the held inbound goroutine
	// returns, so the endpoint's Close (which waits for it) completes.
	if err := c.Wedge(); err != nil {
		t.Fatal(err)
	}
	send(2)
	time.Sleep(50 * time.Millisecond)
	agent.Close()
	closed := make(chan struct{})
	go func() {
		gated.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("inbound goroutine leaked past agent Close")
	}
}

func TestParseReady(t *testing.T) {
	ri, ok := parseReady("SOAK ready addr=127.0.0.1:1 control=127.0.0.1:9 id=77 pid=123 metrics=127.0.0.1:1")
	if !ok || ri.addr != "127.0.0.1:1" || ri.control != "127.0.0.1:9" || ri.id != 77 || ri.pid != 123 || ri.metrics != "127.0.0.1:1" {
		t.Errorf("parseReady = %+v ok=%v", ri, ok)
	}
	for _, bad := range []string{
		"node 12 listening on 127.0.0.1:1",
		"SOAK ready addr=127.0.0.1:1",
		// Every counter is read from /metrics, so a node without one is
		// not ready for the harness.
		"SOAK ready addr=127.0.0.1:1 control=127.0.0.1:9 id=77 pid=123",
		"[recv a/1] SOAK ready addr=x control=y",
	} {
		if _, ok := parseReady(bad); ok {
			t.Errorf("parseReady accepted %q", bad)
		}
	}
}

// wantOK is the fuzz oracle: whether the agent must accept line (already
// trimmed, as serve hands it over) under stubHooks. Unknown verbs and
// malformed arguments must fail; well-formed commands must succeed.
func wantOK(line string) bool {
	cmd, rest, _ := strings.Cut(line, " ")
	switch cmd {
	case "status", "heal", "wedge", "unwedge", "quit":
		return true
	case "publish":
		topic, _, ok := strings.Cut(rest, " ")
		return ok && topic != ""
	case "ledger":
		return strings.TrimSpace(rest) != ""
	case "block", "unblock":
		return len(strings.Fields(rest)) > 0
	case "loss":
		rate, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		return err == nil && !math.IsNaN(rate) && rate >= 0 && rate <= 1
	case "set":
		key, _, ok := strings.Cut(rest, " ")
		return ok && key == "gossip.interval"
	}
	return false
}

// FuzzControlLine feeds arbitrary control lines to the agent's handler
// over stub hooks. It must never panic, must answer every line with
// exactly one JSON response line, and must answer ok:false to unknown
// verbs and malformed arguments (and ok:true to well-formed commands).
func FuzzControlLine(f *testing.F) {
	for _, seed := range []string{
		"loss NaN", "loss 2", "publish", "block", "set k", "",
		"loss 0.25", "publish alpha hello world", "ledger alpha", "stats",
	} {
		f.Add(seed)
	}
	agent, err := NewAgent("127.0.0.1:0")
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { agent.Close() })
	hooks, _, _ := stubHooks(f)
	agent.Start(hooks)
	f.Fuzz(func(t *testing.T, line string) {
		if strings.ContainsRune(line, '\n') {
			return // the line reader never hands over an embedded newline
		}
		line = strings.TrimSpace(line)
		var buf bytes.Buffer
		if err := writeResp(&buf, agent.handle(line)); err != nil {
			t.Fatalf("writeResp: %v", err)
		}
		out := buf.String()
		if strings.Count(out, "\n") != 1 || !strings.HasSuffix(out, "\n") {
			t.Fatalf("response to %q is not exactly one line: %q", line, out)
		}
		var r ctlResp
		if err := json.Unmarshal(buf.Bytes(), &r); err != nil {
			t.Fatalf("response to %q is not JSON: %v (%q)", line, err, out)
		}
		if want := wantOK(line); r.OK != want {
			t.Fatalf("%q: ok=%v (err %q), want ok=%v", line, r.OK, r.Err, want)
		}
		if !r.OK && r.Err == "" {
			t.Fatalf("%q: failure without an error message", line)
		}
	})
}
