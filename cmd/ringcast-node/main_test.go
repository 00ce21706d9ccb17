package main

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// syncBuffer is a goroutine-safe output sink.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestSingleNodePublishDeliversLocally(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP test skipped in -short mode")
	}
	in, inW := io.Pipe()
	var out syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-listen", "127.0.0.1:0",
			"-interval", "10ms",
		}, in, &out)
	}()

	// Wait for startup, publish one line, expect local delivery echo.
	waitFor(t, &out, "listening on")
	if _, err := inW.Write([]byte("hello self\n")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, &out, "[sent")
	waitFor(t, &out, "hello self")

	inW.Close() // EOF terminates the loop
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not exit on EOF")
	}
}

func TestTwoNodeDissemination(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP test skipped in -short mode")
	}
	inA, inAW := io.Pipe()
	var outA syncBuffer
	doneA := make(chan error, 1)
	go func() {
		doneA <- run([]string{"-listen", "127.0.0.1:0", "-interval", "10ms"}, inA, &outA)
	}()
	waitFor(t, &outA, "listening on")
	addrA := parseListenAddr(t, outA.String())

	inB, inBW := io.Pipe()
	var outB syncBuffer
	doneB := make(chan error, 1)
	go func() {
		doneB <- run([]string{
			"-listen", "127.0.0.1:0", "-join", addrA,
			"-interval", "10ms",
		}, inB, &outB)
	}()
	waitFor(t, &outB, "joined via")

	// Give gossip a moment to link the two nodes, then publish from A.
	time.Sleep(300 * time.Millisecond)
	if _, err := inAW.Write([]byte("cross-node hello\n")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, &outB, "cross-node hello")

	inAW.Close()
	inBW.Close()
	for _, done := range []chan error{doneA, doneB} {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("run returned %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("run did not exit on EOF")
		}
	}
}

func TestBadProtocolFlag(t *testing.T) {
	var out syncBuffer
	if err := run([]string{"-proto", "smoke-signals"}, strings.NewReader(""), &out); err == nil {
		t.Fatal("unknown protocol accepted")
	}
}

func TestBadListenAddr(t *testing.T) {
	var out syncBuffer
	if err := run([]string{"-listen", "256.0.0.1:-1"}, strings.NewReader(""), &out); err == nil {
		t.Fatal("bad listen address accepted")
	}
}

func waitFor(t *testing.T, out *syncBuffer, substr string) {
	t.Helper()
	deadline := time.After(15 * time.Second)
	for !strings.Contains(out.String(), substr) {
		select {
		case <-deadline:
			t.Fatalf("timed out waiting for %q in output:\n%s", substr, out.String())
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// parseListenAddr extracts the address from "node <id> listening on <addr> ...".
func parseListenAddr(t *testing.T, s string) string {
	t.Helper()
	for _, line := range strings.Split(s, "\n") {
		if i := strings.Index(line, "listening on "); i >= 0 {
			rest := line[i+len("listening on "):]
			if j := strings.IndexByte(rest, ' '); j > 0 {
				return rest[:j]
			}
			return rest
		}
	}
	t.Fatalf("no listen address in output:\n%s", s)
	return ""
}

// TestUsageCoversAllFlags regenerates the -h text and asserts every
// registered flag appears in the hand-written examples section, so the
// examples cannot drift from the flag set.
func TestUsageCoversAllFlags(t *testing.T) {
	var buf syncBuffer
	err := run([]string{"-h"}, strings.NewReader(""), &buf)
	if !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h returned %v, want flag.ErrHelp", err)
	}
	usage := buf.String()
	cut := strings.Index(usage, "Flags:")
	if cut < 0 {
		t.Fatalf("usage has no Flags section:\n%s", usage)
	}
	examples, flagRef := usage[:cut], usage[cut:]
	matches := regexp.MustCompile(`(?m)^  -([a-z][a-z-]*)`).FindAllStringSubmatch(flagRef, -1)
	if len(matches) < 9 {
		t.Fatalf("flag reference lists only %d flags:\n%s", len(matches), flagRef)
	}
	for _, m := range matches {
		if !strings.Contains(examples, "-"+m[1]) {
			t.Errorf("flag -%s is not shown in any usage example", m[1])
		}
	}
}
