package config

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// recorder captures setter calls as "key=value" lines in call order.
type recorder struct {
	mu    sync.Mutex
	calls []string
}

func (r *recorder) add(key, value string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.calls = append(r.calls, key+"="+value)
}

func (r *recorder) snapshot() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.calls...)
}

func recordInt(r *recorder, key string) func(int) error {
	return func(v int) error { r.add(key, fmt.Sprint(v)); return nil }
}

func recordDuration(r *recorder, key string) func(time.Duration) error {
	return func(v time.Duration) error { r.add(key, v.String()); return nil }
}

// newTestStore registers a small catalog mirroring the live node's keys,
// with setters that log into the returned recorder.
func newTestStore(t *testing.T) (*Store, *recorder) {
	t.Helper()
	r := &recorder{}
	s := NewStore()
	defs := []Def{
		DurationKey("gossip.interval", 50*time.Millisecond, time.Millisecond, time.Hour,
			recordDuration(r, "gossip.interval")),
		IntKey("gossip.fanout", 3, 1, 128, recordInt(r, "gossip.fanout")),
		IntKey("sendq.cap", 512, 1, 1<<20, recordInt(r, "sendq.cap")),
		IntKey("sendq.batch", 64<<10, 1, 1<<30, recordInt(r, "sendq.batch")),
		IntKey("wide", 0, 0, 1<<62, recordInt(r, "wide")),
	}
	for _, d := range defs {
		if err := s.Register(d); err != nil {
			t.Fatalf("register %s: %v", d.name, err)
		}
	}
	return s, r
}

func TestRegisterDefaultsAndTypedGetters(t *testing.T) {
	s, r := newTestStore(t)
	if got := s.Duration("gossip.interval"); got != 50*time.Millisecond {
		t.Fatalf("interval = %v, want 50ms", got)
	}
	if got := s.Int("gossip.fanout"); got != 3 {
		t.Fatalf("fanout = %d, want 3", got)
	}
	if got := s.Int("no.such.key"); got != 0 {
		t.Fatalf("unregistered key = %d, want 0", got)
	}
	if v := s.Version(); v != 0 {
		t.Fatalf("registration must not bump version, got %d", v)
	}
	if calls := r.snapshot(); len(calls) != 0 {
		t.Fatalf("registration must not call setters, got %v", calls)
	}
}

func TestSetCanonicalizesAndBumpsVersion(t *testing.T) {
	s, _ := newTestStore(t)
	v, err := s.Set("gossip.interval", "1500ms")
	if err != nil {
		t.Fatal(err)
	}
	if v != 1 {
		t.Fatalf("version = %d, want 1", v)
	}
	if got := s.Snapshot().Values["gossip.interval"]; got != "1.5s" {
		t.Fatalf("canonical value = %q, want 1.5s", got)
	}
	if got := s.Duration("gossip.interval"); got != 1500*time.Millisecond {
		t.Fatalf("Duration = %v", got)
	}
}

// Validation rejection must leave the store at the prior version with the
// prior value, and no setter may run.
func TestRejectionLeavesPriorVersion(t *testing.T) {
	s, r := newTestStore(t)
	if _, err := s.Set("gossip.fanout", "7"); err != nil {
		t.Fatal(err)
	}
	cases := []struct{ key, raw string }{
		{"gossip.fanout", "0"},      // below min
		{"gossip.fanout", "1000"},   // above max
		{"gossip.fanout", "three"},  // not an int
		{"gossip.fanout", "7.0"},    // not an int either
		{"gossip.interval", "-5ms"}, // below min
		{"gossip.interval", "50"},   // no unit
		{"no.such.key", "1"},        // unregistered
	}
	for _, tc := range cases {
		v, err := s.Set(tc.key, tc.raw)
		if err == nil {
			t.Fatalf("Set(%s, %q) unexpectedly accepted", tc.key, tc.raw)
		}
		if v != 1 {
			t.Fatalf("Set(%s, %q): version moved to %d on rejection", tc.key, tc.raw, v)
		}
	}
	if _, err := s.Set("no.such.key", "1"); !errors.Is(err, ErrUnknownKey) {
		t.Fatalf("unknown key: %v, want ErrUnknownKey", err)
	}
	if got := s.Int("gossip.fanout"); got != 7 {
		t.Fatalf("value changed on rejection: %d", got)
	}
	if calls := r.snapshot(); len(calls) != 1 || calls[0] != "gossip.fanout=7" {
		t.Fatalf("setter calls = %v, want only the accepted set", calls)
	}
}

// The setter runs with the parsed value before Set returns; a setter error
// is reported while the value stays committed.
func TestNotifyCallback(t *testing.T) {
	s := NewStore()
	var got time.Duration
	fail := errors.New("runtime refused")
	var refuse bool
	err := s.Register(DurationKey("gossip.interval", time.Second, time.Millisecond, time.Hour,
		func(d time.Duration) error {
			got = d
			if refuse {
				return fail
			}
			return nil
		}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Set("gossip.interval", "25ms"); err != nil {
		t.Fatal(err)
	}
	if got != 25*time.Millisecond {
		t.Fatalf("setter saw %v when Set returned, want 25ms", got)
	}
	refuse = true
	v, err := s.Set("gossip.interval", "30ms")
	if !errors.Is(err, fail) {
		t.Fatalf("setter error not reported: %v", err)
	}
	if v != 2 || s.Duration("gossip.interval") != 30*time.Millisecond {
		t.Fatalf("setter error must not roll back the commit: version %d, value %v",
			v, s.Duration("gossip.interval"))
	}
}

// Setters see every accepted Set, in commit order, with no gaps.
func TestCallbacksRunInCommitOrder(t *testing.T) {
	s, r := newTestStore(t)
	const n = 100
	var want []string
	for i := 1; i <= n; i++ {
		key := "sendq.cap"
		if i%3 == 0 {
			key = "gossip.fanout"
		}
		if _, err := s.Set(key, fmt.Sprint(i)); err != nil {
			t.Fatal(err)
		}
		want = append(want, fmt.Sprintf("%s=%d", key, i))
	}
	if got := r.snapshot(); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("setter calls out of commit order:\n got %v\nwant %v", got, want)
	}
}

// Concurrent Sets from many goroutines: run under -race. Every accepted Set
// gets its own version, and the setter observes versions strictly
// increasing — the setter runs inside the commit, never out of order.
func TestConcurrentSetStorm(t *testing.T) {
	const (
		setters       = 8
		setsPerSetter = 200
	)
	s := NewStore()
	var seen []uint64
	err := s.Register(IntKey("sendq.cap", 1, 1, 1<<20, func(int) error {
		// Setters run one at a time, so the slice needs no lock of its own;
		// reading the store from a setter must not deadlock.
		seen = append(seen, s.Version())
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < setters; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < setsPerSetter; i++ {
				if _, err := s.Set("sendq.cap", fmt.Sprint(1+i%1000)); err != nil {
					panic(err)
				}
				_ = s.Snapshot()
			}
		}()
	}
	wg.Wait()
	if v := s.Version(); v != setters*setsPerSetter {
		t.Fatalf("final version = %d, want %d", v, setters*setsPerSetter)
	}
	if len(seen) != setters*setsPerSetter {
		t.Fatalf("setter ran %d times, want %d", len(seen), setters*setsPerSetter)
	}
	for i, v := range seen {
		if v != uint64(i+1) {
			t.Fatalf("setter call %d saw version %d, want %d", i, v, i+1)
		}
	}
}

func TestSnapshotConsistency(t *testing.T) {
	s, _ := newTestStore(t)
	if _, err := s.Set("gossip.fanout", "5"); err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot()
	if snap.Version != 1 {
		t.Fatalf("snapshot version = %d", snap.Version)
	}
	if snap.Values["gossip.fanout"] != "5" || snap.Values["sendq.cap"] != "512" ||
		snap.Values["gossip.interval"] != "50ms" {
		t.Fatalf("snapshot values = %v", snap.Values)
	}
	// Mutating the snapshot must not leak back into the store.
	snap.Values["gossip.fanout"] = "99"
	if got := s.Snapshot().Values["gossip.fanout"]; got != "5" {
		t.Fatalf("snapshot aliases store: %q", got)
	}
}

// ApplyJSON commits everything or nothing: a single bad key rejects the
// whole document at the prior version.
func TestApplyJSONAtomic(t *testing.T) {
	s, r := newTestStore(t)
	v, err := s.ApplyJSON([]byte(`{"gossip.fanout": 6, "gossip.interval": "20ms"}`))
	if err != nil {
		t.Fatal(err)
	}
	if v != 2 {
		t.Fatalf("version = %d, want 2 (one per key)", v)
	}
	if got := s.Int("gossip.fanout"); got != 6 {
		t.Fatalf("fanout = %d", got)
	}
	if got := s.Duration("gossip.interval"); got != 20*time.Millisecond {
		t.Fatalf("interval = %v", got)
	}

	bad := []string{
		`{"gossip.fanout": 2, "gossip.interval": "bogus"}`, // one invalid value
		`{"gossip.fanout": 2, "mystery": 1}`,               // unknown key
		`{"gossip.fanout": {"a": 1}}`,                      // nested
		`{"gossip.fanout": null}`,                          // null
		`{"gossip.fanout": true}`,                          // bool
		`{"gossip.fanout": 2} {}`,                          // trailing data
		`{"gossip.fanout": 2`,                              // truncated
	}
	for _, doc := range bad {
		v, err := s.ApplyJSON([]byte(doc))
		if err == nil {
			t.Fatalf("bad document accepted: %s", doc)
		}
		if v != 2 || s.Version() != 2 {
			t.Fatalf("version moved on rejected document %s: %d", doc, s.Version())
		}
		if got := s.Int("gossip.fanout"); got != 6 {
			t.Fatalf("half-applied document %s: fanout = %d", doc, got)
		}
	}
	if _, err := s.ApplyJSON([]byte(`{"mystery": 1}`)); !errors.Is(err, ErrUnknownKey) {
		t.Fatalf("unknown key: %v", err)
	}
	if calls := r.snapshot(); len(calls) != 2 {
		t.Fatalf("setter calls = %v, want the two accepted keys only", calls)
	}
}

// Integers written as JSON numbers are validated from their literal text,
// so values past 1e6 and past 2^53 are accepted exactly, as Set accepts
// them, while non-integer literals are rejected rather than truncated.
func TestApplyJSONLargeIntegers(t *testing.T) {
	s, _ := newTestStore(t)
	doc := `{"sendq.batch": 1048576, "sendq.cap": 1048576, "wide": 9007199254740993}`
	if _, err := s.ApplyJSON([]byte(doc)); err != nil {
		t.Fatal(err)
	}
	for key, want := range map[string]int64{
		"sendq.batch": 1 << 20, "sendq.cap": 1 << 20, "wide": 1<<53 + 1,
	} {
		if got := s.Int(key); got != want {
			t.Errorf("%s = %d, want %d", key, got, want)
		}
	}
	for _, doc := range []string{`{"sendq.cap": 1e3}`, `{"sendq.cap": 64.0}`, `{"sendq.cap": 1048577}`} {
		if _, err := s.ApplyJSON([]byte(doc)); err == nil {
			t.Errorf("accepted %s", doc)
		}
	}
}

// Phase 2 commits in sorted key order, each setter running before the next
// key commits.
func TestApplyJSONNotifiesInOrder(t *testing.T) {
	s, r := newTestStore(t)
	if _, err := s.ApplyJSON([]byte(`{"sendq.cap": 64, "gossip.interval": "1s", "gossip.fanout": 8}`)); err != nil {
		t.Fatal(err)
	}
	want := "gossip.fanout=8 gossip.interval=1s sendq.cap=64"
	if got := strings.Join(r.snapshot(), " "); got != want {
		t.Fatalf("setter calls = %q, want %q", got, want)
	}
}

func TestRegisterRejectsBadDefaultAndDuplicates(t *testing.T) {
	s := NewStore()
	nop := func(int) error { return nil }
	if err := s.Register(IntKey("k", 0, 1, 10, nop)); err == nil {
		t.Fatal("out-of-range default accepted")
	}
	if err := s.Register(IntKey("", 1, 1, 10, nop)); err == nil {
		t.Fatal("empty name accepted")
	}
	if err := s.Register(IntKey("k", 1, 1, 10, nop)); err != nil {
		t.Fatal(err)
	}
	if err := s.Register(IntKey("k", 2, 1, 10, nop)); err == nil {
		t.Fatal("duplicate registration accepted")
	}
}
