package soak

// Process-level tests: these build the real ringcast-node binary once and
// exercise the harness against live subprocesses. They are skipped under
// -short (the in-process agent, gate and config tests still run there).
//
// TestSoakPartitionHeal is the PR's acceptance test: N nodes (default 16,
// RINGCAST_SOAK_N overrides — CI runs 32, the local gate 64), a
// partition-heal-arckill timeline, one deliberately wedged consumer, and a
// report that must show zero missing gated pairs, every injected crash
// restarted, and the lag detector flagging exactly the wedged peer.

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"ringcast/internal/ident"
	"ringcast/internal/scenario"
	"ringcast/internal/wire"
)

// nodeBin is the shared ringcast-node binary path, built once in TestMain
// (empty under -short, where every user of it skips).
var nodeBin string

func TestMain(m *testing.M) {
	flag.Parse()
	code := func() int {
		if !testing.Short() {
			dir, err := os.MkdirTemp("", "soak-bin")
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			defer os.RemoveAll(dir)
			nodeBin, err = BuildNodeBin(dir)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
		}
		return m.Run()
	}()
	os.Exit(code)
}

// soakN returns the fleet size for the acceptance test.
func soakN(t *testing.T) int {
	t.Helper()
	if s := os.Getenv("RINGCAST_SOAK_N"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 4 {
			t.Fatalf("RINGCAST_SOAK_N=%q: need an integer >= 4", s)
		}
		return n
	}
	return 16
}

func TestSoakPartitionHeal(t *testing.T) {
	if testing.Short() {
		t.Skip("live soak needs subprocesses; skipped under -short")
	}
	n := soakN(t)
	cfg := Config{
		N:              n,
		Topics:         []string{"alpha", "beta"},
		NodeBin:        nodeBin,
		LogDir:         t.TempDir(),
		GossipInterval: 60 * time.Millisecond,
		StepInterval:   2 * time.Second,
		ProbeInterval:  400 * time.Millisecond,
		Duration:       12500 * time.Millisecond,
		Guard:          1200 * time.Millisecond,
		PublishRate:    25,
		LagWindow:      6,
		Seed:           11,
		WedgeAfter:     3500 * time.Millisecond,
		WedgeFor:       4500 * time.Millisecond,
		Scenario: scenario.Scenario{
			Name: "soak-partition-heal",
			Events: []scenario.Event{
				{Kind: scenario.KindPartition, At: 1, Groups: 2},
				{Kind: scenario.KindHeal, At: 3},
				{Kind: scenario.KindArcKill, At: 5, Fraction: 2.2 / float64(n), Start: ident.Nil},
			},
		},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	rep, err := Run(ctx, cfg)
	if err != nil {
		t.Fatalf("soak run: %v", err)
	}
	if path := os.Getenv("RINGCAST_SOAK_REPORT"); path != "" {
		if err := rep.WriteFile(path); err != nil {
			t.Errorf("write report: %v", err)
		}
	}
	t.Logf("published=%d gated_msgs=%d gated_pairs=%d delivered=%d missing=%d unverifiable=%d",
		rep.Published, rep.GatedMessages, rep.GatedPairs, rep.DeliveredPairs,
		rep.MissingPairs, rep.UnverifiablePairs)
	t.Logf("restarts=%d kills=%d lagging=%v wedged=%v p99=%.1fms msgs/sec=%.0f",
		rep.Restarts, rep.InjectedKills, rep.Lagging, rep.Wedged,
		rep.Latency.P99, rep.MsgsPerSec)
	for _, note := range rep.Notes {
		t.Logf("note: %s", note)
	}

	// Delivery completeness: every gated pair delivered.
	if rep.GatedPairs == 0 {
		t.Error("no gated pairs — the completeness verdict is vacuous")
	}
	if rep.MissingPairs != 0 {
		t.Errorf("%d missing gated pairs (completeness %.4f); sample: %v",
			rep.MissingPairs, rep.Completeness, rep.MissingSample)
	}
	if !rep.CompletenessOK {
		t.Error("report does not assert completeness")
	}
	// Supervision: the scenario injected crashes, and every one restarted.
	if rep.InjectedKills < 1 {
		t.Errorf("injected kills = %d, want >= 1", rep.InjectedKills)
	}
	if rep.Restarts < rep.InjectedKills {
		t.Errorf("restarts = %d < injected kills = %d", rep.Restarts, rep.InjectedKills)
	}
	if len(rep.CrashLoops) != 0 {
		t.Errorf("crash loops: %v", rep.CrashLoops)
	}
	// Lag detection: the wedged consumer was flagged.
	if len(rep.Wedged) != 1 {
		t.Fatalf("wedged = %v, want exactly one victim", rep.Wedged)
	}
	found := false
	for _, name := range rep.Lagging {
		if name == rep.Wedged[0] {
			found = true
		}
	}
	if !found {
		t.Errorf("lag detector missed the wedged peer %s (lagging: %v)", rep.Wedged[0], rep.Lagging)
	}
	// Throughput and latency actually measured.
	if rep.Latency.Samples == 0 {
		t.Error("no latency samples")
	}
	if rep.MsgsPerSec <= 0 {
		t.Error("msgs/sec not measured")
	}
	// Counter totals come from /metrics scrapes: a renamed series would
	// read as zero here rather than fail a scrape.
	if rep.Node.Delivered == 0 || rep.Node.Forwarded == 0 || rep.Node.Shuffles == 0 ||
		rep.Node.VicExchanges == 0 || rep.Transport.FramesSent == 0 || rep.Transport.BytesSent == 0 {
		t.Errorf("report counter totals not scraped: node %+v transport %+v", rep.Node, rep.Transport)
	}
	if len(rep.MetricsSamples) == 0 {
		t.Error("no /metrics trail recorded")
	}
}

// waitProc polls p until cond holds or the deadline passes.
func waitProc(t *testing.T, p *proc, d time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestSupervisorRestartsCrashedNode(t *testing.T) {
	if testing.Short() {
		t.Skip("live soak needs subprocesses; skipped under -short")
	}
	cfg, err := Config{
		N:              3,
		NodeBin:        nodeBin,
		LogDir:         t.TempDir(),
		GossipInterval: 60 * time.Millisecond,
		Seed:           7,
	}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	f := newFleet(cfg)
	defer f.shutdown()
	if err := f.launchAll(ctx); err != nil {
		t.Fatal(err)
	}
	if err := f.awaitMesh(ctx); err != nil {
		t.Fatal(err)
	}
	f.startSupervisors()

	victim := f.procs[2]
	victim.mu.Lock()
	oldPID, oldRing, oldCtl := victim.pid, victim.ringID, victim.controlAddr
	victim.mu.Unlock()
	victim.kill()

	waitProc(t, victim, 30*time.Second, func() bool {
		victim.mu.Lock()
		defer victim.mu.Unlock()
		return victim.restarts == 1 && victim.state == stateUp && victim.pid != oldPID
	}, "supervisor restart")
	victim.mu.Lock()
	newRing, newCtl := victim.ringID, victim.controlAddr
	victim.mu.Unlock()
	// Same seed, same pinned ports: the restarted process is the same ring
	// member, so the scenario driver's arc resolution stays valid.
	if newRing != oldRing {
		t.Errorf("ring ID changed across restart: %d -> %d", oldRing, newRing)
	}
	if newCtl != oldCtl {
		t.Errorf("control address changed across restart: %s -> %s", oldCtl, newCtl)
	}
	// The restarted node answers on the control surface and on /metrics
	// (whose port is ephemeral, re-read from the new ready line).
	c, err := DialControl(newCtl, 5*time.Second)
	if err != nil {
		t.Fatalf("dial restarted node: %v", err)
	}
	defer c.Close()
	if _, err := c.Status(); err != nil {
		t.Errorf("status from restarted node: %v", err)
	}
	if _, err := victim.scrape(5 * time.Second); err != nil {
		t.Errorf("scrape restarted node: %v", err)
	}
}

func TestSupervisorDetectsCrashLoop(t *testing.T) {
	if testing.Short() {
		t.Skip("needs subprocesses; skipped under -short")
	}
	// A fake node that completes the ready handshake and then dies,
	// forever: the supervisor must give up after CrashLoopMax crashes
	// instead of restarting it until the heat death of CI.
	dir := t.TempDir()
	script := filepath.Join(dir, "crashy")
	body := "#!/bin/sh\necho \"SOAK ready addr=127.0.0.1:9 control=127.0.0.1:9 id=1 pid=$$ metrics=127.0.0.1:9\"\nsleep 0.05\nexit 1\n"
	if err := os.WriteFile(script, []byte(body), 0o755); err != nil {
		t.Fatal(err)
	}
	cfg, err := Config{
		N:               2,
		NodeBin:         script,
		CrashLoopMax:    3,
		CrashLoopWindow: 30 * time.Second,
	}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	f := newFleet(cfg)
	defer f.shutdown()
	if err := f.launchAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	f.startSupervisors()

	for _, p := range f.procs {
		waitProc(t, p, 30*time.Second, func() bool {
			st, _ := p.snapshot()
			return st == stateCrashLoop
		}, "crash-loop verdict for "+p.name)
	}
	f.smu.Lock()
	loops := len(f.crashLoop)
	f.smu.Unlock()
	if loops != 2 {
		t.Errorf("crashLoop records = %d, want 2", loops)
	}
	for _, p := range f.procs {
		p.mu.Lock()
		crashes := len(p.crashes)
		p.mu.Unlock()
		if crashes < cfg.CrashLoopMax {
			t.Errorf("%s: %d crashes recorded, want >= %d", p.name, crashes, cfg.CrashLoopMax)
		}
	}
}

// TestRestartRepublishGatesWithFreshEpoch is the restart-identity
// regression: a supervised restart reuses the node's seed and ports, so
// its fresh publish counter would reproduce pre-crash message IDs and the
// survivors' dedup filters would swallow every post-restart publish. The
// incarnation epoch (-epoch, wired from the supervisor's restart count)
// separates the ID spaces: a republish after the crash must carry epoch 1
// and must reach the survivors' ledgers.
func TestRestartRepublishGatesWithFreshEpoch(t *testing.T) {
	if testing.Short() {
		t.Skip("live soak needs subprocesses; skipped under -short")
	}
	cfg, err := Config{
		N:              3,
		NodeBin:        nodeBin,
		LogDir:         t.TempDir(),
		GossipInterval: 60 * time.Millisecond,
		Seed:           11,
	}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	f := newFleet(cfg)
	defer f.shutdown()
	if err := f.launchAll(ctx); err != nil {
		t.Fatal(err)
	}
	if err := f.awaitMesh(ctx); err != nil {
		t.Fatal(err)
	}
	f.startSupervisors()

	victim := f.procs[0]
	pre, err := func() (PubAck, error) {
		c, err := DialControl(victim.control(), 5*time.Second)
		if err != nil {
			return PubAck{}, err
		}
		defer c.Close()
		return c.Publish(DefaultTopic, "before crash")
	}()
	if err != nil {
		t.Fatalf("pre-crash publish: %v", err)
	}
	if pre.Epoch != 0 {
		t.Fatalf("first incarnation published epoch %d, want 0", pre.Epoch)
	}

	victim.mu.Lock()
	oldPID := victim.pid
	victim.mu.Unlock()
	victim.kill()
	waitProc(t, victim, 30*time.Second, func() bool {
		victim.mu.Lock()
		defer victim.mu.Unlock()
		return victim.restarts == 1 && victim.state == stateUp && victim.pid != oldPID
	}, "supervisor restart")

	c, err := DialControl(victim.control(), 5*time.Second)
	if err != nil {
		t.Fatalf("dial restarted node: %v", err)
	}
	defer c.Close()
	post, err := c.Publish(DefaultTopic, "after crash")
	if err != nil {
		t.Fatalf("post-crash publish: %v", err)
	}
	if post.Epoch != 1 {
		t.Errorf("post-restart publish epoch = %d, want 1", post.Epoch)
	}
	if post.Origin != pre.Origin || post.Seq != pre.Seq {
		// The fresh counter restarting at the same sequence is the very
		// collision premise; if it ever changes, the epoch still protects
		// the ID space but this regression loses its bite.
		t.Logf("note: post-restart seq %d/%d no longer mirrors pre-crash %d/%d",
			post.Origin, post.Seq, pre.Origin, pre.Seq)
	}
	want := wire.MsgID{Origin: ident.ID(post.Origin), Epoch: post.Epoch, Seq: post.Seq}

	// Without the epoch the survivors' dedup would swallow this publish.
	// Poll both survivors until the post-restart ID is in their ledgers.
	for _, j := range []int{1, 2} {
		p := f.procs[j]
		waitProc(t, p, 30*time.Second, func() bool {
			sc, err := DialControl(p.control(), 2*time.Second)
			if err != nil {
				return false
			}
			defer sc.Close()
			entries, err := sc.Ledger(DefaultTopic)
			if err != nil {
				return false
			}
			for _, e := range entries {
				got := wire.MsgID{Origin: ident.ID(e.Origin), Epoch: e.Epoch, Seq: e.Seq}
				if got == want {
					return true
				}
			}
			return false
		}, fmt.Sprintf("post-restart publish in %s's ledger", p.name))
	}
}
