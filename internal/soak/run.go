package soak

// Run orchestration: launch, mesh barrier, supervised publish phase under
// scenario control, drain, ledger collection, report. Callable from go
// test at small N and from cmd/ringcast-soak at large N; the two differ
// only in Config.

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"ringcast/internal/ident"
	"ringcast/internal/scenario"
	"ringcast/internal/wire"
)

// Run executes one soak: it launches cfg.N ringcast-node processes,
// bootstraps them onto one mesh per topic, then runs the publish phase for
// cfg.Duration while the scenario timeline advances one step per
// StepInterval, the supervisor restarts crashed processes, and the prober
// watches for lagging peers. Afterwards it heals every fault, drains
// in-flight deliveries, collects the per-node delivery ledgers and builds
// the completeness report. The fleet is always torn down before Run
// returns.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	f := newFleet(cfg)
	defer f.shutdown()
	if err := f.launchAll(ctx); err != nil {
		return nil, err
	}
	if err := f.awaitMesh(ctx); err != nil {
		return nil, err
	}
	f.startSupervisors()

	var drv *scenario.Driver
	if cfg.Scenario.Name != "" && len(cfg.Scenario.Events) > 0 {
		members := make([]scenario.Member, 0, len(f.procs))
		for _, p := range f.procs {
			members = append(members, scenario.Member{
				Addr:   p.addr(),
				ID:     ident.ID(p.ringID),
				Faults: p.faults,
				Params: p.faults,
			})
		}
		drv, err = scenario.NewDriver(cfg.Scenario, members)
		if err != nil {
			return nil, err
		}
		drv.OnKill = func(m scenario.Member) { f.killByAddr(m.Addr) }
	}

	start := time.Now()
	f.setPlan(newGatePlan(cfg, start))
	phase, cancel := context.WithCancel(ctx)
	defer cancel()
	var pg sync.WaitGroup
	pg.Add(3)
	go func() { defer pg.Done(); f.probeLoop(phase) }()
	go func() { defer pg.Done(); f.publishLoop(phase) }()
	go func() { defer pg.Done(); f.metricsLoop(phase) }()
	if drv != nil {
		pg.Add(1)
		go func() { defer pg.Done(); f.driveLoop(phase, drv) }()
	}
	if cfg.WedgeAfter > 0 {
		pg.Add(1)
		go func() { defer pg.Done(); f.wedgeLoop(phase) }()
	}

	phaseTimer := time.NewTimer(cfg.Duration)
	defer phaseTimer.Stop()
	select {
	case <-phaseTimer.C:
	case <-ctx.Done():
		cancel()
		pg.Wait()
		return nil, ctx.Err()
	}
	cancel()
	pg.Wait()
	elapsed := time.Since(start)

	f.drain(ctx)
	ledgers := f.collectLedgers()
	return f.buildReport(ledgers, elapsed), nil
}

// awaitMesh blocks until every process reports a formed ring on every
// topic AND the rings are globally consistent (each node's pred/succ match
// the sorted per-topic ID circle), or the ready timeout expires. The
// completeness gate leans on formed rings — the paper's guarantee rides on
// the ring path — so a fleet that cannot form one is a setup failure, not
// a soak verdict.
func (f *fleet) awaitMesh(ctx context.Context) error {
	n := len(f.procs)
	clients := make([]*Client, n)
	defer func() {
		for _, c := range clients {
			if c != nil {
				c.Close()
			}
		}
	}()
	deadline := time.Now().Add(f.cfg.ReadyTimeout)
	var lastErr error
	for {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("soak: mesh did not form within %s (last: %v)", f.cfg.ReadyTimeout, lastErr)
		}
		statuses := make([]map[string]TopicStatus, n)
		ok := true
		for i, p := range f.procs {
			if clients[i] == nil {
				c, err := DialControl(p.control(), 2*time.Second)
				if err != nil {
					ok, lastErr = false, err
					break
				}
				clients[i] = c
			}
			st, err := clients[i].Status()
			if err != nil {
				clients[i].Close()
				clients[i] = nil
				ok, lastErr = false, err
				break
			}
			statuses[i] = st
		}
		if ok {
			lastErr = f.ringsConsistent(statuses)
			if lastErr == nil {
				return nil
			}
		}
		timer := time.NewTimer(250 * time.Millisecond)
		select {
		case <-ctx.Done():
			timer.Stop()
			return ctx.Err()
		case <-timer.C:
		}
	}
}

// ringsConsistent checks every topic's ring: all nodes present, and each
// node's pred/succ equal to its neighbors in the sorted ID circle.
func (f *fleet) ringsConsistent(statuses []map[string]TopicStatus) error {
	for _, topic := range f.topics {
		ids := make([]uint64, 0, len(statuses))
		for i, st := range statuses {
			ts, ok := st[topic]
			if !ok || !ts.Ring {
				return fmt.Errorf("%s: no ring on topic %s yet", f.procs[i].name, topic)
			}
			ids = append(ids, ts.ID)
		}
		sorted := append([]uint64(nil), ids...)
		sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
		pos := make(map[uint64]int, len(sorted))
		for i, id := range sorted {
			pos[id] = i
		}
		for i, st := range statuses {
			ts := st[topic]
			at := pos[ts.ID]
			wantPred := sorted[(at-1+len(sorted))%len(sorted)]
			wantSucc := sorted[(at+1)%len(sorted)]
			if ts.Pred != wantPred || ts.Succ != wantSucc {
				return fmt.Errorf("%s: ring on topic %s not yet global", f.procs[i].name, topic)
			}
		}
	}
	return nil
}

// publishLoop sustains the configured publish rate, round-robining topics
// and origins over the stable part of the fleet, and records each publish
// with its completeness expectation.
func (f *fleet) publishLoop(ctx context.Context) {
	n := len(f.procs)
	clients := make([]*Client, n)
	defer func() {
		for _, c := range clients {
			if c != nil {
				c.Close()
			}
		}
	}()
	tick := time.NewTicker(time.Second / time.Duration(f.cfg.PublishRate))
	defer tick.Stop()
	seq := 0
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		seq++
		topic := f.topics[seq%len(f.topics)]
		origin := f.pickOrigin(seq)
		if origin < 0 {
			f.notePubErr()
			continue
		}
		if clients[origin] == nil {
			c, err := DialControl(f.procs[origin].control(), 2*time.Second)
			if err != nil {
				f.notePubErr()
				continue
			}
			clients[origin] = c
		}
		ack, err := clients[origin].Publish(topic, "s"+strconv.Itoa(origin)+"-m"+strconv.Itoa(seq))
		if err != nil {
			clients[origin].Close()
			clients[origin] = nil
			f.notePubErr()
			continue
		}
		at := time.Unix(0, ack.T)
		gated, expected := f.gatePublish(origin, topic, at)
		f.recordPub(pubRecord{
			topic:    topic,
			id:       wire.MsgID{Origin: ident.ID(ack.Origin), Epoch: ack.Epoch, Seq: ack.Seq},
			origin:   origin,
			at:       ack.T,
			gated:    gated,
			expected: expected,
		})
	}
}

// pickOrigin round-robins over processes that are up, settled and not
// wedged; -1 when none qualify. Crash survivors are eligible origins: a
// restarted process publishes under a fresh incarnation epoch, so its
// restarted sequence counter cannot reproduce pre-crash message IDs and
// the fleet's dedup caches deliver its publishes like anyone else's.
func (f *fleet) pickOrigin(seq int) int {
	n := len(f.procs)
	now := time.Now()
	for k := 0; k < n; k++ {
		i := (seq + k) % n
		if f.stableFor(i, now, f.cfg.Guard) {
			return i
		}
	}
	return -1
}

// driveLoop advances the scenario one step per StepInterval, returning
// once the timeline is exhausted.
func (f *fleet) driveLoop(ctx context.Context, drv *scenario.Driver) {
	maxAt := 0
	for _, e := range f.cfg.Scenario.Events {
		if e.At > maxAt {
			maxAt = e.At
		}
	}
	drv.Advance(0)
	tick := time.NewTicker(f.cfg.StepInterval)
	defer tick.Stop()
	for step := 0; step < maxAt; {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			step++
			drv.Advance(step)
		}
	}
}

// wedgeLoop wedges one stable process WedgeAfter into the publish phase
// (simulating a stuck consumer) and unwedges it WedgeFor later. The drain
// phase unwedges again as a backstop, so an early phase end cannot leave a
// process wedged.
func (f *fleet) wedgeLoop(ctx context.Context) {
	arm := time.NewTimer(f.cfg.WedgeAfter)
	defer arm.Stop()
	select {
	case <-ctx.Done():
		return
	case <-arm.C:
	}
	victim := -1
	now := time.Now()
	for i := len(f.procs) - 1; i > 0; i-- {
		if !f.procs[i].crashed() && f.stableFor(i, now, f.cfg.Guard) {
			victim = i
			break
		}
	}
	if victim < 0 {
		f.note("wedge: no stable victim available")
		return
	}
	if !f.wedgeCmd(victim, true) {
		return
	}
	f.note("wedged %s for %s", f.procs[victim].name, f.cfg.WedgeFor)
	hold := time.NewTimer(f.cfg.WedgeFor)
	defer hold.Stop()
	select {
	case <-ctx.Done():
		// Drain unwedges; still record the transition now.
	case <-hold.C:
	}
	f.wedgeCmd(victim, false)
}

// wedgeCmd programs the wedge state on proc i's agent and mirrors it into
// the fleet's bookkeeping.
func (f *fleet) wedgeCmd(i int, wedge bool) bool {
	c, err := DialControl(f.procs[i].control(), 2*time.Second)
	if err != nil {
		f.note("wedge %s: %v", f.procs[i].name, err)
		return false
	}
	defer c.Close()
	if wedge {
		err = c.Wedge()
	} else {
		err = c.Unwedge()
	}
	if err != nil {
		f.note("wedge %s: %v", f.procs[i].name, err)
		return false
	}
	f.setWedged(i, wedge)
	return true
}

// drain ends the fault phase: unwedge everything, heal every partition,
// clear loss, then wait for the fleet-wide delivered count to go stable
// (or the drain timeout), so one-shot dissemination finishes before the
// ledgers are read.
func (f *fleet) drain(ctx context.Context) {
	f.smu.Lock()
	wedgedIdx := make([]int, 0, len(f.wedged))
	for i, w := range f.wedged {
		if w {
			wedgedIdx = append(wedgedIdx, i)
		}
	}
	f.smu.Unlock()
	sort.Ints(wedgedIdx)
	for _, i := range wedgedIdx {
		f.wedgeCmd(i, false)
	}
	for _, p := range f.procs {
		if st, _ := p.snapshot(); st == stateUp {
			p.faults.HealAll()
			p.faults.SetLoss(0)
		}
	}

	deadline := time.Now().Add(f.cfg.DrainTimeout)
	lastSum := -1.0
	stableSince := time.Now()
	for time.Now().Before(deadline) && ctx.Err() == nil {
		var sum float64
		for _, p := range f.procs {
			if st, _ := p.snapshot(); st != stateUp {
				continue
			}
			if series, err := p.scrape(2 * time.Second); err == nil {
				sum += series.Sum(deliveredFamily)
			}
		}
		if sum != lastSum {
			lastSum = sum
			stableSince = time.Now()
		} else if time.Since(stableSince) > 1200*time.Millisecond {
			return
		}
		time.Sleep(300 * time.Millisecond)
	}
}

// collectLedgers fetches every up process's per-topic delivery ledger.
// Processes that are down or crash-looped yield no ledger; their pairs are
// classified unverifiable by the report builder.
func (f *fleet) collectLedgers() map[int]map[string]map[wire.MsgID]int64 {
	out := make(map[int]map[string]map[wire.MsgID]int64)
	for i, p := range f.procs {
		if st, _ := p.snapshot(); st != stateUp {
			f.note("ledger: %s is %s at collection; its pairs are unverifiable", p.name, st)
			continue
		}
		c, err := DialControl(p.control(), 10*time.Second)
		if err != nil {
			f.note("ledger: dial %s: %v", p.name, err)
			continue
		}
		byTopic := make(map[string]map[wire.MsgID]int64, len(f.topics))
		fetchOK := true
		for _, topic := range f.topics {
			entries, err := c.Ledger(topic)
			if err != nil {
				f.note("ledger: %s topic %s: %v", p.name, topic, err)
				fetchOK = false
				break
			}
			m := make(map[wire.MsgID]int64, len(entries))
			for _, e := range entries {
				m[wire.MsgID{Origin: ident.ID(e.Origin), Epoch: e.Epoch, Seq: e.Seq}] = e.T
			}
			byTopic[topic] = m
		}
		c.Close()
		if fetchOK {
			out[i] = byTopic
		}
	}
	return out
}
