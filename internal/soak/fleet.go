package soak

// Fleet state: the supervised processes, the remote fault surfaces the
// scenario driver programs, the publish ledger the completeness gate
// checks, and the schedule-derived gating plan. The gate follows the
// paper's one-shot dissemination semantics: a publish is only expected at
// nodes reachable from the origin at publish time, and publishes inside a
// guard window around any scheduled fault transition (or a node's own
// lifecycle transition) are measured but not gated, because their outcome
// is a race by construction, not a verdict on the protocol.

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"ringcast/internal/runner"
	"ringcast/internal/wire"
)

// remoteFaults implements scenario.FaultSurface and scenario.ParamSurface
// over the control protocol. It records the desired state under its mutex
// and performs the network call outside it (the lockio contract), so the
// supervisor can replay the state onto a restarted process and the gate can
// ask "who is partitioned from whom" without touching the network.
type remoteFaults struct {
	f *fleet
	p *proc

	mu      sync.Mutex
	blocked map[string]bool
	loss    float64
	params  map[string]string // desired config-engine overrides, by key
}

func newRemoteFaults(f *fleet, p *proc) *remoteFaults {
	return &remoteFaults{f: f, p: p, blocked: make(map[string]bool), params: make(map[string]string)}
}

// Block implements scenario.FaultSurface.
func (r *remoteFaults) Block(addrs ...string) {
	r.mu.Lock()
	for _, a := range addrs {
		r.blocked[a] = true
	}
	r.mu.Unlock()
	r.send(func(c *Client) error { return c.Block(addrs...) })
}

// Unblock implements scenario.FaultSurface.
func (r *remoteFaults) Unblock(addrs ...string) {
	r.mu.Lock()
	for _, a := range addrs {
		delete(r.blocked, a)
	}
	r.mu.Unlock()
	r.send(func(c *Client) error { return c.Unblock(addrs...) })
}

// HealAll implements scenario.FaultSurface.
func (r *remoteFaults) HealAll() {
	r.mu.Lock()
	r.blocked = make(map[string]bool)
	r.mu.Unlock()
	r.send(func(c *Client) error { return c.Heal() })
}

// SetLoss implements scenario.FaultSurface.
func (r *remoteFaults) SetLoss(rate float64) {
	r.mu.Lock()
	r.loss = rate
	r.mu.Unlock()
	r.send(func(c *Client) error { return c.SetLoss(rate) })
}

// SetParam implements scenario.ParamSurface: it records the desired
// config-engine override (so a supervised restart replays it — a relaunched
// process boots with its flag-derived defaults) and pushes it through the
// control protocol.
func (r *remoteFaults) SetParam(key, value string) {
	r.mu.Lock()
	r.params[key] = value
	r.mu.Unlock()
	r.send(func(c *Client) error { return c.SetParam(key, value) })
}

// blocks reports the desired state for one destination.
func (r *remoteFaults) blocks(addr string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.blocked[addr]
}

// send dials a short-lived control client for one fault command. Faults
// change at scenario-step cadence, so connection churn is negligible and
// each caller (driver, supervisor) stays free of shared-client locking.
func (r *remoteFaults) send(op func(*Client) error) {
	c, err := DialControl(r.p.control(), 5*time.Second)
	if err != nil {
		r.f.note("fault program %s: %v", r.p.name, err)
		return
	}
	defer c.Close()
	if err := op(c); err != nil {
		r.f.note("fault program %s: %v", r.p.name, err)
	}
}

// replay re-programs the desired fault and config state onto a freshly
// restarted process, whose injector and config engine came up clean.
func (r *remoteFaults) replay() {
	r.mu.Lock()
	addrs := make([]string, 0, len(r.blocked))
	for a := range r.blocked {
		addrs = append(addrs, a)
	}
	sort.Strings(addrs)
	loss := r.loss
	keys := make([]string, 0, len(r.params))
	for k := range r.params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	params := make(map[string]string, len(r.params))
	for k, v := range r.params {
		params[k] = v
	}
	r.mu.Unlock()
	r.send(func(c *Client) error {
		if err := c.Heal(); err != nil {
			return err
		}
		if len(addrs) > 0 {
			if err := c.Block(addrs...); err != nil {
				return err
			}
		}
		if loss > 0 {
			if err := c.SetLoss(loss); err != nil {
				return err
			}
		}
		for _, k := range keys {
			if err := c.SetParam(k, params[k]); err != nil {
				return err
			}
		}
		return nil
	})
}

// pubRecord is one published message and its completeness expectation.
type pubRecord struct {
	topic  string
	id     wire.MsgID
	origin int   // proc index
	at     int64 // publish instant, Unix nanoseconds
	gated  bool
	// expected lists proc indices the message must reach (gated only).
	expected []int
}

// fleet owns the supervised processes and every cross-cutting counter.
type fleet struct {
	cfg    Config
	topics []string
	procs  []*proc

	done       chan struct{} // closed once, at shutdown
	stopOnce   sync.Once
	wg         sync.WaitGroup
	supervised bool // startSupervisors ran (set before any goroutine reads it)

	// gatePlan is derived from the scenario schedule at publish-phase
	// start; nil until then.
	gmu  sync.Mutex
	plan *gatePlan

	pmu       sync.Mutex
	records   []pubRecord
	published int
	pubErrs   int

	// mmu guards node 0's scraped metrics trail.
	mmu        sync.Mutex
	metricsLog []MetricSample

	smu       sync.Mutex
	kills     int
	crashLoop []string
	lagging   map[string]time.Time
	wedged    map[int]bool
	wedgeAt   map[int]time.Time // last wedge/unwedge transition per proc
	wedgedLog []string
	notes     []string
}

func newFleet(cfg Config) *fleet {
	return &fleet{
		cfg:     cfg,
		topics:  cfg.Topics,
		done:    make(chan struct{}),
		lagging: make(map[string]time.Time),
		wedged:  make(map[int]bool),
		wedgeAt: make(map[int]time.Time),
	}
}

// stopping reports whether shutdown began.
func (f *fleet) stopping() bool {
	select {
	case <-f.done:
		return true
	default:
		return false
	}
}

// stop begins shutdown; supervisors stop restarting.
func (f *fleet) stop() {
	f.stopOnce.Do(func() { close(f.done) })
}

// note records a non-fatal observation for the report.
func (f *fleet) note(format string, args ...any) {
	f.smu.Lock()
	f.notes = append(f.notes, fmt.Sprintf(format, args...))
	f.smu.Unlock()
}

// recordPub appends one publish record.
func (f *fleet) recordPub(r pubRecord) {
	f.pmu.Lock()
	f.records = append(f.records, r)
	f.published++
	f.pmu.Unlock()
}

// pubCount returns how many publishes succeeded so far (the lag detector's
// "was the fleet publishing" signal).
func (f *fleet) pubCount() int {
	f.pmu.Lock()
	defer f.pmu.Unlock()
	return f.published
}

// notePubErr counts a failed publish attempt.
func (f *fleet) notePubErr() {
	f.pmu.Lock()
	f.pubErrs++
	f.pmu.Unlock()
}

// setWedged stamps a wedge-state transition for proc i.
func (f *fleet) setWedged(i int, wedged bool) {
	f.smu.Lock()
	f.wedged[i] = wedged
	f.wedgeAt[i] = time.Now()
	if wedged {
		f.wedgedLog = append(f.wedgedLog, f.procs[i].name)
	}
	f.smu.Unlock()
}

// wedgeState reports proc i's wedge flag and last transition.
func (f *fleet) wedgeState(i int) (bool, time.Time) {
	f.smu.Lock()
	defer f.smu.Unlock()
	return f.wedged[i], f.wedgeAt[i]
}

// flagLag records a lag detection for proc i (first detection wins).
func (f *fleet) flagLag(i int) {
	f.smu.Lock()
	name := f.procs[i].name
	if _, dup := f.lagging[name]; !dup {
		f.lagging[name] = time.Now()
	}
	f.smu.Unlock()
}

// killByAddr force-stops the process whose transport address matches,
// counting it as a scenario-injected kill.
func (f *fleet) killByAddr(addr string) {
	for _, p := range f.procs {
		if p.addr() == addr {
			f.smu.Lock()
			f.kills++
			f.smu.Unlock()
			f.note("scenario killed %s", p.name)
			p.kill()
			return
		}
	}
}

// liveBootstrap returns a join target for a restarting process: the
// transport address of the lowest-index process currently up that the
// restarter is not partitioned from (joining across an active partition
// would stall the join handshake until the retry deadline kills the
// launch). Falls back to process 0's pinned address.
func (f *fleet) liveBootstrap(exclude int) string {
	for i, p := range f.procs {
		if i == exclude {
			continue
		}
		if st, _ := p.snapshot(); st == stateUp && !f.blockedBetween(exclude, i) {
			return p.addr()
		}
	}
	return f.procs[0].addr()
}

// blockedBetween reports whether the desired fault state severs the pair
// in either direction.
func (f *fleet) blockedBetween(i, j int) bool {
	return f.procs[i].faults.blocks(f.procs[j].addr()) ||
		f.procs[j].faults.blocks(f.procs[i].addr())
}

// partitionActive reports whether any desired block exists anywhere.
func (f *fleet) partitionActive() bool {
	for _, p := range f.procs {
		p.faults.mu.Lock()
		n := len(p.faults.blocked)
		p.faults.mu.Unlock()
		if n > 0 {
			return true
		}
	}
	return false
}

// supervise is the per-process supervisor loop: wait for exit, classify,
// back off, relaunch on the pinned ports with the same seed, replay the
// desired fault state, repeat. It gives up on a crash loop.
func (f *fleet) supervise(p *proc) {
	defer f.wg.Done()
	backoff := 100 * time.Millisecond
	const backoffMax = 3 * time.Second
	for {
		p.mu.Lock()
		cmd := p.cmd
		p.mu.Unlock()
		err := cmd.Wait()
		if f.stopping() {
			p.setState(stateStopped)
			return
		}
		if p.noteCrash(f.cfg.CrashLoopWindow, f.cfg.CrashLoopMax) {
			p.setState(stateCrashLoop)
			f.smu.Lock()
			f.crashLoop = append(f.crashLoop, p.name)
			f.smu.Unlock()
			f.note("%s crash-looped; supervisor gave up", p.name)
			return
		}
		p.setState(stateDown)
		f.note("%s exited (%v); restarting", p.name, err)

		for {
			timer := time.NewTimer(backoff)
			select {
			case <-f.done:
				timer.Stop()
				p.setState(stateStopped)
				return
			case <-timer.C:
			}
			spec := f.launchSpec(p, f.liveBootstrap(p.idx))
			// Relaunch binds the SAME ports; the old process image is gone
			// so the address is free modulo TIME_WAIT, which SO_REUSEADDR
			// (Go's listener default) tolerates.
			spec.listen = p.addr()
			spec.control = p.control()
			if err := p.launch(spec, f.done); err != nil {
				f.note("%s relaunch: %v", p.name, err)
				if backoff *= 2; backoff > backoffMax {
					backoff = backoffMax
				}
				if f.stopping() {
					p.setState(stateStopped)
					return
				}
				continue
			}
			backoff = 100 * time.Millisecond
			p.faults.replay()
			break
		}
	}
}

// launchSpec builds the launch parameters for one process. The epoch is
// the restart counter: a relaunched process publishes under a fresh
// incarnation so its restarted sequence numbers cannot collide with (and be
// dedup-swallowed as) its pre-crash message IDs.
func (f *fleet) launchSpec(p *proc, join string) launchSpec {
	p.mu.Lock()
	epoch := p.restarts
	p.mu.Unlock()
	spec := launchSpec{
		bin:      f.cfg.NodeBin,
		listen:   f.cfg.Host + ":0",
		control:  f.cfg.Host + ":0",
		metrics:  f.cfg.Host + ":0",
		join:     join,
		topics:   f.cfg.Topics,
		interval: f.cfg.GossipInterval,
		fanout:   f.cfg.Fanout,
		seed:     p.seed,
		epoch:    epoch,
		logPath:  logPath(f.cfg.LogDir, p.name),
		timeout:  30 * time.Second,
	}
	return spec
}

// launchAll starts the whole fleet: process 0 first (the bootstrap), the
// rest concurrently against it.
func (f *fleet) launchAll(ctx context.Context) error {
	for i := 0; i < f.cfg.N; i++ {
		p := &proc{idx: i, name: fmt.Sprintf("node-%03d", i), seed: f.cfg.Seed + int64(i)}
		p.faults = newRemoteFaults(f, p)
		f.procs = append(f.procs, p)
	}
	if err := f.procs[0].launch(f.launchSpec(f.procs[0], ""), f.done); err != nil {
		return err
	}
	join := f.procs[0].addr()

	// Bounded launch concurrency: hundreds of simultaneous exec+join storms
	// would contend on the bootstrap; 16 at a time keeps the ramp smooth.
	// Each launch observes ctx (fail fast on cancellation) and f.done (the
	// fleet's own shutdown) inside proc.launch.
	return runner.Map(16, len(f.procs)-1, nil, func(i int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		p := f.procs[i+1]
		return p.launch(f.launchSpec(p, join), f.done)
	})
}

// startSupervisors hands every launched process to its supervisor loop.
func (f *fleet) startSupervisors() {
	f.supervised = true
	for _, p := range f.procs {
		f.wg.Add(1)
		go f.supervise(p)
	}
}

// shutdown quits every process (best effort), force-kills stragglers and
// waits for the supervisors to drain. Safe to call at any point after
// launchAll, including on early-exit error paths before supervision began.
func (f *fleet) shutdown() {
	f.stop()
	for _, p := range f.procs {
		if st, _ := p.snapshot(); st != stateUp {
			continue
		}
		if c, err := DialControl(p.control(), 2*time.Second); err == nil {
			c.Quit()
			c.Close()
		}
	}
	// Give clean quits a moment (the supervisors observe f.done, reap the
	// exit and stop restarting), then kill whatever is left.
	if f.supervised {
		deadline := time.Now().Add(3 * time.Second)
		for _, p := range f.procs {
			for time.Now().Before(deadline) {
				if st, _ := p.snapshot(); st == stateStopped || st == stateCrashLoop {
					break
				}
				time.Sleep(50 * time.Millisecond)
			}
		}
	}
	for _, p := range f.procs {
		p.kill()
	}
	if !f.supervised {
		// No supervisor owns cmd.Wait yet; reap here to avoid zombies.
		for _, p := range f.procs {
			p.mu.Lock()
			cmd := p.cmd
			p.mu.Unlock()
			if cmd != nil {
				cmd.Wait()
			}
		}
	}
	f.wg.Wait()
}
