package soak

// Process supervision: launching ringcast-node processes, parsing their
// ready handshake, restarting them on crash with exponential backoff, and
// detecting crash loops. A restarted process relaunches on the SAME listen
// and control ports with the SAME -seed, so it rejoins the ring under its
// original identifier and the scenario driver's arc resolution stays valid
// across restarts — the deterministic-identity half of an otherwise
// wall-clock, real-socket harness.

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"
)

// procState is one supervised process's lifecycle phase.
type procState int

const (
	// stateStarting covers launch until the ready handshake.
	stateStarting procState = iota
	// stateUp means the ready handshake completed and the node serves.
	stateUp
	// stateDown means the process exited and a restart is pending.
	stateDown
	// stateCrashLoop means the supervisor gave up after repeated crashes.
	stateCrashLoop
	// stateStopped means the fleet is shutting down deliberately.
	stateStopped
)

// String renders the state for reports and errors.
func (s procState) String() string {
	switch s {
	case stateStarting:
		return "starting"
	case stateUp:
		return "up"
	case stateDown:
		return "down"
	case stateCrashLoop:
		return "crashloop"
	case stateStopped:
		return "stopped"
	}
	return "unknown"
}

// readyInfo is the parsed SOAK ready handshake line.
type readyInfo struct {
	addr    string
	control string
	metrics string // /metrics listen address
	id      uint64
	pid     int
}

// parseReady recognizes the "SOAK ready addr=... control=... id=... pid=...
// metrics=..." handshake ringcast-node prints once its control surface
// serves. The harness launches every node with -metrics and reads every
// counter there, so a line without metrics= is not a ready line.
func parseReady(line string) (readyInfo, bool) {
	if !strings.HasPrefix(line, "SOAK ready ") {
		return readyInfo{}, false
	}
	var ri readyInfo
	for _, kv := range strings.Fields(line[len("SOAK ready "):]) {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			continue
		}
		switch k {
		case "addr":
			ri.addr = v
		case "control":
			ri.control = v
		case "metrics":
			ri.metrics = v
		case "id":
			ri.id, _ = strconv.ParseUint(v, 10, 64)
		case "pid":
			ri.pid, _ = strconv.Atoi(v)
		}
	}
	return ri, ri.addr != "" && ri.control != "" && ri.metrics != ""
}

// proc is one supervised ringcast-node process.
type proc struct {
	idx  int
	name string
	seed int64

	faults *remoteFaults

	mu          sync.Mutex
	state       procState
	since       time.Time // last state transition
	listenAddr  string    // pinned after the first launch
	controlAddr string
	metricsAddr string // re-read on every launch (ephemeral port)
	ringID      uint64
	pid         int
	cmd         *exec.Cmd
	restarts    int
	crashes     []time.Time // crash instants inside the crash-loop window
	everCrashed bool
	firstCrash  time.Time
}

// snapshot returns the mutable fields the gate and probe logic reads.
func (p *proc) snapshot() (state procState, since time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.state, p.since
}

// setState stamps a lifecycle transition.
func (p *proc) setState(s procState) {
	p.mu.Lock()
	p.state = s
	p.since = time.Now()
	p.mu.Unlock()
}

// control returns the pinned control address.
func (p *proc) control() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.controlAddr
}

// addr returns the pinned transport address.
func (p *proc) addr() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.listenAddr
}

// metrics returns the current /metrics address.
func (p *proc) metrics() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.metricsAddr
}

// kill force-stops the current process image (the supervisor restarts it).
func (p *proc) kill() {
	p.mu.Lock()
	cmd := p.cmd
	p.mu.Unlock()
	if cmd != nil && cmd.Process != nil {
		cmd.Process.Kill()
	}
}

// crashed reports whether the process ever crashed.
func (p *proc) crashed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.everCrashed
}

// noteCrash records a crash instant and reports whether the process is
// crash-looping: more than max crashes inside window.
func (p *proc) noteCrash(window time.Duration, max int) bool {
	now := time.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	p.restarts++
	if !p.everCrashed {
		p.everCrashed = true
		p.firstCrash = now
	}
	keep := p.crashes[:0]
	for _, t := range p.crashes {
		if now.Sub(t) <= window {
			keep = append(keep, t)
		}
	}
	p.crashes = append(keep, now)
	return len(p.crashes) >= max
}

// launchSpec carries the per-launch parameters the fleet computes.
type launchSpec struct {
	bin      string
	listen   string
	control  string
	metrics  string // /metrics listen address
	join     string
	topics   []string
	interval time.Duration
	fanout   int
	seed     int64
	epoch    int    // incarnation counter; >0 only on supervised restarts
	logPath  string // empty = discard
	timeout  time.Duration
}

// launch starts one ringcast-node process and waits for its ready
// handshake. On success the proc's addresses, ring ID and pid are pinned
// and a drain goroutine keeps copying the process's output (to the log
// file, when configured) until the process exits.
func (p *proc) launch(spec launchSpec, done <-chan struct{}) error {
	args := []string{
		"-listen", spec.listen,
		"-control", spec.control,
		"-interval", spec.interval.String(),
		"-fanout", strconv.Itoa(spec.fanout),
		"-seed", strconv.FormatInt(spec.seed, 10),
		"-metrics", spec.metrics,
		"-topics", strings.Join(spec.topics, ","),
	}
	if spec.epoch > 0 {
		args = append(args, "-epoch", strconv.Itoa(spec.epoch))
	}
	if spec.join != "" {
		args = append(args, "-join", spec.join)
	}
	cmd := exec.Command(spec.bin, args...)
	var logW io.WriteCloser
	if spec.logPath != "" {
		f, err := os.OpenFile(spec.logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("soak: open log %s: %w", spec.logPath, err)
		}
		logW = f
		cmd.Stderr = f
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		if logW != nil {
			logW.Close()
		}
		return err
	}
	if err := cmd.Start(); err != nil {
		if logW != nil {
			logW.Close()
		}
		return fmt.Errorf("soak: start %s: %w", p.name, err)
	}

	// The drain goroutine owns stdout until process exit: it surfaces the
	// ready handshake once, then keeps the pipe flowing (a full pipe would
	// wedge the node) and mirrors lines into the log. It exits at EOF when
	// the process dies, so it cannot leak past the process it serves.
	ready := make(chan readyInfo, 1)
	eof := make(chan struct{})
	go func() {
		defer close(eof)
		sc := bufio.NewScanner(stdout)
		sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			if logW != nil {
				fmt.Fprintln(logW, line)
			}
			if ri, ok := parseReady(line); ok {
				select {
				case ready <- ri:
				default:
				}
			}
		}
		if logW != nil {
			logW.Close()
		}
	}()

	adopt := func(ri readyInfo) {
		p.mu.Lock()
		p.cmd = cmd
		p.listenAddr = ri.addr
		p.controlAddr = ri.control
		p.metricsAddr = ri.metrics
		p.ringID = ri.id
		p.pid = ri.pid
		p.state = stateUp
		p.since = time.Now()
		p.mu.Unlock()
	}
	timer := time.NewTimer(spec.timeout)
	defer timer.Stop()
	select {
	case ri := <-ready:
		adopt(ri)
		return nil
	case <-eof:
		// The process exited (or closed stdout) before — or racing with —
		// the handshake; the ready send wins if it happened.
		select {
		case ri := <-ready:
			adopt(ri)
			return nil
		default:
		}
		cmd.Wait()
		return fmt.Errorf("soak: %s: exited before the ready handshake", p.name)
	case <-timer.C:
		cmd.Process.Kill()
		cmd.Wait()
		return fmt.Errorf("soak: %s: no ready handshake within %s", p.name, spec.timeout)
	case <-done:
		cmd.Process.Kill()
		cmd.Wait()
		return fmt.Errorf("soak: %s: fleet shut down during launch", p.name)
	}
}

// logPath names the process's log file inside dir ("" stays "").
func logPath(dir, name string) string {
	if dir == "" {
		return ""
	}
	return filepath.Join(dir, name+".log")
}
