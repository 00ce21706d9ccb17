package main

import (
	"math"
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The host this benchmark runs on is a share of a machine, and its speed
// moves with its neighbours' load: the same code runs up to 1.7 times
// slower for stretches of a fraction of a second to many minutes, mostly
// with no stolen time to show for it. So the untraced runs time a fixed
// reference kernel beside the program and report the program's timing
// metrics at the reference host speed: each window's time is multiplied by
// the kernel's speed measured in that window (refNominalNS over the
// kernel's time). A change to the program moves the scaled metrics as it
// moves the raw ones; a change of host speed moves the kernel as well and
// cancels out. The report prints the raw figures beside the scaled ones.

const (
	// refNominalNS is the kernel's thread CPU time at the reference host
	// speed: about the median of the background probes on a 2-vCPU Xeon
	// VM.
	refNominalNS = 280_000
	// speedEvery is how often the background speedometer probes.
	speedEvery = 10 * time.Millisecond
)

// refKernel is the reference work: xorshift-driven updates of a small hash
// map, integer and branch work on a few kilobytes. It shares no code with
// the program, and its data fits a core's first-level cache, so what ran
// before it on the core costs it little. A refKernel serves one goroutine.
type refKernel struct {
	m map[uint64]uint64
	x uint64
}

func newRefKernel() *refKernel {
	return &refKernel{m: make(map[uint64]uint64, 512), x: 0x2545F4914F6CDD1D}
}

func (k *refKernel) work() {
	for i := 0; i < 10_000; i++ {
		k.x ^= k.x << 13
		k.x ^= k.x >> 7
		k.x ^= k.x << 17
		k.m[k.x&511] += k.x
		if len(k.m) >= 500 {
			clear(k.m)
		}
	}
}

// probe runs the kernel once on a locked OS thread and returns the host's
// speed: refNominalNS over the kernel's thread CPU time, so 1 at the
// reference speed and below 1 on a slower host. Thread CPU time leaves out
// the time other goroutines hold the CPU. Without a thread clock it
// returns 1, which leaves times unscaled.
func (k *refKernel) probe() float64 {
	runtime.LockOSThread()
	t0 := threadCPU()
	k.work()
	ns := threadCPU() - t0
	runtime.UnlockOSThread()
	if ns <= 0 {
		return 1
	}
	return refNominalNS / float64(ns)
}

// threadCPU returns the calling thread's CPU time in ns.
func threadCPU() int64 {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return ts.Nano()
}

// speedometer probes the host's speed every speedEvery from a goroutine of
// its own, for work spread over many goroutines (the live cluster) or
// hidden in one library call (simulator set-up).
type speedometer struct {
	mu     sync.Mutex
	at     []time.Time
	speeds []float64
	done   chan struct{}
	wg     sync.WaitGroup
}

func startSpeedometer() *speedometer {
	s := &speedometer{done: make(chan struct{})}
	k := newRefKernel()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(speedEvery)
		defer tick.Stop()
		for {
			select {
			case <-s.done:
				return
			case <-tick.C:
				v := k.probe()
				s.mu.Lock()
				s.at, s.speeds = append(s.at, time.Now()), append(s.speeds, v)
				s.mu.Unlock()
			}
		}
	}()
	return s
}

// stop ends the probing and waits for its goroutine. It may be called more
// than once, and on nil.
func (s *speedometer) stop() {
	if s == nil {
		return
	}
	select {
	case <-s.done:
	default:
		close(s.done)
	}
	s.wg.Wait()
}

// speed returns the mean probed speed over [from, to]; 1 on a nil
// speedometer. A span with no probe in it takes the probe nearest its end.
func (s *speedometer) speed(from, to time.Time) float64 {
	if s == nil {
		return 1
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var sum float64
	var n int
	nearest, best := 1.0, time.Duration(math.MaxInt64)
	for i, t := range s.at {
		if !t.Before(from) && !t.After(to) {
			sum += s.speeds[i]
			n++
		}
		d := t.Sub(to)
		if d < 0 {
			d = -d
		}
		if d < best {
			nearest, best = s.speeds[i], d
		}
	}
	if n == 0 {
		return nearest
	}
	return sum / float64(n)
}

// all returns every probe taken so far.
func (s *speedometer) all() []float64 {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]float64(nil), s.speeds...)
}

// noteSpeed adds the spread of a run's probes to the report.
func noteSpeed(r *result, where string, speeds []float64) {
	if len(speeds) == 0 {
		return
	}
	c := append([]float64(nil), speeds...)
	s := summarize(c)
	r.note("host speed (%s): median %.4g, min %.4g, max %.4g over %d probes", where, s.P50, c[0], s.Max, s.N)
}

// setupClock times repeated set-ups and reports setup_s: the median of the
// set-up times, each scaled by the speedometer's mean speed over it.
type setupClock struct {
	sp          *speedometer
	raw, scaled []float64
}

func newSetupClock() *setupClock { return &setupClock{sp: startSpeedometer()} }

// time runs one set-up and returns its raw wall time in seconds.
func (c *setupClock) time(fn func() error) (float64, error) {
	t0 := time.Now()
	if err := fn(); err != nil {
		return 0, err
	}
	t1 := time.Now()
	raw := t1.Sub(t0).Seconds()
	c.raw, c.scaled = append(c.raw, raw), append(c.scaled, raw*c.sp.speed(t0, t1))
	return raw, nil
}

// report stops the speedometer and sets setup_s.
func (c *setupClock) report(r *result) {
	c.sp.stop()
	r.setN("setup_s", median(c.scaled), len(c.scaled))
	r.extra("raw.setup_s", median(c.raw), "s", len(c.raw))
	noteSpeed(r, "set-up, background", c.sp.all())
}
