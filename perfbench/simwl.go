package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"ringcast/internal/core"
	"ringcast/internal/dissem"
	"ringcast/internal/experiment"
	"ringcast/internal/metrics"
	"ringcast/internal/runner"
	"ringcast/internal/sim"
)

const (
	// figuresN is sim-figures' population, the ringcast-bench default.
	figuresN = 2000
	// figuresRuns is the disseminations per (fanout, protocol) point of one
	// sweep: 20 fanouts x 2 protocols x figuresRuns units per sweep.
	figuresRuns = 10
	// scaleN, scaleCycles and scaleFanout are sim-scale's -fig scale point.
	scaleN      = 100_000
	scaleCycles = 30
	scaleFanout = 5
	// scaleBatchRounds is how many rounds (one origin, three protocols) make
	// one sim-scale batch; the timed phase repeats the same batch.
	scaleBatchRounds = 4
	// figuresProbeEvery is how many sim-figures disseminations (about a
	// millisecond each) run between two host-speed probes; a sim-scale
	// dissemination takes tens of milliseconds and is probed after each.
	figuresProbeEvery = 8
	// simSetupReps is how many times an untraced simulator run sets up;
	// setup_s is the median. Each set-up costs seconds of CPU.
	simSetupReps = 3
)

// figuresProtocols names SweepOverlay's protocol axis by unit index parity:
// unit u runs protocol u%2, RandCast first, as Row's columns.
var figuresProtocols = [2]string{"dissem.run_us.randcast", "dissem.run_us.ringcast"}

// hopBand is the accepted RingCast hops/log2(N) range: the paper's
// logarithmic-latency claim, which the repository's scale sweeps measure
// at 0.59-0.63 for F=5 and which smaller populations sit slightly above.
var hopBand = [2]float64{0.45, 0.85}

// scaleProtocols is -fig scale's protocol axis.
var scaleProtocols = []struct {
	name, metric string
	sel          core.Selector
}{
	{"ringcast", "dissem.run_us.ringcast", core.RingCast{}},
	{"rps-only", "dissem.run_us.randcast", core.RandCast{}},
	{"ring-only", "dissem.run_us.dflood", core.DFlood{}},
}

// simLayersBypassed are the live-only per-layer metrics; the simulators do
// no wire, transport, node or pubsub work.
var simLayersBypassed = []string{
	"wire.marshal_ns", "wire.unmarshal_ns", "wire.marshal_allocs", "wire.unmarshal_allocs", "wire.frame_bytes",
	"transport.send_us_p50", "transport.send_us_p99", "transport.handle_us_p50", "transport.handle_us_p99",
	"transport.handle_self_us_p50", "transport.handle_self_us_p99", "transport.queue_depth_mean",
	"transport.queue_depth_max", "transport.queue_wait_ms", "transport.frames_per_delivery",
	"transport.bytes_per_frame", "transport.bytes_per_delivery", "transport.upkeep_bytes_share",
	"transport.drops", "transport.rejects", "transport.dial_failures", "transport.writers",
	"transport.stray_frames", "node.duplicate_ratio", "node.forwarded_per_delivery", "node.queue_full",
	"node.send_errors", "node.hops_mean", "node.hops_per_log2n", "node.ms_per_hop",
	"pubsub.publish_us_p50", "pubsub.publish_us_p99", "go.allocs_per_delivery", "go.alloc_bytes_per_delivery",
	"bench.gen_late_p99_ms", "bench.gen_late_max_ms", "trace.overhead_p99_ms",
}

// unitTimes collects the time of each dissemination of a timed phase, plus
// per-batch figures. A batch is one sweep (sim-figures) or
// scaleBatchRounds rounds of the three protocols (sim-scale); the timed
// phase repeats the same batch, so batches differ only by noise.
//
// Times are process CPU time, not wall time: the timed loop runs on one
// goroutine, so CPU time differs from wall time by the time the host takes
// the CPU away, which is noise to this benchmark, and by GC work on other
// cores, which is the program's cost. The whole phase's wall rate is noted.
type unitTimes struct {
	ms         []float64            // CPU ms of each dissemination
	runUS      map[string][]float64 // CPU us of each dissemination, by protocol metric
	mark       time.Duration        // CPU time at the end of the previous dissemination
	deliveries int64                // nodes reached, summed over disseminations
	msgs       int64                // copies sent, summed over disseminations
	elapsed    time.Duration
	cpu        time.Duration
	mallocs    uint64
	gcs        uint32

	// Untraced runs probe the host's speed (calib.go) after every
	// probeEvery disseminations, on the goroutine that runs them, and scale
	// those disseminations' times by it. Without a kernel the scaled times
	// are the raw ones.
	ref        *refKernel
	probeEvery int
	pending    int       // disseminations since the last probe
	scaled     []float64 // ms of each dissemination at the reference host speed
	speeds     []float64 // every probe

	batchRate   []float64 // disseminations per second, per batch
	batchCPU    []float64 // CPU us per delivery, per batch
	batchP50    []float64 // dissemination time percentiles, per batch
	batchP95    []float64
	batchP99    []float64
	rawRate     []float64 // batchRate, batchCPU and batchP50 before scaling
	rawCPU      []float64
	rawP50      []float64
	batchUnits  int
	batchDelivs int64
}

// startBatch and endBatch bracket one batch.
func (u *unitTimes) startBatch() {
	u.mark = cpuTime()
	u.batchUnits, u.batchDelivs = len(u.ms), u.deliveries
}

// unit records a dissemination of the given protocol metric that has just
// ended: the CPU time since the previous one ended or the batch began.
func (u *unitTimes) unit(metric string) {
	now := cpuTime()
	ms := float64(now-u.mark) / 1e6
	u.mark = now
	if u.runUS == nil {
		u.runUS = map[string][]float64{}
	}
	u.ms = append(u.ms, ms)
	u.runUS[metric] = append(u.runUS[metric], ms*1e3)
	if u.pending++; u.ref != nil && u.pending >= u.probeEvery {
		u.settle()
	}
}

// settle scales the disseminations since the last probe by a fresh one.
// The probe's own CPU time is left out of the next dissemination's.
func (u *unitTimes) settle() {
	speed := 1.0
	if u.ref != nil && u.pending > 0 {
		speed = u.ref.probe()
		u.speeds = append(u.speeds, speed)
		u.mark = cpuTime()
	}
	for _, ms := range u.ms[len(u.ms)-u.pending:] {
		u.scaled = append(u.scaled, ms*speed)
	}
	u.pending = 0
}

func (u *unitTimes) endBatch() {
	u.settle()
	delivs := float64(u.deliveries - u.batchDelivs)
	add := func(times []float64, rate, cpu, p50 *[]float64) summary {
		var sum float64
		for _, ms := range times {
			sum += ms
		}
		b := summarize(append([]float64(nil), times...))
		*rate, *cpu, *p50 = append(*rate, float64(len(times))/(sum/1e3)), append(*cpu, sum*1e3/delivs), append(*p50, b.P50)
		return b
	}
	add(u.ms[u.batchUnits:], &u.rawRate, &u.rawCPU, &u.rawP50)
	b := add(u.scaled[u.batchUnits:], &u.batchRate, &u.batchCPU, &u.batchP50)
	u.batchP95, u.batchP99 = append(u.batchP95, b.P95), append(u.batchP99, b.P99)
}

// report sets the end-to-end metrics shared by both simulator workloads.
// Each is the median over batches, so a slow stretch moves one batch
// rather than the run.
func (u *unitTimes) report(r *result) {
	s := summarize(append([]float64(nil), u.scaled...))
	r.setN("throughput_per_s", median(u.batchRate), s.N)
	r.setN("p50_ms", median(u.batchP50), s.N)
	r.set("cpu_us_per_delivery", median(u.batchCPU))
	r.set("msgs_per_delivery", float64(u.msgs)/float64(u.deliveries))
	r.extra("dissem_per_s", median(u.batchRate), "1/s", s.N)
	r.extra("p95_ms", median(u.batchP95), "ms", s.N)
	r.extra("p99_ms", median(u.batchP99), "ms", s.N)
	r.extra(fmt.Sprintf("p%.4g_ms", 100*s.TailQ), s.Tail, "ms", s.N)
	r.extra("miss_ratio", float64(r.failed)/float64(r.attempted), "ratio", int(r.attempted))
	r.extra("raw.throughput_per_s", median(u.rawRate), "1/s", s.N)
	r.extra("raw.p50_ms", median(u.rawP50), "ms", s.N)
	r.extra("raw.cpu_us_per_delivery", median(u.rawCPU), "us", 0)
	noteSpeed(r, "timed phase, inline after every "+fmt.Sprint(u.probeEvery)+" disseminations", u.speeds)
	r.note("CPU-timed medians over %d batches; whole phase %.6g disseminations per wall second; scaled pooled p50 %.4g ms, p95 %.4g ms, p99 %.4g ms; p%.4g is the highest percentile with %d samples beyond it",
		len(u.batchRate), float64(s.N)/u.elapsed.Seconds(), s.P50, s.P95, s.P99, 100*s.TailQ, tailMargin)
}

// measure brackets fn with CPU, allocation and wall-clock readings.
func (u *unitTimes) measure(fn func()) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0, t0 := cpuTime(), time.Now()
	fn()
	u.elapsed += time.Since(t0)
	u.cpu += cpuTime() - c0
	runtime.ReadMemStats(&m1)
	u.mallocs += m1.Mallocs - m0.Mallocs
	u.gcs += m1.NumGC - m0.NumGC
}

// ---- sim-figures ----

// warmFigures builds the paper's static network (star bootstrap, warm-up
// until the ring converges) the way RunStatic does. With a tracer it runs
// WarmUp's loop cycle by cycle so each Cycle is a span.
func warmFigures(seed int64, tr *tracer) (*sim.Network, int, float64, error) {
	cfg := sim.DefaultConfig(figuresN)
	cfg.Seed = seed
	nw, err := sim.New(cfg)
	if err != nil {
		return nil, 0, 0, err
	}
	if tr == nil {
		cycles, conv := nw.WarmUp(100, 1000)
		return nw, cycles, conv, nil
	}
	cycle := func(k int) {
		for i := 0; i < k; i++ {
			s := tr.root(spanCycle)
			nw.Cycle()
			tr.end(-1, s)
		}
	}
	cycle(100)
	cycles, conv := 100, nw.RingConvergence()
	for conv < 1.0 && cycles < 1000 {
		cycle(10)
		cycles += 10
		conv = nw.RingConvergence()
	}
	return nw, cycles, conv, nil
}

// figuresConfig is the sweep one timed round runs: the paper's fanouts
// 1..20, RandCast and RingCast, on one worker so that the progress
// callback times every dissemination exactly.
func figuresConfig(seed int64, progress runner.Progress) experiment.Config {
	cfg := experiment.Scaled(figuresN, figuresRuns)
	cfg.Seed = seed
	cfg.Parallelism = 1
	cfg.Progress = progress
	return cfg
}

// sweepFigures repeats experiment.SweepOverlay until the deadline and
// checks every sweep against the first. It returns the first sweep's rows.
// The progress callback times each dissemination; on one worker unit u is
// the u+1th to finish, so its protocol is (done-1)%2. With a tracer each
// dissemination is also a span.
func sweepFigures(r *result, o *dissem.Overlay, seed int64, seconds float64, u *unitTimes, tr *tracer) ([]experiment.Row, error) {
	sp := int32(-1)
	progress := func(done, total int) {
		tr.end(-1, sp)
		u.unit(figuresProtocols[(done-1)%2])
		if done < total {
			sp = tr.root(spanRun)
		}
	}
	cfg := figuresConfig(seed, progress)
	var first []experiment.Row
	var firstDigest string
	var err error
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	u.measure(func() {
		for time.Now().Before(deadline) || first == nil {
			u.startBatch()
			sp = tr.root(spanRun)
			var rows []experiment.Row
			if rows, err = experiment.SweepOverlay(o, cfg); err != nil {
				return
			}
			d := digestRows(rows)
			if first == nil {
				first, firstDigest = rows, d
			}
			r.check(d == firstDigest, "sweep rows differ between repeats of one sweep (%s vs %s)", d, firstDigest)
			for _, row := range rows {
				for _, a := range []metrics.Agg{row.Rand, row.Ring} {
					reached := math.Round(float64(a.Runs) * float64(figuresN) * (1 - a.MeanMissRatio))
					u.deliveries += int64(reached)
					u.msgs += int64(math.Round(float64(a.Runs) * (a.MeanVirgin + a.MeanRedundant + a.MeanLost)))
				}
			}
			u.endBatch()
		}
	})
	if err != nil {
		return nil, fmt.Errorf("sweep: %w", err)
	}
	r.note("sweep digest sha256=%s (%d sweeps)", firstDigest, len(u.batchRate))
	return first, nil
}

// checkFigures applies the paper's static-scenario guarantees.
func checkFigures(r *result, rows []experiment.Row, conv float64, sweeps int) {
	r.check(conv == 1.0, "ring convergence %.4f after warm-up, want 1.0", conv)
	units := int64(0)
	for _, row := range rows {
		units += int64(row.Rand.Runs + row.Ring.Runs)
		failedRing := int64(math.Round(float64(row.Ring.Runs) * (1 - row.Ring.CompleteFraction)))
		r.failed += failedRing * int64(sweeps)
		r.check(failedRing == 0, "RingCast F=%d completed %.0f%% of runs, want 100%%", row.Fanout, 100*row.Ring.CompleteFraction)
		if row.Fanout == scaleFanout {
			h := row.Ring.MeanHops / math.Log2(figuresN)
			r.note("RingCast F=%d hops/log2N = %.4f (band %.2f-%.2f)", row.Fanout, h, hopBand[0], hopBand[1])
			r.check(h >= hopBand[0] && h <= hopBand[1], "RingCast hops/log2N %.4f outside %.2f-%.2f", h, hopBand[0], hopBand[1])
		}
	}
	r.attempted += units * int64(sweeps)
}

func digestRows(rows []experiment.Row) string {
	h := sha256.New()
	for _, row := range rows {
		fmt.Fprintf(h, "%+v\n", row)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

func runSimFigures(o options) (*result, error) {
	r := newResult()
	if o.trace {
		return traceSimFigures(o, r)
	}
	var nw *sim.Network
	var conv float64
	clock := newSetupClock()
	defer clock.sp.stop()
	for i := 0; i < simSetupReps; i++ {
		nw = nil // the previous network must not inflate this build's peak
		var cycles int
		took, err := clock.time(func() (err error) {
			nw, cycles, conv, err = warmFigures(o.seed, nil)
			return err
		})
		if err != nil {
			return nil, err
		}
		r.note("setup %d: %.3f s, %d warm-up cycles, convergence %.4f", i+1, took, cycles, conv)
	}
	clock.report(r)
	ov := dissem.Snapshot(nw)
	nw = nil
	u := unitTimes{ref: newRefKernel(), probeEvery: figuresProbeEvery}
	rows, err := sweepFigures(r, ov, o.seed, o.seconds, &u, nil)
	if err != nil {
		return nil, err
	}
	checkFigures(r, rows, conv, len(u.batchRate))
	u.report(r)
	return r, nil
}

// traceSimFigures is sim-figures' traced run: warm-up cycle spans, the
// snapshot, direct dissem and core calls, gossip-layer exchanges on the
// warmed network's views, and the sweep's parallel efficiency.
func traceSimFigures(o options, r *result) (*result, error) {
	tr := newTracer(0)
	tr.on.Store(true)
	nw, cycles, conv, err := warmFigures(o.seed, tr)
	if err != nil {
		return nil, err
	}
	r.set("sim.warmup_cycles", float64(cycles))
	s := tr.root(spanSnapshot)
	ov := dissem.Snapshot(nw)
	tr.end(-1, s)
	tr.on.Store(false)

	// Untraced half: the real sweep, the reference for the overhead.
	var plain unitTimes
	rows, err := sweepFigures(r, ov, o.seed, o.seconds/2, &plain, nil)
	if err != nil {
		return nil, err
	}
	checkFigures(r, rows, conv, len(plain.batchRate))
	r.set("go.allocs_per_dissem", float64(plain.mallocs)/float64(len(plain.ms)))
	r.set("go.gc_cycles", float64(plain.gcs))

	// Traced half: the same sweep, each dissemination a span. Tracing
	// must not change what the sweep computes.
	tr.on.Store(true)
	var traced unitTimes
	trows, err := sweepFigures(r, ov, o.seed, o.seconds/2, &traced, tr)
	if err != nil {
		return nil, err
	}
	checkFigures(r, trows, conv, len(traced.batchRate))
	r.check(digestRows(trows) == digestRows(rows), "traced sweep rows differ from the untraced sweep's")
	for _, m := range figuresProtocols {
		r.setN(m, summarize(plain.runUS[m]).Mean, len(plain.runUS[m]))
	}
	r.set("dissem.run_us.dflood", 0)
	var virgin, redundant float64
	for _, row := range rows {
		for _, a := range []metrics.Agg{row.Rand, row.Ring} {
			virgin += float64(a.Runs) * a.MeanVirgin
			redundant += float64(a.Runs) * a.MeanRedundant
		}
	}
	r.set("dissem.redundant_ratio", redundant/(virgin+redundant))
	traceOverhead(r, &plain, &traced)

	// Direct core calls over the overlay's links.
	r.set("core.select_ns", timeSelect(tr, ov, o.seed))
	r.set("core.select_pos_ns", 0)
	// Gossip-layer exchanges on the warmed network's views (the snapshot
	// is taken, so the network may now change).
	shuffle, merge := timeGossipLayers(nw, o.seed)
	r.set("cyclon.shuffle_us", shuffle)
	r.set("vicinity.merge_us", merge)
	r.set("sim.build_converged_s", 0)

	// Parallel efficiency of one sweep at GOMAXPROCS workers.
	cfg := figuresConfig(o.seed, nil)
	cfg.Parallelism = 0
	t0 := time.Now()
	if _, err := experiment.SweepOverlay(ov, cfg); err != nil {
		return nil, err
	}
	units := float64(2 * len(cfg.Fanouts) * cfg.Runs)
	r.set("experiment.parallel_efficiency", units*summarize(append([]float64(nil), plain.ms...)).Mean/1000/(since(t0)*float64(runtime.GOMAXPROCS(0))))
	return finishSimTrace(o, r, tr)
}

// ---- sim-scale ----

// buildScale runs the compact converged bootstrap -fig scale uses.
func buildScale(seed int64) (*sim.MixResult, error) {
	cfg := sim.DefaultMixConfig(scaleN)
	cfg.Seed = seed
	cfg.Cycles = scaleCycles
	return sim.BuildConverged(cfg)
}

// scaleRuns repeats one batch until the deadline: scaleBatchRounds rounds,
// each disseminating ringcast, rps-only and ring-only from one origin, as
// -fig scale's paired sweep does. Each dissemination is timed, and with a
// tracer each is a span. It checks that the deterministic protocols reach
// every node and that every repeat of the batch gives the same results,
// and returns the batch digest and the virgin and redundant copy counts.
func scaleRuns(r *result, o *dissem.Overlay, seed int64, seconds float64, u *unitTimes, tr *tracer) (string, [2]int64, error) {
	var vr [2]int64
	var hops, rings float64
	var digest string
	var err error
	sc := dissem.NewScratch()
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	u.measure(func() {
		for rep := 0; rep == 0 || time.Now().Before(deadline); rep++ {
			u.startBatch()
			h := sha256.New()
			for run := int64(0); run < scaleBatchRounds; run++ {
				origin, oerr := o.RandomAlivePos(runner.UnitRand(seed, 1, run))
				if oerr != nil {
					err = oerr
					return
				}
				for p, ps := range scaleProtocols {
					rng := runner.UnitRand(seed, 2, run, int64(p))
					sp := tr.root(spanRun)
					d, rerr := dissem.RunScratchPos(o, origin, ps.sel, scaleFanout, rng, dissem.Options{SkipLoad: true}, sc)
					tr.end(-1, sp)
					u.unit(ps.metric)
					if rerr != nil {
						err = rerr
						return
					}
					u.deliveries += int64(d.Reached)
					u.msgs += int64(d.TotalMsgs())
					vr[0] += int64(d.Virgin)
					vr[1] += int64(d.Redundant)
					r.attempted++
					if ps.name != "rps-only" && !d.Complete() {
						r.failed++
						r.check(false, "%s run %d reached %d of %d nodes", ps.name, run, d.Reached, d.AliveTotal)
					}
					if ps.name == "ringcast" {
						hops += float64(d.Hops())
						rings++
					}
					fmt.Fprintf(h, "%s %d %d %d %d\n", ps.name, run, d.Reached, d.Hops(), d.TotalMsgs())
				}
			}
			u.endBatch()
			d := fmt.Sprintf("%x", h.Sum(nil)[:8])
			if digest == "" {
				digest = d
			}
			r.check(d == digest, "scale batch results differ between repeats (%s vs %s)", d, digest)
		}
	})
	if err != nil {
		return "", vr, err
	}
	hl := hops / rings / math.Log2(scaleN)
	r.note("RingCast F=%d hops/log2N = %.4f (band %.2f-%.2f)", scaleFanout, hl, hopBand[0], hopBand[1])
	r.check(hl >= hopBand[0] && hl <= hopBand[1], "RingCast hops/log2N %.4f outside %.2f-%.2f", hl, hopBand[0], hopBand[1])
	return digest, vr, nil
}

func runSimScale(o options) (*result, error) {
	r := newResult()
	if o.trace {
		return traceSimScale(o, r)
	}
	var res *sim.MixResult
	clock := newSetupClock()
	defer clock.sp.stop()
	for i := 0; i < simSetupReps; i++ {
		res = nil
		runtime.GC() // the previous overlay must not inflate this build's peak
		took, err := clock.time(func() (err error) {
			res, err = buildScale(o.seed)
			return err
		})
		if err != nil {
			return nil, err
		}
		r.note("setup %d: %.3f s, convergence %.4f", i+1, took, res.Convergence)
	}
	clock.report(r)
	r.check(res.Convergence == 1.0, "ring convergence %.4f after BuildConverged, want 1.0", res.Convergence)
	ov := dissem.FromArena(res.Arena)
	u := unitTimes{ref: newRefKernel(), probeEvery: 1}
	digest, _, err := scaleRuns(r, ov, o.seed, o.seconds, &u, nil)
	if err != nil {
		return nil, err
	}
	r.note("scale digest sha256=%s (%d batches of %d rounds)", digest, len(u.batchRate), scaleBatchRounds)
	u.report(r)
	return r, nil
}

func traceSimScale(o options, r *result) (*result, error) {
	tr := newTracer(0)
	t0 := time.Now()
	res, err := buildScale(o.seed)
	if err != nil {
		return nil, err
	}
	r.set("sim.build_converged_s", since(t0))
	r.check(res.Convergence == 1.0, "ring convergence %.4f after BuildConverged, want 1.0", res.Convergence)
	tr.on.Store(true)
	s := tr.root(spanSnapshot)
	ov := dissem.FromArena(res.Arena)
	tr.end(-1, s)
	tr.on.Store(false)

	var plain unitTimes
	digest, _, err := scaleRuns(r, ov, o.seed, o.seconds/2, &plain, nil)
	if err != nil {
		return nil, err
	}
	r.set("go.allocs_per_dissem", float64(plain.mallocs)/float64(len(plain.ms)))
	r.set("go.gc_cycles", float64(plain.gcs))

	tr.on.Store(true)
	var traced unitTimes
	tdigest, vr, err := scaleRuns(r, ov, o.seed, o.seconds/2, &traced, tr)
	if err != nil {
		return nil, err
	}
	r.check(tdigest == digest, "traced scale batches differ from the untraced ones (%s vs %s)", tdigest, digest)
	for _, ps := range scaleProtocols {
		r.setN(ps.metric, summarize(plain.runUS[ps.metric]).Mean, len(plain.runUS[ps.metric]))
	}
	r.set("dissem.redundant_ratio", float64(vr[1])/float64(vr[0]+vr[1]))
	traceOverhead(r, &plain, &traced)
	r.set("core.select_pos_ns", timeSelectPos(tr, ov, o.seed))
	r.zero("core.select_ns", "sim.cycle_ms", "sim.warmup_cycles", "cyclon.shuffle_us", "vicinity.merge_us")

	// Parallel efficiency: the same round grid at GOMAXPROCS workers.
	const rounds = 6
	np := len(scaleProtocols)
	t1 := time.Now()
	err = runner.Map(0, rounds*np, nil, func(i int) error {
		run, p := int64(i/np), i%np
		origin, err := ov.RandomAlivePos(runner.UnitRand(o.seed, 1, run))
		if err != nil {
			return err
		}
		_, err = dissem.RunScratchPos(ov, origin, scaleProtocols[p].sel, scaleFanout, runner.UnitRand(o.seed, 2, run, int64(p)), dissem.Options{SkipLoad: true}, nil)
		return err
	})
	if err != nil {
		return nil, err
	}
	r.set("experiment.parallel_efficiency", float64(rounds*np)*summarize(append([]float64(nil), plain.ms...)).Mean/1000/(since(t1)*float64(runtime.GOMAXPROCS(0))))
	return finishSimTrace(o, r, tr)
}

// ---- shared traced-run helpers ----

// traceOverhead reports the traced half's per-dissemination cost minus the
// untraced half's.
func traceOverhead(r *result, plain, traced *unitTimes) {
	p := summarize(append([]float64(nil), plain.ms...))
	t := summarize(append([]float64(nil), traced.ms...))
	r.set("trace.overhead_p50_ms", t.P50-p.P50)
	r.set("trace.overhead_cpu_us_per_delivery",
		float64(traced.cpu.Microseconds())/float64(traced.deliveries)-float64(plain.cpu.Microseconds())/float64(plain.deliveries))
}

// finishSimTrace derives span-based metrics, writes the spans and zeroes
// the live layers the simulators bypass.
func finishSimTrace(o options, r *result, tr *tracer) (*result, error) {
	spans := tr.finish()
	dur, _ := selfTimes(spans)
	r.set("sim.cycle_ms", summarize(dur[spanCycle]).Mean/1e6)
	if len(dur[spanCycle]) == 0 {
		r.set("sim.cycle_ms", 0)
	}
	r.set("dissem.snapshot_ms", summarize(dur[spanSnapshot]).Mean/1e6)
	r.set("trace.spans", float64(spanCount(spans)))
	path, err := writeSpans(o.outDir, fmt.Sprintf("%s-seed%d.tsv.gz", o.workload, o.seed), spans)
	if err != nil {
		return nil, err
	}
	r.note("spans written to %s", path)
	r.zero(simLayersBypassed...)
	return r, nil
}

// timeSelect times RingCast.Select over the overlay's links in batches;
// each batch is one span. It returns ns per call.
func timeSelect(tr *tracer, ov *dissem.Overlay, seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	const calls = 200_000
	var sink int
	t0 := time.Now()
	for b := 0; b < calls/1000; b++ {
		sp := tr.root(spanSelect)
		for i := 0; i < 1000; i++ {
			links := ov.Links((b*1000 + i) % ov.N())
			sink += len(core.RingCast{}.Select(links, links.R[0], scaleFanout, rng))
		}
		tr.end(-1, sp)
	}
	_ = sink
	return float64(time.Since(t0).Nanoseconds()) / calls
}

// timeSelectPos times RingCast.SelectPos over the arena's links in
// batches; each batch is one span. It returns ns per call.
func timeSelectPos(tr *tracer, ov *dissem.Overlay, seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	const calls = 200_000
	var sc core.PosScratch
	dst := make([]int32, 0, 32)
	t0 := time.Now()
	for b := 0; b < calls/1000; b++ {
		sp := tr.root(spanSelPos)
		for i := 0; i < 1000; i++ {
			links := ov.PosLinks((b*1000 + i) % ov.N())
			dst = core.RingCast{}.SelectPos(dst[:0], &sc, links, links.R[0], scaleFanout, rng)
		}
		tr.end(-1, sp)
	}
	return float64(time.Since(t0).Nanoseconds()) / calls
}

// timeGossipLayers times one full CYCLON shuffle exchange (start, the
// partner's handling, the reply merge) and one VICINITY merge, on the
// views of the warmed network, in aggregate (a span per exchange would
// cost more than the work). It returns microseconds per operation.
func timeGossipLayers(nw *sim.Network, seed int64) (shuffleUS, mergeUS float64) {
	rng := rand.New(rand.NewSource(seed))
	nodes := nw.Nodes()
	const ops = 4000
	var shuffle, merge time.Duration
	for i := 0; i < ops; i++ {
		a := nodes[rng.Intn(len(nodes))]
		t0 := time.Now()
		sh, ok := a.Cyc.StartShuffle(rng)
		if ok {
			if b, found := nw.NodeByID(sh.Peer.Node); found {
				a.Cyc.HandleReply(sh, b.Cyc.HandleRequest(sh.Sent, rng))
			}
		}
		shuffle += time.Since(t0)
		b := nodes[rng.Intn(len(nodes))]
		payload := b.Vic.Payload()
		t1 := time.Now()
		a.Vic.Merge(payload, a.Cyc.View().All())
		merge += time.Since(t1)
	}
	return float64(shuffle.Microseconds()) / ops, float64(merge.Nanoseconds()) / 1e3 / ops
}
