// Command perfbench is the repository's benchmark: one program that runs a
// workload of the live pub/sub system or of the simulators, checks that its
// outputs are correct, and prints every metric by name with its unit.
//
// Usage (from the repository root, after building this module):
//
//	perfbench --workload live-small --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it runs
// the traced variant and reports the per-layer metrics plus the tracing
// overhead. The last line of standard output is one JSON object with the
// keys correct, attempted, failed and metrics. BENCHMARK.json at the
// repository root lists the workloads and metrics; DESIGN.md in this
// directory explains them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metricDef declares one reported metric.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics every untraced run reports, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"throughput_per_s", "1/s", "higher"},
	{"p50_ms", "ms", "lower"},
	{"cpu_us_per_delivery", "us", "lower"},
	{"msgs_per_delivery", "count", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the metrics every traced run reports, on every workload. A
// layer the workload bypasses did no work and reads 0.
var perLayer = []metricDef{
	{"wire.marshal_ns", "ns", "lower"},
	{"wire.unmarshal_ns", "ns", "lower"},
	{"wire.marshal_allocs", "count", "lower"},
	{"wire.unmarshal_allocs", "count", "lower"},
	{"wire.frame_bytes", "B", "lower"},
	{"transport.send_us_p50", "us", "lower"},
	{"transport.send_us_p99", "us", "lower"},
	{"transport.handle_us_p50", "us", "lower"},
	{"transport.handle_us_p99", "us", "lower"},
	{"transport.handle_self_us_p50", "us", "lower"},
	{"transport.handle_self_us_p99", "us", "lower"},
	{"transport.queue_depth_mean", "count", "lower"},
	{"transport.queue_depth_max", "count", "lower"},
	{"transport.queue_wait_ms", "ms", "lower"},
	{"transport.frames_per_delivery", "count", "lower"},
	{"transport.bytes_per_frame", "B", "lower"},
	{"transport.bytes_per_delivery", "B", "lower"},
	{"transport.upkeep_bytes_share", "ratio", "lower"},
	{"transport.drops", "count", "lower"},
	{"transport.rejects", "count", "lower"},
	{"transport.dial_failures", "count", "lower"},
	{"transport.writers", "count", "lower"},
	{"transport.stray_frames", "count", "lower"},
	{"node.duplicate_ratio", "ratio", "lower"},
	{"node.forwarded_per_delivery", "count", "lower"},
	{"node.queue_full", "count", "lower"},
	{"node.send_errors", "count", "lower"},
	{"node.hops_mean", "hops", "lower"},
	{"node.hops_per_log2n", "ratio", "lower"},
	{"node.ms_per_hop", "ms", "lower"},
	{"pubsub.publish_us_p50", "us", "lower"},
	{"pubsub.publish_us_p99", "us", "lower"},
	{"core.select_ns", "ns", "lower"},
	{"core.select_pos_ns", "ns", "lower"},
	{"sim.cycle_ms", "ms", "lower"},
	{"sim.warmup_cycles", "count", "lower"},
	{"cyclon.shuffle_us", "us", "lower"},
	{"vicinity.merge_us", "us", "lower"},
	{"sim.build_converged_s", "s", "lower"},
	{"dissem.run_us.ringcast", "us", "lower"},
	{"dissem.run_us.randcast", "us", "lower"},
	{"dissem.run_us.dflood", "us", "lower"},
	{"dissem.redundant_ratio", "ratio", "lower"},
	{"dissem.snapshot_ms", "ms", "lower"},
	{"experiment.parallel_efficiency", "ratio", "higher"},
	{"go.allocs_per_delivery", "count", "lower"},
	{"go.alloc_bytes_per_delivery", "B", "lower"},
	{"go.allocs_per_dissem", "count", "lower"},
	{"go.gc_cycles", "count", "lower"},
	{"bench.gen_late_p99_ms", "ms", "lower"},
	{"bench.gen_late_max_ms", "ms", "lower"},
	{"trace.overhead_p50_ms", "ms", "lower"},
	{"trace.overhead_p99_ms", "ms", "lower"},
	{"trace.overhead_cpu_us_per_delivery", "us", "lower"},
	{"trace.spans", "count", "lower"},
}

// options are the command-line inputs of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	outDir   string // where the traced run writes its spans
}

// result is what one run reports.
type result struct {
	attempted, failed int64
	failures          []string // failed correctness checks, by reason
	metrics           map[string]float64
	samples           map[string]int // sample count behind a metric, if any
	extras            []string       // metrics printed in the report only
	notes             []string       // extra report lines (diagnostics)
}

func newResult() *result {
	return &result{metrics: make(map[string]float64), samples: make(map[string]int)}
}

func (r *result) set(name string, v float64)         { r.metrics[name] = v }
func (r *result) setN(name string, v float64, n int) { r.metrics[name] = v; r.samples[name] = n }
func (r *result) note(format string, a ...any)       { r.notes = append(r.notes, fmt.Sprintf(format, a...)) }

// extra records a metric the report prints but the JSON result does not
// carry, because it cannot meet the rules for a gated metric (it must be
// 0, exists on one kind of workload only, or is too noisy for any bound).
func (r *result) extra(name string, v float64, unit string, n int) {
	r.extras = append(r.extras, metricLine(name, v, unit, n))
}

// metricLine formats one metric for the human report.
func metricLine(name string, v float64, unit string, n int) string {
	line := fmt.Sprintf("%-36s %14.6g %-6s", name, v, unit)
	if n > 0 {
		line += fmt.Sprintf("  n=%d", n)
	}
	return line
}

// check records a correctness failure when ok is false.
func (r *result) check(ok bool, format string, a ...any) {
	if !ok {
		r.failures = append(r.failures, fmt.Sprintf(format, a...))
	}
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(options) (*result, error){
	"live-small":  runLiveSmall,
	"live-bulk":   runLiveBulk,
	"sim-figures": runSimFigures,
	"sim-scale":   runSimScale,
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured time per run")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced variant and reports per-layer metrics")
	flag.StringVar(&o.outDir, "out", ".bench_build/perfbench-trace", "directory for the traced run's span files")
	flag.Parse()
	o.trace = trace == 1
	run, ok := workloads[o.workload]
	if !ok || (trace != 0 && trace != 1) || o.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds > 0 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	printRecord(o)
	res, err := run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		os.Exit(1)
	}
	if !o.trace {
		res.set("peak_rss_mb", peakRSSMB())
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	if err := emit(res, defs); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		os.Exit(1)
	}
	if len(res.failures) > 0 {
		os.Exit(3)
	}
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// printRecord prints the run record: what ran, with which inputs, where.
func printRecord(o options) {
	fmt.Printf("# perfbench workload=%s seed=%d seconds=%g trace=%v\n", o.workload, o.seed, o.seconds, o.trace)
	fmt.Printf("# command: %s\n", strings.Join(os.Args, " "))
	fmt.Printf("# host: nproc=%d GOMAXPROCS=%d cpu=%q go=%s %s/%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	if strings.HasPrefix(o.workload, "live") {
		fmt.Println("# network: every peer runs in this process; frames cross loopback TCP (127.0.0.1), not a real link")
	}
}

// emit prints the human report and, as the last line, the JSON result. It
// fails when a declared metric is missing or not a finite number.
func emit(r *result, defs []metricDef) error {
	out := make(map[string]map[string]any, len(defs))
	for _, d := range defs {
		v, ok := r.metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s not measured (%v)", d.name, v)
		}
		fmt.Println(metricLine(d.name, v, d.unit, r.samples[d.name]))
		out[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	if len(r.extras) > 0 {
		fmt.Println("# also reported, not in the JSON result:")
		for _, line := range r.extras {
			fmt.Println(line)
		}
	}
	for _, line := range r.notes {
		fmt.Println("# " + line)
	}
	for _, f := range r.failures {
		fmt.Println("# CHECK FAILED: " + f)
	}
	fmt.Printf("# correct=%v attempted=%d failed=%d\n", len(r.failures) == 0, r.attempted, r.failed)
	if r.attempted < 1 {
		return fmt.Errorf("no operation attempted")
	}
	b, err := json.Marshal(map[string]any{
		"correct":   len(r.failures) == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   out,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kB
}

// cpuModel reads the processor model for the run record; it is best effort.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// since returns seconds elapsed since t.
func since(t time.Time) float64 { return time.Since(t).Seconds() }

// zeroMetrics sets every listed metric to 0: the layers a workload bypasses.
func (r *result) zero(names ...string) {
	for _, n := range names {
		if _, ok := r.metrics[n]; !ok {
			r.metrics[n] = 0
		}
	}
}
