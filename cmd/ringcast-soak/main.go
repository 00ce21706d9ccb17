// Command ringcast-soak runs the distributed live soak harness: it builds
// (or reuses) a ringcast-node binary, launches N real node processes on
// this machine, bootstraps them onto one mesh per topic, then sustains a
// publish load while a scenario timeline injects partitions, loss and
// crashes, the supervisor restarts dead processes under the same -seed
// (preserving each node's deterministic ring identity so arc resolution
// stays valid across restarts), and the prober flags lagging peers. The
// run ends with a machine-readable delivery-completeness report in the
// shape of the paper's claim: every message reaches every node that was up
// and connected at publish time (Section 4's connectivity-scoped
// guarantee).
//
// Exit status is 0 only when the completeness gate holds and no process
// crash-looped, so the command doubles as a CI gate.
//
// Run with -h for the full flag reference and examples.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"ringcast/internal/ident"
	"ringcast/internal/scenario"
	"ringcast/internal/soak"
)

// usageHeader is the long-form usage text printed by -h, ahead of the
// generated flag reference. TestUsageCoversAllFlags asserts every
// registered flag appears in at least one example.
const usageHeader = `Usage: ringcast-soak [flags]

Launch N real ringcast-node processes, drive a fault scenario over them
under sustained publish load, and verify delivery completeness.

Examples:
  ringcast-soak -n 64                                   # default partition-heal-kill soak
  ringcast-soak -n 256 -topics news,sports -rate 50     # bigger fleet, two topics
  ringcast-soak -n 32 -scenario partition-heal -report soak.json
  ringcast-soak -n 64 -scenario none -duration 30s      # fault-free endurance run
  ringcast-soak -n 64 -wedge-after 4s -wedge-for 5s     # exercise the lag detector
  ringcast-soak -n 64 -interval 80ms -step 2s -guard 1500ms -fanout 4
  ringcast-soak -n 64 -seed 11 -host 127.0.0.1 -logdir /tmp/soak-logs
  ringcast-soak -n 64 -node-bin ./ringcast-node         # reuse a prebuilt node binary
  ringcast-soak -n 32 -scenario retune-interval -report bench.json  # live re-tune, visible in the /metrics trail

Scenario names: partition-heal-kill (default), retune-interval (halve the
gossip interval mid-run through the config engine), none, or any built-in
timeline (run ringcast-bench -list, e.g. partition-heal, storm, lossy).

Flags:
`

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "ringcast-soak:", err)
		os.Exit(1)
	}
}

// errGateFailed distinguishes a completed-but-failing soak (completeness or
// supervision verdict) from setup errors.
var errGateFailed = errors.New("soak gate failed")

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ringcast-soak", flag.ContinueOnError)
	fs.SetOutput(out)
	fs.Usage = func() {
		fmt.Fprint(out, usageHeader)
		fs.PrintDefaults()
	}
	var (
		n          = fs.Int("n", 64, "fleet size (number of node processes)")
		topicsCSV  = fs.String("topics", "alpha,beta", "comma-separated pub/sub topics (empty = the one topic \"default\")")
		scName     = fs.String("scenario", "partition-heal-kill", "fault timeline: partition-heal-kill, none, or a built-in name")
		duration   = fs.Duration("duration", 20*time.Second, "publish-phase length")
		rate       = fs.Int("rate", 25, "fleet-wide publishes per second")
		interval   = fs.Duration("interval", soak.DefaultGossipInterval, "per-node gossip interval")
		step       = fs.Duration("step", soak.DefaultStepInterval, "wall-clock length of one scenario step")
		guard      = fs.Duration("guard", soak.DefaultGuard, "transition guard window around fault events")
		fanout     = fs.Int("fanout", 3, "dissemination fanout F")
		seed       = fs.Int64("seed", 1, "base identity seed (node i uses seed+i)")
		nodeBin    = fs.String("node-bin", "", "prebuilt ringcast-node binary (empty = go build into a temp dir)")
		report     = fs.String("report", "soak-report.json", "write the machine-readable report here (empty = skip)")
		wedgeAfter = fs.Duration("wedge-after", 0, "wedge one consumer this long into the run (0 = never)")
		wedgeFor   = fs.Duration("wedge-for", 5*time.Second, "hold the wedge this long")
		host       = fs.String("host", "127.0.0.1", "interface the fleet binds")
		logdir     = fs.String("logdir", "", "per-process log directory (empty = discard node output)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var topics []string
	for _, tp := range strings.Split(*topicsCSV, ",") {
		if tp = strings.TrimSpace(tp); tp != "" {
			topics = append(topics, tp)
		}
	}
	sc, err := resolveScenario(*scName, *n, *interval)
	if err != nil {
		return err
	}

	bin := *nodeBin
	if bin == "" {
		dir, err := os.MkdirTemp("", "ringcast-soak")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		fmt.Fprintln(out, "building ringcast-node...")
		if bin, err = soak.BuildNodeBin(dir); err != nil {
			return err
		}
	}

	cfg := soak.Config{
		N:              *n,
		Topics:         topics,
		Scenario:       sc,
		NodeBin:        bin,
		Host:           *host,
		LogDir:         *logdir,
		GossipInterval: *interval,
		StepInterval:   *step,
		Guard:          *guard,
		Duration:       *duration,
		PublishRate:    *rate,
		Fanout:         *fanout,
		Seed:           *seed,
		WedgeAfter:     *wedgeAfter,
		WedgeFor:       *wedgeFor,
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	fmt.Fprintf(out, "soak: n=%d topics=%v scenario=%q duration=%s rate=%d/s\n",
		*n, topics, sc.Name, *duration, *rate)
	rep, err := soak.Run(ctx, cfg)
	if err != nil {
		return err
	}
	if *report != "" {
		if err := rep.WriteFile(*report); err != nil {
			return err
		}
		fmt.Fprintf(out, "report written to %s\n", *report)
	}
	printSummary(out, rep)
	if !rep.CompletenessOK {
		return fmt.Errorf("%w: %d missing of %d gated pairs (completeness %.4f)",
			errGateFailed, rep.MissingPairs, rep.GatedPairs, rep.Completeness)
	}
	if len(rep.CrashLoops) > 0 {
		return fmt.Errorf("%w: crash loops on %v", errGateFailed, rep.CrashLoops)
	}
	return nil
}

// resolveScenario maps the -scenario flag onto a timeline. The default
// partition-heal-kill is the acceptance shape: a two-way split, a heal two
// steps later, then a correlated arc kill of about two nodes.
// retune-interval is the hot-reconfiguration shape: fault-free, with one
// set-param step pushing half the boot gossip interval through the config
// engine, so the report's pre/post latency split shows the effect.
func resolveScenario(name string, n int, interval time.Duration) (scenario.Scenario, error) {
	switch name {
	case "none", "":
		return scenario.Scenario{}, nil
	case "partition-heal-kill":
		return scenario.Scenario{
			Name: "partition-heal-kill",
			Events: []scenario.Event{
				scenario.Partition(1, 2),
				scenario.Heal(3),
				scenario.ArcKill(5, 2.2/float64(n), ident.Nil),
			},
		}, nil
	case "retune-interval":
		return scenario.Scenario{
			Name: "retune-interval",
			Events: []scenario.Event{
				scenario.SetParam(3, "gossip.interval", (interval / 2).String()),
			},
		}, nil
	}
	if sc, ok := scenario.Builtin(name); ok {
		return sc, nil
	}
	known := scenario.Names()
	sort.Strings(known)
	return scenario.Scenario{}, fmt.Errorf("unknown scenario %q (try partition-heal-kill, none, %s)",
		name, strings.Join(known, ", "))
}

// printSummary renders the human-readable slice of the report.
func printSummary(out io.Writer, rep *soak.Report) {
	fmt.Fprintf(out, "published %d msgs (%d gated); %d/%d gated pairs delivered, %d missing, %d unverifiable\n",
		rep.Published, rep.GatedMessages, rep.DeliveredPairs, rep.GatedPairs,
		rep.MissingPairs, rep.UnverifiablePairs)
	fmt.Fprintf(out, "throughput %.0f msgs/sec fleet-wide; publish->deliver p50=%.1fms p99=%.1fms max=%.1fms (%d samples)\n",
		rep.MsgsPerSec, rep.Latency.P50, rep.Latency.P99, rep.Latency.Max, rep.Latency.Samples)
	if rep.LatencyPreRetune != nil && rep.LatencyPostRetune != nil {
		fmt.Fprintf(out, "retune: p50 %.1fms (%d samples) -> %.1fms (%d samples) across the set-param step\n",
			rep.LatencyPreRetune.P50, rep.LatencyPreRetune.Samples,
			rep.LatencyPostRetune.P50, rep.LatencyPostRetune.Samples)
	}
	if len(rep.MetricsSamples) > 0 {
		fmt.Fprintf(out, "metrics: %d scrapes recorded in the report\n", len(rep.MetricsSamples))
	}
	fmt.Fprintf(out, "supervision: %d injected kills, %d restarts, %d crash loops; lagging=%v wedged=%v\n",
		rep.InjectedKills, rep.Restarts, len(rep.CrashLoops), rep.Lagging, rep.Wedged)
	for _, note := range rep.Notes {
		fmt.Fprintf(out, "note: %s\n", note)
	}
}
