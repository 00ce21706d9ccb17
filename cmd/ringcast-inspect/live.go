package main

// The "live" subcommand: a polling view over a running node's /metrics
// endpoint (ringcast-node -metrics). Each poll prints one line with the
// selected series, so re-tuning a node through the config engine is
// watchable as the values move — the interactive counterpart of the soak
// harness's scrape trail.

import (
	"flag"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"ringcast/internal/telemetry"
)

// liveUsage documents the subcommand (printed on -h and flag errors).
const liveUsage = `Usage: ringcast-inspect live [flags] host:port

Poll a ringcast-node /metrics endpoint and print selected series.

Examples:
  ringcast-inspect live 127.0.0.1:9100
  ringcast-inspect live -every 2s -count 10 127.0.0.1:9100
  ringcast-inspect live -series ringcast_node_delivered_total 127.0.0.1:9100

Flags:
`

// runLive polls the endpoint every -every, printing -series values (comma
// separated names; a name matches every labeled variant) until -count
// polls have run (0 = forever).
func runLive(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ringcast-inspect live", flag.ContinueOnError)
	fs.SetOutput(out)
	fs.Usage = func() {
		fmt.Fprint(out, liveUsage)
		fs.PrintDefaults()
	}
	var (
		every  = fs.Duration("every", time.Second, "poll interval")
		count  = fs.Int("count", 0, "number of polls (0 = until interrupted)")
		series = fs.String("series", "ringcast_config_version,ringcast_config_gossip_interval_seconds,ringcast_node_published_total,ringcast_node_delivered_total,ringcast_transport_frames_sent_total", "comma-separated series names to print")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return fmt.Errorf("live: want exactly one host:port argument, got %d", fs.NArg())
	}
	addr := fs.Arg(0)
	var want []string
	for _, s := range strings.Split(*series, ",") {
		if s = strings.TrimSpace(s); s != "" {
			want = append(want, s)
		}
	}

	for polls := 0; *count == 0 || polls < *count; polls++ {
		if polls > 0 {
			time.Sleep(*every)
		}
		vals, err := telemetry.Scrape(addr, 5*time.Second)
		if err != nil {
			fmt.Fprintf(out, "%s error: %v\n", time.Now().Format("15:04:05"), err)
			continue
		}
		parts := make([]string, 0, len(want))
		for _, name := range want {
			for _, key := range sortedSeriesKeys(vals) {
				if key == name || strings.HasPrefix(key, name+"{") {
					parts = append(parts, fmt.Sprintf("%s=%g", key, vals[key]))
				}
			}
		}
		fmt.Fprintf(out, "%s %s\n", time.Now().Format("15:04:05"), strings.Join(parts, " "))
	}
	return nil
}

// sortedSeriesKeys returns the scrape's keys in sorted order (map-order
// determinism for the printed line).
func sortedSeriesKeys(m telemetry.Series) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
