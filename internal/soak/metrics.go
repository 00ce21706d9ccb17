package soak

// The counter side of the harness. Every node serves a Prometheus-text
// /metrics endpoint, and it is the only place the harness reads counters:
// the lag prober, the drain settle loop and the report's totals all scrape
// it, and node 0 is additionally scraped once per second during the
// publish phase. That trail lands in the report, so a mid-run re-tune (a
// set-param step halving the gossip interval, say) is visible as a level
// shift in ringcast_config_gossip_interval_seconds next to the counters it
// affects.

import (
	"context"
	"time"

	"ringcast/internal/node"
	"ringcast/internal/telemetry"
	"ringcast/internal/transport"
)

// MetricSample is one /metrics scrape: a timestamp, the scraped node's name
// and every series (keyed by name plus label signature).
type MetricSample struct {
	// T is the scrape instant in Unix milliseconds.
	T int64 `json:"t"`
	// Node names the scraped process.
	Node string `json:"node"`
	// Series maps "name{labels}" to the sampled value.
	Series telemetry.Series `json:"series"`
}

// deliveredFamily is the lag signal and the drain's settle signal: unique
// messages handed to the application, summed over the node's topics.
const deliveredFamily = "ringcast_node_delivered_total"

// scrape reads p's /metrics endpoint once.
func (p *proc) scrape(timeout time.Duration) (telemetry.Series, error) {
	return telemetry.Scrape(p.metrics(), timeout)
}

// fleetTotals rebuilds the protocol and base-transport counters from a
// set of scrapes, summed over the scraped nodes and each node's topics.
func fleetTotals(scrapes []telemetry.Series) (node.Stats, transport.Stats) {
	sum := func(name string) float64 {
		var total float64
		for _, s := range scrapes {
			total += s.Sum(name)
		}
		return total
	}
	nd := func(name string) uint64 { return uint64(sum("ringcast_node_" + name + "_total")) }
	tr := func(name string) int64 { return int64(sum("ringcast_transport_" + name)) }
	ns := node.Stats{
		Published:    nd("published"),
		Delivered:    nd("delivered"),
		Duplicates:   nd("duplicates"),
		Forwarded:    nd("forwarded"),
		SendErrors:   nd("send_errors"),
		QueueFull:    nd("queue_full"),
		Shuffles:     nd("shuffles"),
		VicExchanges: nd("vic_exchanges"),
	}
	ts := transport.Stats{
		FramesSent:   tr("frames_sent_total"),
		BytesSent:    tr("bytes_sent_total"),
		QueueDepth:   tr("queue_depth"),
		Writers:      tr("writers"),
		Drops:        tr("drops_total"),
		Rejects:      tr("rejects_total"),
		DialFailures: tr("dial_failures_total"),
	}
	return ns, ts
}

// metricsLoop scrapes node 0's /metrics once per second for the publish
// phase. Scrape failures are skipped silently: a restart window leaves the
// endpoint briefly dark, and the trail's value is the series around it.
func (f *fleet) metricsLoop(ctx context.Context) {
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		p := f.procs[0]
		if st, _ := p.snapshot(); st != stateUp {
			continue
		}
		series, err := p.scrape(2 * time.Second)
		if err != nil {
			continue
		}
		f.mmu.Lock()
		f.metricsLog = append(f.metricsLog, MetricSample{
			T:      time.Now().UnixMilli(),
			Node:   p.name,
			Series: series,
		})
		f.mmu.Unlock()
	}
}
