package soak

// The machine-readable soak report. Every published message is accounted
// for pair-by-pair: a gated (message, expected-node) pair is delivered,
// missing, or unverifiable (the node crashed after the publish, taking its
// in-memory ledger with it — the delivery may have happened; the evidence
// is gone). The completeness verdict covers only verifiable pairs, which
// is exactly the paper's claim shape: completeness among nodes that stayed
// up and connected.

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"ringcast/internal/node"
	"ringcast/internal/telemetry"
	"ringcast/internal/transport"
	"ringcast/internal/wire"
)

// LatencySummary summarizes publish-to-deliver latency over gated pairs,
// in milliseconds.
type LatencySummary struct {
	P50     float64 `json:"p50_ms"`
	P95     float64 `json:"p95_ms"`
	P99     float64 `json:"p99_ms"`
	Max     float64 `json:"max_ms"`
	Samples int     `json:"samples"`
}

// TopicTotals is the per-topic slice of the delivery ledger.
type TopicTotals struct {
	Published    int `json:"published"`
	GatedPairs   int `json:"gated_pairs"`
	Delivered    int `json:"delivered_pairs"`
	Missing      int `json:"missing_pairs"`
	Unverifiable int `json:"unverifiable_pairs"`
}

// Report is the soak run's machine-readable outcome (BENCH_PR9.json).
type Report struct {
	N           int      `json:"n"`
	Topics      []string `json:"topics"`
	Scenario    string   `json:"scenario"`
	Seed        int64    `json:"seed"`
	DurationSec float64  `json:"duration_sec"`

	Published     int `json:"published"`
	PublishErrors int `json:"publish_errors"`
	GatedMessages int `json:"gated_messages"`

	GatedPairs        int     `json:"gated_pairs"`
	DeliveredPairs    int     `json:"delivered_pairs"`
	MissingPairs      int     `json:"missing_pairs"`
	UnverifiablePairs int     `json:"unverifiable_pairs"`
	Completeness      float64 `json:"completeness"`
	CompletenessOK    bool    `json:"completeness_ok"`
	// MissingSample lists up to 20 missing pairs for debugging.
	MissingSample []string `json:"missing_sample,omitempty"`

	PublishesPerSec float64        `json:"publishes_per_sec"`
	MsgsPerSec      float64        `json:"msgs_per_sec"` // fleet-wide deliveries/sec
	Latency         LatencySummary `json:"latency"`
	// LatencyPreRetune and LatencyPostRetune split the gated latency samples
	// around the first set-param step (absent when the timeline has none) —
	// the before/after evidence that a live re-tune changed behavior.
	LatencyPreRetune  *LatencySummary `json:"latency_pre_retune,omitempty"`
	LatencyPostRetune *LatencySummary `json:"latency_post_retune,omitempty"`

	Restarts       int            `json:"restarts"`
	RestartsByNode map[string]int `json:"restarts_by_node,omitempty"`
	CrashLoops     []string       `json:"crash_loops,omitempty"`
	InjectedKills  int            `json:"injected_kills"`
	Lagging        []string       `json:"lagging,omitempty"`
	Wedged         []string       `json:"wedged,omitempty"`

	// Backpressure and transport counters summed over the surviving fleet.
	Transport transport.Stats `json:"transport"`
	Node      node.Stats      `json:"node"`

	PerTopic map[string]TopicTotals `json:"per_topic"`
	// MetricsSamples is node 0's /metrics trail, one scrape per second.
	MetricsSamples []MetricSample `json:"metrics_samples,omitempty"`
	Notes          []string       `json:"notes,omitempty"`
}

// WriteFile writes the report as indented JSON.
func (r *Report) WriteFile(path string) error {
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// crashedAfter reports whether proc p crashed at or after instant (Unix
// nanoseconds), wiping the in-memory ledger evidence for earlier publishes.
func crashedAfter(p *proc, instant int64) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.everCrashed {
		return false
	}
	// crashes is pruned to the crash-loop window; firstCrash covers the
	// conservative "ever crashed after" answer for older instants.
	if p.firstCrash.UnixNano() >= instant {
		return true
	}
	for _, t := range p.crashes {
		if t.UnixNano() >= instant {
			return true
		}
	}
	return false
}

// buildReport folds the publish records against the collected ledgers.
func (f *fleet) buildReport(ledgers map[int]map[string]map[wire.MsgID]int64, elapsed time.Duration) *Report {
	rep := &Report{
		N:           f.cfg.N,
		Topics:      f.topics,
		Scenario:    f.cfg.Scenario.Name,
		Seed:        f.cfg.Seed,
		DurationSec: elapsed.Seconds(),
		PerTopic:    make(map[string]TopicTotals, len(f.topics)),
	}

	f.pmu.Lock()
	records := f.records
	rep.Published = f.published
	rep.PublishErrors = f.pubErrs
	f.pmu.Unlock()

	var latencies []int64
	var latAt []int64 // publish instant per latency sample, for the retune split
	for _, r := range records {
		tt := rep.PerTopic[r.topic]
		tt.Published++
		if !r.gated {
			rep.PerTopic[r.topic] = tt
			continue
		}
		rep.GatedMessages++
		for _, j := range r.expected {
			tt.GatedPairs++
			rep.GatedPairs++
			byTopic, fetched := ledgers[j]
			if fetched {
				if at, ok := byTopic[r.topic][r.id]; ok {
					tt.Delivered++
					rep.DeliveredPairs++
					d := at - r.at
					if d < 0 {
						d = 0
					}
					latencies = append(latencies, d)
					latAt = append(latAt, r.at)
					continue
				}
			}
			if !fetched || crashedAfter(f.procs[j], r.at) {
				// The evidence is gone (process down at collection, or it
				// crashed after the publish): not a protocol verdict.
				tt.Unverifiable++
				rep.UnverifiablePairs++
				continue
			}
			tt.Missing++
			rep.MissingPairs++
			if len(rep.MissingSample) < 20 {
				rep.MissingSample = append(rep.MissingSample,
					fmt.Sprintf("%s %s %s->%s", r.topic, r.id,
						f.procs[r.origin].name, f.procs[j].name))
			}
		}
		rep.PerTopic[r.topic] = tt
	}
	if verifiable := rep.DeliveredPairs + rep.MissingPairs; verifiable > 0 {
		rep.Completeness = float64(rep.DeliveredPairs) / float64(verifiable)
	}
	rep.CompletenessOK = rep.GatedPairs > 0 && rep.MissingPairs == 0
	// Split the samples around the first set-param fire BEFORE summarizing:
	// summarizeLatency sorts its slice in place, which would scramble the
	// latency/publish-instant pairing.
	f.gmu.Lock()
	var retuneAt int64
	if f.plan != nil && !f.plan.retune.IsZero() {
		retuneAt = f.plan.retune.UnixNano()
	}
	f.gmu.Unlock()
	if retuneAt != 0 {
		var pre, post []int64
		for i, d := range latencies {
			if latAt[i] < retuneAt {
				pre = append(pre, d)
			} else {
				post = append(post, d)
			}
		}
		preSum, postSum := summarizeLatency(pre), summarizeLatency(post)
		rep.LatencyPreRetune, rep.LatencyPostRetune = &preSum, &postSum
	}
	rep.Latency = summarizeLatency(latencies)
	rep.PublishesPerSec = float64(rep.Published) / elapsed.Seconds()

	var deliveredTotal int
	for _, idx := range sortedKeys(ledgers) {
		for _, topic := range f.topics {
			deliveredTotal += len(ledgers[idx][topic])
		}
	}
	rep.MsgsPerSec = float64(deliveredTotal) / elapsed.Seconds()

	rep.RestartsByNode = make(map[string]int)
	for _, p := range f.procs {
		p.mu.Lock()
		restarts := p.restarts
		p.mu.Unlock()
		if restarts > 0 {
			rep.RestartsByNode[p.name] = restarts
			rep.Restarts += restarts
		}
	}

	f.mmu.Lock()
	rep.MetricsSamples = append([]MetricSample(nil), f.metricsLog...)
	f.mmu.Unlock()

	f.smu.Lock()
	rep.InjectedKills = f.kills
	rep.CrashLoops = append([]string(nil), f.crashLoop...)
	for _, name := range sortedKeys(f.lagging) {
		rep.Lagging = append(rep.Lagging, name)
	}
	rep.Wedged = append([]string(nil), f.wedgedLog...)
	rep.Notes = append([]string(nil), f.notes...)
	f.smu.Unlock()
	sort.Strings(rep.CrashLoops)

	// Counter totals from whatever part of the fleet still answers.
	var scrapes []telemetry.Series
	for _, p := range f.procs {
		if st, _ := p.snapshot(); st != stateUp {
			continue
		}
		if series, err := p.scrape(2 * time.Second); err == nil {
			scrapes = append(scrapes, series)
		}
	}
	rep.Node, rep.Transport = fleetTotals(scrapes)
	return rep
}

// summarizeLatency computes exact percentiles over the sample set.
func summarizeLatency(ns []int64) LatencySummary {
	if len(ns) == 0 {
		return LatencySummary{}
	}
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	q := func(p float64) float64 {
		idx := int(p * float64(len(ns)-1))
		return float64(ns[idx]) / 1e6
	}
	return LatencySummary{
		P50:     q(0.50),
		P95:     q(0.95),
		P99:     q(0.99),
		Max:     float64(ns[len(ns)-1]) / 1e6,
		Samples: len(ns),
	}
}

// sortedKeys returns a map's keys in sorted order (the repo's map-order
// determinism contract for any fold over map entries).
func sortedKeys[K interface {
	~int | ~string
}, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}
