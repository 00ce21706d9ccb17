package main

// Runtime tuning and observability wiring: the config.Store key catalog
// with the node and transport setters each key feeds, the -config JSON
// file source, and the /metrics telemetry registry. All of it is cmd-layer
// glue — the store itself (internal/config) stays free of file IO and
// signal handling, and the registry (internal/telemetry) knows nothing
// about which counters a node exposes.

import (
	"os"
	"time"

	"ringcast/internal/config"
	"ringcast/internal/node"
	"ringcast/internal/pubsub"
	"ringcast/internal/telemetry"
	"ringcast/internal/transport"
)

// tuner is what the tunable keys act on: the TCP transport from boot, and
// the pub/sub peer once it is built. A commit before that (the boot-time
// -config apply) reaches only the transport; the peer is then built from
// the post-file values.
type tuner struct {
	tr   *transport.TCPTransport
	peer *pubsub.Peer
}

// eachNode fans a node setter out to every topic overlay of the peer (a
// no-op until the peer exists).
func eachNode[T any](t *tuner, set func(*node.Node, T) error) func(T) error {
	return func(v T) error {
		if t.peer == nil {
			return nil
		}
		for _, nd := range topicNodes(t.peer) {
			if err := set(nd, v); err != nil {
				return err
			}
		}
		return nil
	}
}

// buildStore registers the runtime-tunable key catalog, seeded from the
// node configuration the flags produced. Each key names its type, bounds
// and setter once; the store runs the setter on every accepted update
// before the update returns. Bounds mirror the setters they feed
// (SetViewSizes rejects views below the layer's exchange length, so the
// store rejects them upfront and the prior version stays current).
func buildStore(cfg node.Config, t *tuner) (*config.Store, error) {
	s := config.NewStore()
	defs := []config.Def{
		// Gossip cycle length T; the timer re-arms immediately.
		config.DurationKey("gossip.interval", cfg.GossipInterval, time.Millisecond, time.Hour,
			eachNode(t, (*node.Node).SetGossipInterval)),
		// Dissemination fanout F; applies at the next cycle boundary.
		config.IntKey("gossip.fanout", cfg.Fanout, 1, 128, eachNode(t, (*node.Node).SetFanout)),
		// CYCLON and VICINITY partial-view lengths; apply at the next cycle boundary.
		config.IntKey("cyclon.view", cfg.Cyclon.ViewSize, cfg.Cyclon.ShuffleLen, 1024,
			eachNode(t, func(nd *node.Node, v int) error { return nd.SetViewSizes(v, 0) })),
		config.IntKey("vicinity.view", cfg.Vicinity.ViewSize, cfg.Vicinity.GossipLen, 1024,
			eachNode(t, func(nd *node.Node, v int) error { return nd.SetViewSizes(0, v) })),
		// Per-destination send queue capacity, frames.
		config.IntKey("sendq.cap", transport.DefaultSendQueueCap, 1, 1<<20, t.tr.SetSendQueueCap),
		// Writer batch cap, bytes per write call.
		config.IntKey("sendq.batch", transport.DefaultMaxBatchBytes, 1, 1<<30, t.tr.SetMaxBatchBytes),
		// Writer idle linger before connection teardown.
		config.DurationKey("sendq.idle", transport.DefaultWriterIdle, time.Millisecond, time.Hour,
			t.tr.SetWriterIdle),
	}
	for _, d := range defs {
		if err := s.Register(d); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// applyConfigFile reads path and applies it to the store as one two-phase
// JSON document: a single bad key rejects the whole file and the store
// keeps its prior version. Called at boot and again on every SIGHUP.
func applyConfigFile(s *config.Store, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	_, err = s.ApplyJSON(data)
	return err
}

// buildRegistry wires the peer's counters and the config store's current
// state into a telemetry registry for the -metrics endpoint — the node's
// one counter surface. ringcast_node_* carries a topic label per overlay;
// ringcast_transport_* is the base-socket aggregate and ringcast_topic_*
// its per-topic mux attribution; ringcast_config_* mirrors every tunable
// key.
func buildRegistry(peer *pubsub.Peer, s *config.Store, epoch uint32) *telemetry.Registry {
	r := telemetry.NewRegistry()
	nodeFamilies := []struct {
		name, help string
		get        func(node.Stats) uint64
	}{
		{"ringcast_node_published_total", "messages published locally", func(st node.Stats) uint64 { return st.Published }},
		{"ringcast_node_delivered_total", "messages delivered to the application", func(st node.Stats) uint64 { return st.Delivered }},
		{"ringcast_node_duplicates_total", "duplicate receives suppressed by dedup", func(st node.Stats) uint64 { return st.Duplicates }},
		{"ringcast_node_forwarded_total", "dissemination forwards sent", func(st node.Stats) uint64 { return st.Forwarded }},
		{"ringcast_node_send_errors_total", "sends that failed or were rejected", func(st node.Stats) uint64 { return st.SendErrors }},
		{"ringcast_node_queue_full_total", "forwards refused by local backpressure (peer kept)", func(st node.Stats) uint64 { return st.QueueFull }},
		{"ringcast_node_shuffles_total", "CYCLON exchanges initiated", func(st node.Stats) uint64 { return st.Shuffles }},
		{"ringcast_node_vic_exchanges_total", "VICINITY exchanges initiated", func(st node.Stats) uint64 { return st.VicExchanges }},
	}
	for _, f := range nodeFamilies {
		r.Describe(f.name, telemetry.Counter, f.help)
	}
	r.Describe("ringcast_transport_frames_sent_total", telemetry.Counter, "frames handed to the wire, all overlays")
	r.Describe("ringcast_transport_bytes_sent_total", telemetry.Counter, "marshalled bytes sent, all overlays")
	r.Describe("ringcast_transport_drops_total", telemetry.Counter, "frames dropped by backpressure")
	r.Describe("ringcast_transport_rejects_total", telemetry.Counter, "sends rejected at a full queue")
	r.Describe("ringcast_transport_dial_failures_total", telemetry.Counter, "outbound dials that failed")
	r.Describe("ringcast_transport_queue_depth", telemetry.Gauge, "frames currently queued across writers")
	r.Describe("ringcast_transport_writers", telemetry.Gauge, "live writer goroutines")
	r.Describe("ringcast_topic_frames_sent_total", telemetry.Counter, "frames sent, attributed per topic")
	r.Describe("ringcast_topic_bytes_sent_total", telemetry.Counter, "bytes sent, attributed per topic")
	r.Describe("ringcast_topic_rejects_total", telemetry.Counter, "queue-full rejects, attributed per topic")
	r.Describe("ringcast_stray_frames_total", telemetry.Counter, "frames for unknown topics, dropped by the mux")
	r.Describe("ringcast_config_version", telemetry.Gauge, "config store version, bumped per accepted Set")
	r.Describe("ringcast_config_gossip_interval_seconds", telemetry.Gauge, "current gossip cycle length T")
	r.Describe("ringcast_config_fanout", telemetry.Gauge, "current dissemination fanout F")
	r.Describe("ringcast_config_cyclon_view", telemetry.Gauge, "current CYCLON view length")
	r.Describe("ringcast_config_vicinity_view", telemetry.Gauge, "current VICINITY view length")
	r.Describe("ringcast_config_send_queue_cap", telemetry.Gauge, "current per-destination send queue capacity")
	r.Describe("ringcast_config_send_batch_bytes", telemetry.Gauge, "current writer batch cap, bytes per write")
	r.Describe("ringcast_config_send_idle_seconds", telemetry.Gauge, "current writer idle linger before teardown")
	r.Describe("ringcast_epoch", telemetry.Gauge, "incarnation epoch stamped into published message IDs")
	r.Collect(func() []telemetry.Sample {
		var out []telemetry.Sample
		fanout, interval := 0, time.Duration(0)
		for _, tp := range peer.Topics() {
			nd, ok := peer.Node(tp)
			if !ok {
				continue
			}
			if fanout == 0 {
				fanout, interval = nd.Fanout(), nd.GossipInterval()
			}
			st := nd.Stats()
			lbl := map[string]string{"topic": tp}
			for _, f := range nodeFamilies {
				out = append(out, telemetry.Sample{Name: f.name, Labels: lbl, Value: float64(f.get(st))})
			}
			if ts, ok := peer.TopicStats(tp); ok {
				out = append(out,
					telemetry.Sample{Name: "ringcast_topic_frames_sent_total", Labels: lbl, Value: float64(ts.FramesSent)},
					telemetry.Sample{Name: "ringcast_topic_bytes_sent_total", Labels: lbl, Value: float64(ts.BytesSent)},
					telemetry.Sample{Name: "ringcast_topic_rejects_total", Labels: lbl, Value: float64(ts.Rejects)},
				)
			}
		}
		ts := peer.TransportStats()
		out = append(out,
			telemetry.Sample{Name: "ringcast_transport_frames_sent_total", Value: float64(ts.FramesSent)},
			telemetry.Sample{Name: "ringcast_transport_bytes_sent_total", Value: float64(ts.BytesSent)},
			telemetry.Sample{Name: "ringcast_transport_drops_total", Value: float64(ts.Drops)},
			telemetry.Sample{Name: "ringcast_transport_rejects_total", Value: float64(ts.Rejects)},
			telemetry.Sample{Name: "ringcast_transport_dial_failures_total", Value: float64(ts.DialFailures)},
			telemetry.Sample{Name: "ringcast_transport_queue_depth", Value: float64(ts.QueueDepth)},
			telemetry.Sample{Name: "ringcast_transport_writers", Value: float64(ts.Writers)},
			telemetry.Sample{Name: "ringcast_stray_frames_total", Value: float64(peer.StrayFrames())},
			telemetry.Sample{Name: "ringcast_config_version", Value: float64(s.Version())},
			telemetry.Sample{Name: "ringcast_config_gossip_interval_seconds", Value: interval.Seconds()},
			telemetry.Sample{Name: "ringcast_config_fanout", Value: float64(fanout)},
			telemetry.Sample{Name: "ringcast_config_cyclon_view", Value: float64(s.Int("cyclon.view"))},
			telemetry.Sample{Name: "ringcast_config_vicinity_view", Value: float64(s.Int("vicinity.view"))},
			telemetry.Sample{Name: "ringcast_config_send_queue_cap", Value: float64(s.Int("sendq.cap"))},
			telemetry.Sample{Name: "ringcast_config_send_batch_bytes", Value: float64(s.Int("sendq.batch"))},
			telemetry.Sample{Name: "ringcast_config_send_idle_seconds", Value: s.Duration("sendq.idle").Seconds()},
			telemetry.Sample{Name: "ringcast_epoch", Value: float64(epoch)},
		)
		return out
	})
	return r
}
