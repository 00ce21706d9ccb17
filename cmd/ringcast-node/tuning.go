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
	"ringcast/internal/telemetry"
	"ringcast/internal/transport"
)

// tuner is what the tunable keys act on: the TCP transport from boot, and
// the runtime once it is built. A commit before that (the boot-time -config
// apply) reaches only the transport; the runtime is then built from the
// post-file values.
type tuner struct {
	tr *transport.TCPTransport
	rt *runtime
}

// eachNode fans a node setter out to every overlay of the runtime (a no-op
// until the runtime exists).
func eachNode[T any](t *tuner, set func(*node.Node, T) error) func(T) error {
	return func(v T) error {
		if t.rt == nil {
			return nil
		}
		for _, nd := range t.rt.nodes() {
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

// buildRegistry wires the node's counters and the config store's current
// state into a telemetry registry for the -metrics endpoint. Node counters
// carry a topic label (the plain overlay publishes under topic "-"); the
// ringcast_transport_* family is the base-socket aggregate; in pub/sub
// mode ringcast_topic_* adds the per-topic mux attribution on top.
func buildRegistry(rt *runtime, s *config.Store, epoch uint32) *telemetry.Registry {
	r := telemetry.NewRegistry()
	r.Describe("ringcast_node_published_total", telemetry.Counter, "messages published locally")
	r.Describe("ringcast_node_delivered_total", telemetry.Counter, "messages delivered to the application")
	r.Describe("ringcast_node_duplicates_total", telemetry.Counter, "duplicate receives suppressed by dedup")
	r.Describe("ringcast_node_forwarded_total", telemetry.Counter, "dissemination forwards sent")
	r.Describe("ringcast_node_send_errors_total", telemetry.Counter, "sends that failed or were rejected")
	r.Describe("ringcast_transport_frames_sent_total", telemetry.Counter, "frames handed to the wire, all overlays")
	r.Describe("ringcast_transport_bytes_sent_total", telemetry.Counter, "marshalled bytes sent, all overlays")
	r.Describe("ringcast_transport_drops_total", telemetry.Counter, "frames dropped by backpressure")
	r.Describe("ringcast_transport_rejects_total", telemetry.Counter, "sends rejected at a full queue")
	r.Describe("ringcast_transport_dial_failures_total", telemetry.Counter, "outbound dials that failed")
	r.Describe("ringcast_transport_queue_depth", telemetry.Gauge, "frames currently queued across writers")
	r.Describe("ringcast_transport_writers", telemetry.Gauge, "live writer goroutines")
	r.Describe("ringcast_topic_frames_sent_total", telemetry.Counter, "frames sent, attributed per topic (pub/sub)")
	r.Describe("ringcast_topic_bytes_sent_total", telemetry.Counter, "bytes sent, attributed per topic (pub/sub)")
	r.Describe("ringcast_topic_rejects_total", telemetry.Counter, "queue-full rejects, attributed per topic (pub/sub)")
	r.Describe("ringcast_stray_frames_total", telemetry.Counter, "frames for unknown topics, dropped by the mux")
	r.Describe("ringcast_config_version", telemetry.Gauge, "config store version, bumped per accepted Set")
	r.Describe("ringcast_config_gossip_interval_seconds", telemetry.Gauge, "current gossip cycle length T")
	r.Describe("ringcast_config_fanout", telemetry.Gauge, "current dissemination fanout F")
	r.Describe("ringcast_config_send_queue_cap", telemetry.Gauge, "current per-destination send queue capacity")
	r.Describe("ringcast_epoch", telemetry.Gauge, "incarnation epoch stamped into published message IDs")
	r.Collect(func() []telemetry.Sample {
		var out []telemetry.Sample
		nds := rt.nodes()
		for i, nd := range nds {
			topic := "-"
			if i < len(rt.topics) {
				topic = rt.topics[i]
			}
			st := nd.Stats()
			lbl := map[string]string{"topic": topic}
			out = append(out,
				telemetry.Sample{Name: "ringcast_node_published_total", Labels: lbl, Value: float64(st.Published)},
				telemetry.Sample{Name: "ringcast_node_delivered_total", Labels: lbl, Value: float64(st.Delivered)},
				telemetry.Sample{Name: "ringcast_node_duplicates_total", Labels: lbl, Value: float64(st.Duplicates)},
				telemetry.Sample{Name: "ringcast_node_forwarded_total", Labels: lbl, Value: float64(st.Forwarded)},
				telemetry.Sample{Name: "ringcast_node_send_errors_total", Labels: lbl, Value: float64(st.SendErrors)},
			)
		}
		ts := rt.transportStats()
		out = append(out,
			telemetry.Sample{Name: "ringcast_transport_frames_sent_total", Value: float64(ts.FramesSent)},
			telemetry.Sample{Name: "ringcast_transport_bytes_sent_total", Value: float64(ts.BytesSent)},
			telemetry.Sample{Name: "ringcast_transport_drops_total", Value: float64(ts.Drops)},
			telemetry.Sample{Name: "ringcast_transport_rejects_total", Value: float64(ts.Rejects)},
			telemetry.Sample{Name: "ringcast_transport_dial_failures_total", Value: float64(ts.DialFailures)},
			telemetry.Sample{Name: "ringcast_transport_queue_depth", Value: float64(ts.QueueDepth)},
			telemetry.Sample{Name: "ringcast_transport_writers", Value: float64(ts.Writers)},
		)
		if rt.peer != nil {
			for _, tp := range rt.topics {
				if st, ok := rt.peer.TopicStats(tp); ok {
					lbl := map[string]string{"topic": tp}
					out = append(out,
						telemetry.Sample{Name: "ringcast_topic_frames_sent_total", Labels: lbl, Value: float64(st.FramesSent)},
						telemetry.Sample{Name: "ringcast_topic_bytes_sent_total", Labels: lbl, Value: float64(st.BytesSent)},
						telemetry.Sample{Name: "ringcast_topic_rejects_total", Labels: lbl, Value: float64(st.Rejects)},
					)
				}
			}
			out = append(out, telemetry.Sample{Name: "ringcast_stray_frames_total", Value: float64(rt.peer.StrayFrames())})
		}
		fanout, interval, sendqCap := 0, time.Duration(0), int64(0)
		if len(nds) > 0 {
			fanout, interval = nds[0].Fanout(), nds[0].GossipInterval()
		}
		sendqCap = s.Int("sendq.cap")
		out = append(out,
			telemetry.Sample{Name: "ringcast_config_version", Value: float64(s.Version())},
			telemetry.Sample{Name: "ringcast_config_gossip_interval_seconds", Value: interval.Seconds()},
			telemetry.Sample{Name: "ringcast_config_fanout", Value: float64(fanout)},
			telemetry.Sample{Name: "ringcast_config_send_queue_cap", Value: float64(sendqCap)},
			telemetry.Sample{Name: "ringcast_epoch", Value: float64(epoch)},
		)
		return out
	})
	return r
}
