// Command ringcast-node runs a live RingCast participant over TCP.
//
// Each line read from standard input is published to the overlay; every
// message delivered from the overlay is printed to standard output. Start a
// first node, then point further nodes at it with -join. With -topics the
// node becomes a pub/sub peer running one overlay per topic (Section 8's
// topic-based publish/subscribe); with -control it additionally serves the
// soak-harness control protocol (internal/soak) for health probes, fault
// injection and delivery-ledger collection, and -seed pins the node's ring
// identity so a supervised restart rejoins under the same identifier
// (-epoch then separates the incarnations so restarted sequence numbers
// cannot collide with pre-crash message IDs).
//
// Runtime behavior is re-tunable without a restart: gossip interval,
// fanout, view sizes and send-queue settings live in a versioned config
// store fed by three sources — flags at boot, a -config JSON file
// (reloaded on SIGHUP), and the control protocol's set/get verbs. With
// -metrics the node serves its counters and current config as a
// Prometheus text-format /metrics endpoint.
//
// Run with -h for the full flag reference and examples.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"ringcast/internal/config"
	"ringcast/internal/core"
	"ringcast/internal/ident"
	"ringcast/internal/node"
	"ringcast/internal/pubsub"
	"ringcast/internal/soak"
	"ringcast/internal/telemetry"
	"ringcast/internal/transport"
	"ringcast/internal/wire"
)

// usageHeader is the long-form usage text printed by -h, ahead of the
// generated flag reference. TestUsageCoversAllFlags asserts every
// registered flag appears in at least one example, so the examples cannot
// drift from the flag set.
const usageHeader = `Usage: ringcast-node [flags]

Run one live RingCast node. Lines on stdin are published; deliveries are
printed to stdout.

Examples:
  ringcast-node -listen 127.0.0.1:7001                      # first node
  ringcast-node -listen 127.0.0.1:7002 -join 127.0.0.1:7001 # join the mesh
  ringcast-node -join 127.0.0.1:7001 -proto randcast -fanout 5
  ringcast-node -join 127.0.0.1:7001 -interval 100ms -status 2s
  ringcast-node -join 127.0.0.1:7001 -topics news,sports    # pub/sub peer, one overlay per topic
  ringcast-node -join 127.0.0.1:7001 -control 127.0.0.1:0 -seed 7  # soak-harness control surface
  ringcast-node -join 127.0.0.1:7001 -metrics 127.0.0.1:9100       # Prometheus /metrics endpoint
  ringcast-node -join 127.0.0.1:7001 -config tuning.json           # runtime config file, reloaded on SIGHUP
  ringcast-node -control 127.0.0.1:0 -seed 7 -epoch 1   # supervised restart: same identity, fresh incarnation

Flags:
`

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "ringcast-node:", err)
		os.Exit(1)
	}
}

// runtime abstracts the two node shapes (plain single-overlay node,
// multi-topic pub/sub peer) behind the hooks the control agent and the
// stdin/status loop need.
type runtime struct {
	topics  []string // sorted; {"-"} in plain mode
	nd      *node.Node
	peer    *pubsub.Peer
	pubItem string // stdin lines publish to this topic
}

// nodes returns the per-topic nodes in topic order.
func (r *runtime) nodes() []*node.Node {
	if r.nd != nil {
		return []*node.Node{r.nd}
	}
	out := make([]*node.Node, 0, len(r.topics))
	for _, tp := range r.topics {
		if nd, ok := r.peer.Node(tp); ok {
			out = append(out, nd)
		}
	}
	return out
}

// id is the node's ring identity: the first topic's node ID, which the
// soak harness hands to the scenario driver for arc resolution.
func (r *runtime) id() ident.ID {
	nds := r.nodes()
	if len(nds) == 0 {
		return ident.Nil
	}
	return nds[0].ID()
}

func (r *runtime) addr() string {
	if r.nd != nil {
		return r.nd.Addr()
	}
	return r.peer.Addr()
}

func (r *runtime) publish(topic string, body []byte) (wire.MsgID, error) {
	if r.nd != nil {
		if topic != r.pubItem {
			return wire.MsgID{}, fmt.Errorf("plain node has no topic %q", topic)
		}
		return r.nd.Publish(body)
	}
	return r.peer.Publish(topic, body)
}

func (r *runtime) status() map[string]soak.TopicStatus {
	out := make(map[string]soak.TopicStatus, len(r.topics))
	for i, nd := range r.nodes() {
		st := soak.TopicStatus{ID: uint64(nd.ID()), View: len(nd.ViewIDs())}
		if pred, succ, ok := nd.RingNeighbors(); ok {
			st.Pred, st.Succ, st.Ring = uint64(pred.Node), uint64(succ.Node), true
		}
		out[r.topics[i]] = st
	}
	return out
}

func (r *runtime) nodeStats() node.Stats {
	var agg node.Stats
	for _, nd := range r.nodes() {
		s := nd.Stats()
		agg.Published += s.Published
		agg.Delivered += s.Delivered
		agg.Duplicates += s.Duplicates
		agg.Forwarded += s.Forwarded
		agg.SendErrors += s.SendErrors
		agg.QueueFull += s.QueueFull
		agg.Shuffles += s.Shuffles
		agg.VicExchanges += s.VicExchanges
	}
	return agg
}

func (r *runtime) transportStats() transport.Stats {
	if r.nd != nil {
		return r.nd.TransportStats()
	}
	return r.peer.TransportStats()
}

func (r *runtime) close() {
	if r.nd != nil {
		r.nd.Close()
		return
	}
	r.peer.Close()
}

func run(args []string, in io.Reader, out io.Writer) error {
	fs := flag.NewFlagSet("ringcast-node", flag.ContinueOnError)
	fs.SetOutput(out)
	fs.Usage = func() {
		fmt.Fprint(out, usageHeader)
		fs.PrintDefaults()
	}
	var (
		listen   = fs.String("listen", "127.0.0.1:0", "TCP listen address")
		join     = fs.String("join", "", "bootstrap peer address (empty = first node)")
		fanout   = fs.Int("fanout", 3, "dissemination fanout F")
		proto    = fs.String("proto", "ringcast", "protocol: ringcast or randcast")
		interval = fs.Duration("interval", 500*time.Millisecond, "gossip cycle length")
		status   = fs.Duration("status", 10*time.Second, "status print interval (0 = off)")
		control  = fs.String("control", "", "soak control server listen address (empty = off)")
		topics   = fs.String("topics", "", "comma-separated pub/sub topics (empty = one plain overlay)")
		seed     = fs.Int64("seed", 0, "deterministic identity seed (0 = random ring IDs)")
		epoch    = fs.Uint("epoch", 0, "incarnation epoch stamped into message IDs (supervised restarts pass the restart count)")
		metrics  = fs.String("metrics", "", "Prometheus /metrics listen address (empty = off)")
		cfgFile  = fs.String("config", "", "JSON runtime-config file, applied at boot and reloaded on SIGHUP (empty = none)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	sel, err := core.ByName(*proto)
	if err != nil {
		return err
	}

	tr, err := transport.ListenTCP(*listen)
	if err != nil {
		return err
	}

	// The control agent binds before the node exists so the deliver
	// callback can feed its ledger from the very first message; the fault
	// injector sits between the node and the socket so control-programmed
	// partitions black-hole real frames.
	var agent *soak.Agent
	var faults *transport.FaultInjector
	base := transport.Transport(tr)
	if *control != "" {
		agent, err = soak.NewAgent(*control)
		if err != nil {
			tr.Close()
			return err
		}
		fseed := *seed
		if fseed == 0 {
			fseed = 1
		}
		faults = transport.WrapFaults(tr, fseed)
		base = faults
	}

	cfg := node.DefaultConfig()
	cfg.Fanout = *fanout
	cfg.Selector = sel
	cfg.GossipInterval = *interval
	cfg.Seed = *seed
	cfg.Epoch = uint32(*epoch)

	// The tunable-key store seeds from the flag values; the -config file
	// (when given) then overrides at boot through the same two-phase apply
	// the SIGHUP reload uses, which already feeds the transport setters.
	// The runtime below is built from the post-file values, so boot-time
	// file config reaches even settings that only exist at construction.
	cleanup := func() {
		if agent != nil {
			agent.Close()
		}
		base.Close()
	}
	tune := &tuner{tr: tr}
	store, err := buildStore(cfg, tune)
	if err != nil {
		cleanup()
		return err
	}
	if *cfgFile != "" {
		if err := applyConfigFile(store, *cfgFile); err != nil {
			cleanup()
			return err
		}
	}
	cfg.Fanout = int(store.Int("gossip.fanout"))
	cfg.GossipInterval = store.Duration("gossip.interval")
	cfg.Cyclon.ViewSize = int(store.Int("cyclon.view"))
	cfg.Vicinity.ViewSize = int(store.Int("vicinity.view"))

	rt, err := buildRuntime(cfg, base, *topics, *join, out, agent)
	if err != nil {
		cleanup()
		return err
	}
	defer rt.close()
	tune.rt = rt

	var msrv *telemetry.Server
	if *metrics != "" {
		msrv, err = telemetry.Serve(*metrics, buildRegistry(rt, store, cfg.Epoch))
		if err != nil {
			return err
		}
		defer msrv.Close()
		fmt.Fprintf(out, "metrics on http://%s/metrics\n", msrv.Addr())
	}

	fmt.Fprintf(out, "node %s listening on %s (%s, F=%d)\n", rt.id(), rt.addr(), sel.Name(), *fanout)
	if err := joinMesh(rt, *join, *interval); err != nil {
		return err
	}
	if *join != "" {
		fmt.Fprintf(out, "joined via %s\n", *join)
	}

	// quit carries the control protocol's shutdown request into the main
	// select; the Quit hook must not block, hence the once-guarded close.
	quit := make(chan struct{})
	var quitOnce sync.Once
	if agent != nil {
		defer agent.Close()
		agent.Start(soak.Hooks{
			ID:             rt.id,
			Addr:           rt.addr,
			Topics:         rt.topics,
			Publish:        rt.publish,
			Status:         rt.status,
			NodeStats:      rt.nodeStats,
			TransportStats: rt.transportStats,
			Faults:         faults,
			SetParam: func(key, value string) error {
				_, err := store.Set(key, value)
				return err
			},
			GetParam: func(key string) (string, uint64, error) {
				snap := store.Snapshot()
				v, ok := snap.Values[key]
				if !ok {
					return "", 0, config.ErrUnknownKey
				}
				return v, snap.Version, nil
			},
			Quit: func() { quitOnce.Do(func() { close(quit) }) },
		})
		// The machine-parseable handshake the soak harness scans for.
		extra := ""
		if msrv != nil {
			extra = " metrics=" + msrv.Addr()
		}
		fmt.Fprintf(out, "SOAK ready addr=%s control=%s id=%d pid=%d%s\n",
			rt.addr(), agent.Addr(), uint64(rt.id()), os.Getpid(), extra)
	}

	// stop unblocks the reader goroutine when run returns for any other
	// reason (signal, publish error): without it a line arriving after the
	// main loop exits would park the goroutine on the lines send forever.
	// readErr stays a buffered handoff — its single send cannot block.
	lines := make(chan string)
	readErr := make(chan error, 1)
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		sc := bufio.NewScanner(in)
		for sc.Scan() {
			select {
			case lines <- sc.Text():
			case <-stop:
				return
			}
		}
		readErr <- sc.Err()
	}()

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)

	// SIGHUP re-reads the -config file; without one the channel stays
	// unregistered (nil reads never fire) and SIGHUP keeps its default.
	var hup chan os.Signal
	if *cfgFile != "" {
		hup = make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
	}

	var statusC <-chan time.Time
	if *status > 0 {
		t := time.NewTicker(*status)
		defer t.Stop()
		statusC = t.C
	}

	for {
		select {
		case line := <-lines:
			if line == "" {
				continue
			}
			mid, err := rt.publish(rt.pubItem, []byte(line))
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "[sent %s]\n", mid)
		case <-statusC:
			printStatus(out, rt)
		case err := <-readErr:
			if agent != nil {
				// Control mode runs supervised with stdin on /dev/null:
				// EOF there is immediate and meaningless. Disable the
				// stdin path and keep serving until a signal or a control
				// quit (nil channels never fire).
				lines, readErr = nil, nil
				continue
			}
			return err
		case <-hup:
			if err := applyConfigFile(store, *cfgFile); err != nil {
				fmt.Fprintf(out, "[config] reload %s: %v\n", *cfgFile, err)
			} else {
				fmt.Fprintf(out, "[config] reloaded %s (version %d)\n", *cfgFile, store.Version())
			}
		case <-sigs:
			fmt.Fprintln(out, "shutting down")
			return nil
		case <-quit:
			fmt.Fprintln(out, "shutting down (control quit)")
			return nil
		}
	}
}

// buildRuntime constructs either the plain single-overlay node or the
// multi-topic pub/sub peer, wiring deliveries through the control agent's
// ledger when one is present.
func buildRuntime(cfg node.Config, base transport.Transport, topicsCSV, join string, out io.Writer, agent *soak.Agent) (*runtime, error) {
	if topicsCSV == "" {
		rt := &runtime{topics: []string{"-"}, pubItem: "-"}
		nd, err := node.New(cfg, base, func(d node.Delivery) {
			if agent != nil {
				agent.Deliver("-", d.Msg.ID)
			}
			fmt.Fprintf(out, "[recv %s from %s] %s\n", d.Msg.ID, d.From, d.Msg.Body)
		})
		if err != nil {
			return nil, err
		}
		rt.nd = nd
		return rt, nil
	}

	var topics []string
	for _, tp := range strings.Split(topicsCSV, ",") {
		if tp = strings.TrimSpace(tp); tp != "" {
			topics = append(topics, tp)
		}
	}
	if len(topics) == 0 {
		return nil, errors.New("-topics given but empty")
	}
	sort.Strings(topics)
	peer, err := pubsub.NewPeer(base, cfg)
	if err != nil {
		return nil, err
	}
	var bootstrap []string
	if join != "" {
		bootstrap = []string{join}
	}
	for _, tp := range topics {
		topic := tp
		if err := peer.Subscribe(topic, bootstrap, func(ev pubsub.Event) {
			if agent != nil {
				agent.Deliver(topic, ev.Msg.ID)
			}
			fmt.Fprintf(out, "[recv %s %s] %s\n", topic, ev.Msg.ID, ev.Msg.Body)
		}); err != nil {
			peer.Close()
			return nil, err
		}
	}
	return &runtime{topics: topics, peer: peer, pubItem: topics[0]}, nil
}

// joinMesh runs the accelerated warm-up for joiners (Section 7.3's
// optimization) on every overlay. Sends are asynchronous: a dead bootstrap
// does not fail the first Join — the dial failure surfaces on a retry — so
// keep gossiping and re-probing until the bootstrap's hello-ack lands in
// the view or the deadline expires. Plain nodes Join lazily here; pub/sub
// peers already joined in Subscribe and only need the retry loop.
func joinMesh(rt *runtime, join string, interval time.Duration) error {
	if join == "" {
		if rt.nd != nil {
			return rt.nd.Start()
		}
		return nil
	}
	if rt.nd != nil {
		if err := rt.nd.Join(join); err != nil {
			return err
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for _, nd := range rt.nodes() {
		for len(nd.ViewIDs()) == 0 {
			if time.Now().After(deadline) {
				return fmt.Errorf("join %s: no response from bootstrap", join)
			}
			nd.GossipNow()
			time.Sleep(interval / 5)
			if err := nd.Join(join); err != nil {
				return fmt.Errorf("join: %w", err)
			}
		}
	}
	if rt.nd != nil {
		return rt.nd.Start()
	}
	return nil
}

// printStatus renders the periodic status lines.
func printStatus(out io.Writer, rt *runtime) {
	s := rt.nodeStats()
	ts := rt.transportStats()
	views := make([]string, 0, len(rt.topics))
	for _, tp := range rt.topics {
		st := rt.status()[tp]
		ring := "no-ring"
		if st.Ring {
			ring = "ring"
		}
		views = append(views, fmt.Sprintf("%s:view=%d,%s", tp, st.View, ring))
	}
	fmt.Fprintf(out, "[status] %s | delivered=%d dup=%d fwd=%d errs=%d busy=%d\n",
		strings.Join(views, " "), s.Delivered, s.Duplicates, s.Forwarded, s.SendErrors, s.QueueFull)
	fmt.Fprintf(out, "[transport] sent=%d frames/%d bytes queued=%d writers=%d drops=%d rejects=%d dialfail=%d\n",
		ts.FramesSent, ts.BytesSent, ts.QueueDepth, ts.Writers, ts.Drops, ts.Rejects, ts.DialFailures)
}
