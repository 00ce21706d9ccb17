// Command ringcast-node runs a live RingCast participant over TCP.
//
// The node is always a pub/sub peer running one overlay per topic (Section
// 8: "each topic forms its own, separate dissemination overlay"); -topics
// names them and defaults to the single topic "default", so a plain
// single-overlay node is a one-topic peer. Each line read from standard
// input is published on the first topic; every message delivered on any
// topic is printed to standard output. Start a first node, then point
// further nodes at it with -join. With -control the node additionally
// serves the soak-harness control protocol (internal/soak) for ring
// status, fault injection, publish injection and delivery-ledger
// collection, and -seed pins the node's ring identity so a supervised
// restart rejoins under the same identifier (-epoch then separates the
// incarnations so restarted sequence numbers cannot collide with
// pre-crash message IDs).
//
// Runtime behavior is re-tunable without a restart: gossip interval,
// fanout, view sizes and send-queue settings live in a versioned config
// store fed by three sources — flags at boot, a -config JSON file
// (reloaded on SIGHUP), and the control protocol's set verb. With -metrics
// the node serves its counters and current config as a Prometheus
// text-format /metrics endpoint, the one place its counters are read.
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

	"ringcast/internal/core"
	"ringcast/internal/ident"
	"ringcast/internal/node"
	"ringcast/internal/pubsub"
	"ringcast/internal/soak"
	"ringcast/internal/telemetry"
	"ringcast/internal/transport"
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
  ringcast-node -join 127.0.0.1:7001 -interval 100ms
  ringcast-node -join 127.0.0.1:7001 -topics news,sports    # one overlay per topic (default: one topic "default")
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

// topicNodes returns the peer's per-topic protocol nodes in topic order.
func topicNodes(p *pubsub.Peer) []*node.Node {
	tps := p.Topics()
	out := make([]*node.Node, 0, len(tps))
	for _, tp := range tps {
		if nd, ok := p.Node(tp); ok {
			out = append(out, nd)
		}
	}
	return out
}

// ringID is the node's ring identity: the first topic's node ID, which the
// soak harness hands to the scenario driver for arc resolution.
func ringID(p *pubsub.Peer) ident.ID {
	if nds := topicNodes(p); len(nds) > 0 {
		return nds[0].ID()
	}
	return ident.Nil
}

// topicStatus snapshots every topic overlay's health for the control
// protocol's status verb.
func topicStatus(p *pubsub.Peer) map[string]soak.TopicStatus {
	tps := p.Topics()
	out := make(map[string]soak.TopicStatus, len(tps))
	for _, tp := range tps {
		nd, ok := p.Node(tp)
		if !ok {
			continue
		}
		st := soak.TopicStatus{ID: uint64(nd.ID()), View: len(nd.ViewIDs())}
		if pred, succ, ok := nd.RingNeighbors(); ok {
			st.Pred, st.Succ, st.Ring = uint64(pred.Node), uint64(succ.Node), true
		}
		out[tp] = st
	}
	return out
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
		control  = fs.String("control", "", "soak control server listen address (empty = off)")
		topics   = fs.String("topics", "default", "comma-separated pub/sub topics, one overlay each; stdin publishes to the first in sorted order")
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
	topicList, err := parseTopics(*topics)
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
	// partitions black-hole real frames, and the agent's gate above it
	// holds inbound frames while the node is wedged.
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
		base = agent.Gate(faults)
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
	// The peer below is built from the post-file values, so boot-time file
	// config reaches even settings that only exist at construction.
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

	peer, err := subscribeAll(cfg, base, topicList, *join, out, agent)
	if err != nil {
		cleanup()
		return err
	}
	defer peer.Close()
	tune.peer = peer

	var msrv *telemetry.Server
	if *metrics != "" {
		msrv, err = telemetry.Serve(*metrics, buildRegistry(peer, store, cfg.Epoch))
		if err != nil {
			return err
		}
		defer msrv.Close()
		fmt.Fprintf(out, "metrics on http://%s/metrics\n", msrv.Addr())
	}

	fmt.Fprintf(out, "node %s listening on %s (%s, F=%d)\n", ringID(peer), peer.Addr(), sel.Name(), *fanout)
	if err := joinMesh(peer, *join, *interval); err != nil {
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
			Publish: peer.Publish,
			Status:  func() map[string]soak.TopicStatus { return topicStatus(peer) },
			Faults:  faults,
			SetParam: func(key, value string) error {
				_, err := store.Set(key, value)
				return err
			},
			Quit: func() { quitOnce.Do(func() { close(quit) }) },
		})
		// The machine-parseable handshake the soak harness scans for.
		extra := ""
		if msrv != nil {
			extra = " metrics=" + msrv.Addr()
		}
		fmt.Fprintf(out, "SOAK ready addr=%s control=%s id=%d pid=%d%s\n",
			peer.Addr(), agent.Addr(), uint64(ringID(peer)), os.Getpid(), extra)
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

	for {
		select {
		case line := <-lines:
			if line == "" {
				continue
			}
			mid, err := peer.Publish(topicList[0], []byte(line))
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "[sent %s]\n", mid)
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

// parseTopics splits the -topics list, dropping blanks, and sorts it so
// the first topic — the one stdin publishes to and whose ring ID names the
// node — does not depend on the order the flag lists them in.
func parseTopics(csv string) ([]string, error) {
	var topics []string
	for _, tp := range strings.Split(csv, ",") {
		if tp = strings.TrimSpace(tp); tp != "" {
			topics = append(topics, tp)
		}
	}
	if len(topics) == 0 {
		return nil, errors.New("-topics names no topic")
	}
	sort.Strings(topics)
	return topics, nil
}

// subscribeAll builds the pub/sub peer and joins one overlay per topic,
// wiring deliveries through the control agent's ledger when one is present.
func subscribeAll(cfg node.Config, base transport.Transport, topics []string, join string, out io.Writer, agent *soak.Agent) (*pubsub.Peer, error) {
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
	return peer, nil
}

// joinMesh completes the accelerated warm-up for joiners (Section 7.3's
// optimization) on every overlay. Subscribe already sent the first Join,
// but sends are asynchronous: a dead bootstrap does not fail it — the dial
// failure surfaces on a retry — so keep gossiping and re-probing until the
// bootstrap's hello-ack lands in the view or the deadline expires.
func joinMesh(peer *pubsub.Peer, join string, interval time.Duration) error {
	if join == "" {
		return nil
	}
	deadline := time.Now().Add(10 * time.Second)
	for _, nd := range topicNodes(peer) {
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
	return nil
}
