package soak

// The node-side half of the harness: every ringcast-node launched with
// -control runs an Agent, a line-oriented TCP control server the harness
// uses for actuation — fault programming, publish injection, config sets,
// wedging — plus the two reads no counter can carry: the per-topic ring
// status (exact 64-bit ring IDs for the mesh barrier) and the
// delivery-completeness ledger. Counters are read from the node's /metrics
// endpoint only. One command per line, one JSON object per response line;
// the protocol is deliberately dumb so a human can drive a node with nc(1)
// while the harness drives the rest of the fleet.

import (
	"fmt"
	"net"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"ringcast/internal/transport"
	"ringcast/internal/wire"
)

// TopicStatus is one topic overlay's health snapshot, as reported by the
// control protocol's status command.
type TopicStatus struct {
	// ID is the node's ring identifier on this topic's overlay (per-topic
	// identities differ: each topic derives its own seeded ID).
	ID uint64 `json:"id"`
	// View is the CYCLON view size (0 = not yet joined).
	View int `json:"view"`
	// Pred and Succ are the ring-neighbor IDs, valid when Ring is true.
	Pred uint64 `json:"pred"`
	Succ uint64 `json:"succ"`
	// Ring reports whether the node knows both ring neighbors.
	Ring bool `json:"ring"`
}

// PubAck acknowledges a control-initiated publish.
type PubAck struct {
	// Origin, Epoch and Seq identify the message (wire.MsgID). Epoch is the
	// publisher's incarnation: a supervised restart bumps it so post-restart
	// sequence numbers cannot collide with pre-crash message IDs.
	Origin uint64 `json:"origin"`
	Epoch  uint32 `json:"epoch,omitempty"`
	Seq    uint64 `json:"seq"`
	// T is the publish wall-clock time in Unix nanoseconds, stamped on the
	// publishing node just before dissemination started.
	T int64 `json:"t"`
}

// LedgerEntry records one delivered message and its arrival time.
type LedgerEntry struct {
	// Origin, Epoch and Seq identify the message (wire.MsgID).
	Origin uint64 `json:"o"`
	Epoch  uint32 `json:"e,omitempty"`
	Seq    uint64 `json:"q"`
	// T is the arrival wall-clock time in Unix nanoseconds.
	T int64 `json:"t"`
}

// Hooks wires an Agent to the process's node runtime. Every func must be
// safe for concurrent use; Quit must not block (signal a channel, then let
// the main loop shut down).
type Hooks struct {
	// Publish originates a message on a topic.
	Publish func(topic string, body []byte) (wire.MsgID, error)
	// Status snapshots every topic overlay's health.
	Status func() map[string]TopicStatus
	// Faults is the node's fault-injection surface; nil disables the
	// block/unblock/heal/loss commands.
	Faults *transport.FaultInjector
	// SetParam sets one config-engine key to a raw value; nil disables the
	// set command. The value is validated and canonicalized by the engine.
	SetParam func(key, value string) error
	// Quit asks the process to shut down cleanly.
	Quit func()
}

// Agent is the per-process control server. Create with NewAgent (which
// binds the listener, so the port is known before the node exists), put
// Gate on the node's transport, route deliveries through Deliver, then
// Start serving once the node runtime is up.
type Agent struct {
	ln    net.Listener
	hmu   sync.RWMutex
	hooks Hooks

	mu     sync.Mutex
	ledger map[string]map[wire.MsgID]int64
	wedge  chan struct{} // non-nil while the inbound path is wedged

	done chan struct{}
	once sync.Once
	wg   sync.WaitGroup
}

// NewAgent binds the control listener on addr (host:0 for an ephemeral
// port). The agent records deliveries immediately but serves no connections
// until Start.
func NewAgent(addr string) (*Agent, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("soak: control listen %s: %w", addr, err)
	}
	return &Agent{
		ln:     ln,
		ledger: make(map[string]map[wire.MsgID]int64),
		done:   make(chan struct{}),
	}, nil
}

// Addr returns the control listener's address.
func (a *Agent) Addr() string { return a.ln.Addr().String() }

// Start wires the hooks and begins serving control connections.
func (a *Agent) Start(h Hooks) {
	a.hmu.Lock()
	a.hooks = h
	a.hmu.Unlock()
	a.wg.Add(1)
	go a.acceptLoop()
}

// Gate wraps the node's transport with the wedge: while the agent is
// wedged every inbound frame waits before it reaches the node, so a wedge
// simulates a stuck consumer backing the whole delivery pipeline up. The
// frames wait ahead of the node's dedup, so its delivered counter — the
// lag detector's progress signal on /metrics — stalls with the pipeline.
func (a *Agent) Gate(tr transport.Transport) transport.Transport {
	return gatedTransport{Transport: tr, a: a}
}

// gatedTransport holds inbound frames while its agent is wedged.
type gatedTransport struct {
	transport.Transport
	a *Agent
}

// SetHandler implements transport.Transport.
func (g gatedTransport) SetHandler(h transport.Handler) {
	g.Transport.SetHandler(func(remote string, f *wire.Frame) {
		g.a.mu.Lock()
		w := g.a.wedge
		g.a.mu.Unlock()
		if w != nil {
			select {
			case <-w:
			case <-g.a.done:
				return
			}
		}
		h(remote, f)
	})
}

// Deliver records one delivered message in the topic's ledger, stamping
// its arrival time.
func (a *Agent) Deliver(topic string, id wire.MsgID) {
	now := time.Now().UnixNano()
	a.mu.Lock()
	m := a.ledger[topic]
	if m == nil {
		m = make(map[wire.MsgID]int64)
		a.ledger[topic] = m
	}
	if _, dup := m[id]; !dup {
		m[id] = now
	}
	a.mu.Unlock()
}

// Close stops the control server and releases a pending wedge.
func (a *Agent) Close() error {
	a.once.Do(func() {
		close(a.done)
		a.ln.Close()
	})
	a.wg.Wait()
	return nil
}

func (a *Agent) acceptLoop() {
	defer a.wg.Done()
	for {
		conn, err := a.ln.Accept()
		if err != nil {
			select {
			case <-a.done:
				return
			default:
			}
			// The control listener has no EMFILE-scale fan-in; any
			// persistent error here means the listener is gone.
			return
		}
		a.wg.Add(1)
		go a.serve(conn)
	}
}

// serve handles one control connection: one command per line, one JSON
// response line each.
func (a *Agent) serve(conn net.Conn) {
	defer a.wg.Done()
	defer conn.Close()
	// Tear the connection down when the agent closes so Close unblocks
	// pending reads.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-a.done:
			conn.Close()
		case <-stop:
		}
	}()
	rd := newLineReader(conn)
	for {
		line, err := rd.next()
		if err != nil {
			return
		}
		resp := a.handle(strings.TrimSpace(line))
		if err := writeResp(conn, resp); err != nil {
			return
		}
	}
}

// handle executes one control command and builds its response.
func (a *Agent) handle(line string) ctlResp {
	a.hmu.RLock()
	h := a.hooks
	a.hmu.RUnlock()
	cmd, rest, _ := strings.Cut(line, " ")
	switch cmd {
	case "status":
		return ctlResp{OK: true, Status: h.Status()}
	case "publish":
		topic, body, ok := strings.Cut(rest, " ")
		if !ok || topic == "" {
			return errResp("publish: want topic and body")
		}
		t := time.Now().UnixNano()
		id, err := h.Publish(topic, []byte(body))
		if err != nil {
			return errResp(err.Error())
		}
		return ctlResp{OK: true, Ack: &PubAck{Origin: uint64(id.Origin), Epoch: id.Epoch, Seq: id.Seq, T: t}}
	case "ledger":
		return a.ledgerResp(rest)
	case "block", "unblock":
		if h.Faults == nil {
			return errResp("no fault surface")
		}
		addrs := strings.Fields(rest)
		if len(addrs) == 0 {
			return errResp(cmd + ": want at least one address")
		}
		if cmd == "block" {
			h.Faults.Block(addrs...)
		} else {
			h.Faults.Unblock(addrs...)
		}
		return ctlResp{OK: true}
	case "heal":
		if h.Faults == nil {
			return errResp("no fault surface")
		}
		h.Faults.HealAll()
		return ctlResp{OK: true}
	case "loss":
		if h.Faults == nil {
			return errResp("no fault surface")
		}
		rate, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil {
			return errResp("loss: " + err.Error())
		}
		// The negated test also rejects NaN, which every comparison fails
		// and which would otherwise switch loss off silently.
		if !(rate >= 0 && rate <= 1) {
			return errResp("loss: rate " + strconv.FormatFloat(rate, 'g', -1, 64) + " outside [0, 1]")
		}
		h.Faults.SetLoss(rate)
		return ctlResp{OK: true}
	case "set":
		if h.SetParam == nil {
			return errResp("no config surface")
		}
		key, value, ok := strings.Cut(rest, " ")
		if !ok || key == "" {
			return errResp("set: want key and value")
		}
		if err := h.SetParam(key, strings.TrimSpace(value)); err != nil {
			return errResp(err.Error())
		}
		return ctlResp{OK: true}
	case "wedge":
		a.mu.Lock()
		if a.wedge == nil {
			a.wedge = make(chan struct{})
		}
		a.mu.Unlock()
		return ctlResp{OK: true}
	case "unwedge":
		a.mu.Lock()
		if a.wedge != nil {
			close(a.wedge)
			a.wedge = nil
		}
		a.mu.Unlock()
		return ctlResp{OK: true}
	case "quit":
		if h.Quit != nil {
			h.Quit()
		}
		return ctlResp{OK: true}
	}
	return errResp("unknown command " + strconv.Quote(cmd))
}

// ledgerResp snapshots one topic's delivery ledger in (origin, seq) order.
func (a *Agent) ledgerResp(topic string) ctlResp {
	topic = strings.TrimSpace(topic)
	if topic == "" {
		return errResp("ledger: want topic")
	}
	a.mu.Lock()
	m := a.ledger[topic]
	ids := make([]wire.MsgID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		if ids[i].Origin != ids[j].Origin {
			return ids[i].Origin < ids[j].Origin
		}
		if ids[i].Epoch != ids[j].Epoch {
			return ids[i].Epoch < ids[j].Epoch
		}
		return ids[i].Seq < ids[j].Seq
	})
	entries := make([]LedgerEntry, 0, len(ids))
	for _, id := range ids {
		entries = append(entries, LedgerEntry{Origin: uint64(id.Origin), Epoch: id.Epoch, Seq: id.Seq, T: m[id]})
	}
	a.mu.Unlock()
	return ctlResp{OK: true, Entries: entries}
}
