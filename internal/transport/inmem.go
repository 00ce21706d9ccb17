package transport

import (
	"fmt"
	"sync"
	"sync/atomic"

	"ringcast/internal/wire"
)

// InMemNetwork is a process-local fabric of endpoints, used by tests,
// examples and single-process clusters. Frames are marshalled and
// unmarshalled on every send, so the in-memory path exercises the same codec
// as TCP. The fabric itself is fault-free: wrap an endpoint with WrapFaults
// for silent loss and partitions, and Close it to crash it.
type InMemNetwork struct {
	mu        sync.RWMutex
	endpoints map[string]*InMemEndpoint
}

// NewInMemNetwork returns an empty fabric.
func NewInMemNetwork() *InMemNetwork {
	return &InMemNetwork{endpoints: make(map[string]*InMemEndpoint)}
}

// inboxSize bounds queued frames per endpoint. When an inbox is full the
// frame is dropped silently, like a saturated UDP socket buffer: blocking
// instead would let a cycle of mutually full inboxes deadlock the fabric
// under extreme load, which no real network does.
const inboxSize = 256

// Endpoint creates and registers a new endpoint with the given address.
func (n *InMemNetwork) Endpoint(addr string) (*InMemEndpoint, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if addr == "" {
		return nil, fmt.Errorf("transport: empty address")
	}
	if _, dup := n.endpoints[addr]; dup {
		return nil, fmt.Errorf("transport: address %q already registered", addr)
	}
	ep := &InMemEndpoint{
		net:   n,
		addr:  addr,
		inbox: make(chan inboundFrame, inboxSize),
		done:  make(chan struct{}),
	}
	ep.wg.Add(1)
	go ep.pump()
	n.endpoints[addr] = ep
	return ep, nil
}

// lookup returns the live endpoint at addr.
func (n *InMemNetwork) lookup(to string) (*InMemEndpoint, error) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	ep, ok := n.endpoints[to]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnreachable, to)
	}
	return ep, nil
}

type inboundFrame struct {
	remote string
	frame  *wire.Frame
}

// InMemEndpoint is one endpoint of an InMemNetwork.
type InMemEndpoint struct {
	net  *InMemNetwork
	addr string

	hmu     sync.RWMutex
	handler Handler

	inbox chan inboundFrame
	done  chan struct{}
	once  sync.Once
	wg    sync.WaitGroup

	dropped  atomic.Int64 // frames discarded because no handler was installed
	overflow atomic.Int64 // inbound frames dropped because our inbox was full

	framesSent atomic.Int64
	bytesSent  atomic.Int64
	sendDrops  atomic.Int64 // sends swallowed by a full destination inbox
}

var _ Transport = (*InMemEndpoint)(nil)

// Addr implements Transport.
func (e *InMemEndpoint) Addr() string { return e.addr }

// SetHandler implements Transport.
func (e *InMemEndpoint) SetHandler(h Handler) {
	e.hmu.Lock()
	defer e.hmu.Unlock()
	e.handler = h
}

// Send implements Transport. The frame is codec round-tripped so in-memory
// tests exercise exactly the bytes TCP would carry.
func (e *InMemEndpoint) Send(to string, f *wire.Frame) error {
	select {
	case <-e.done:
		return ErrClosed
	default:
	}
	buf, err := wire.Marshal(f)
	if err != nil {
		return err
	}
	decoded, err := wire.Unmarshal(buf)
	if err != nil {
		return fmt.Errorf("transport: codec round trip failed: %w", err)
	}
	dst, err := e.net.lookup(to)
	if err != nil {
		return err
	}
	select {
	case dst.inbox <- inboundFrame{remote: f.FromAddr, frame: decoded}:
		e.framesSent.Add(1)
		e.bytesSent.Add(int64(len(buf)))
		return nil
	case <-dst.done:
		return fmt.Errorf("%w: %s", ErrUnreachable, to)
	default:
		// Inbox full: drop like an overflowing socket buffer. The sender
		// sees success — loss, not peer death — but the drop is visible in
		// both endpoints' counters.
		dst.overflow.Add(1)
		e.sendDrops.Add(1)
		return nil
	}
}

// Stats implements Transport.
func (e *InMemEndpoint) Stats() Stats {
	return Stats{
		FramesSent: e.framesSent.Load(),
		BytesSent:  e.bytesSent.Load(),
		Drops:      e.sendDrops.Load(),
	}
}

// Overflow reports how many inbound frames were dropped because the inbox
// was full.
func (e *InMemEndpoint) Overflow() int64 { return e.overflow.Load() }

// pump delivers queued frames to the handler sequentially.
func (e *InMemEndpoint) pump() {
	defer e.wg.Done()
	for {
		select {
		case in := <-e.inbox:
			e.hmu.RLock()
			h := e.handler
			e.hmu.RUnlock()
			if h == nil {
				e.dropped.Add(1)
				continue
			}
			h(in.remote, in.frame)
		case <-e.done:
			return
		}
	}
}

func (e *InMemEndpoint) stop() {
	e.once.Do(func() { close(e.done) })
	e.wg.Wait()
}

// Dropped reports how many frames were discarded because no handler was
// installed yet.
func (e *InMemEndpoint) Dropped() int64 { return e.dropped.Load() }

// Close implements Transport.
func (e *InMemEndpoint) Close() error {
	e.net.mu.Lock()
	delete(e.net.endpoints, e.addr)
	e.net.mu.Unlock()
	e.stop()
	return nil
}
