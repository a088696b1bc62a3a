package transport

import (
	"fmt"
	"net"
	"sync"
	"time"

	"argus/internal/obs"
)

// UDPConfig describes one node's socket and its broadcast set.
type UDPConfig struct {
	// Listen is the local UDP address to bind, e.g. "127.0.0.1:0".
	Listen string
	// Peers is the broadcast fan-out set (host:port). Argus discovery is
	// proximity-scoped; on IP networks the "radio range" is this configured
	// neighbor list, and Broadcast is emulated as one unicast datagram per
	// peer. Unicast replies (Send) are not restricted to this list — any
	// address a frame arrived from can be answered.
	Peers []string
	// Mailbox bounds the inbound queue (default DefaultMailbox).
	Mailbox int
	// MaxFrame is the largest accepted datagram (default 64 KiB - 1).
	MaxFrame int
	// Registry, when set, instruments the mailbox backpressure counters.
	Registry *obs.Registry
}

// UDPEndpoint runs the Endpoint contract over one real UDP socket. Frames on
// the wire are the protocol bytes verbatim — no transport framing is added,
// so an eavesdropper sees exactly the message shapes the Case 7
// indistinguishability analysis reasons about.
//
// The socket doubles as the node identity: all sends leave from the same
// port the node listens on, so a receiver's packet source address is the
// peer's canonical Addr.
type UDPEndpoint struct {
	conn  *net.UDPConn
	addr  Addr
	mb    *mailbox
	start time.Time
	max   int

	mu     sync.Mutex
	peers  []*net.UDPAddr
	dst    map[Addr]*net.UDPAddr // resolved unicast destinations
	bound  bool
	closed bool
}

var _ Endpoint = (*UDPEndpoint)(nil)

// ListenUDP binds the socket and resolves the peer set. Bind a handler to
// start delivery.
func ListenUDP(cfg UDPConfig) (*UDPEndpoint, error) {
	laddr, err := net.ResolveUDPAddr("udp", cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("transport: listen addr %q: %w", cfg.Listen, err)
	}
	conn, err := net.ListenUDP("udp", laddr)
	if err != nil {
		return nil, fmt.Errorf("transport: %w", err)
	}
	ep := &UDPEndpoint{
		conn:  conn,
		addr:  Addr(conn.LocalAddr().String()),
		mb:    newMailbox(cfg.Mailbox),
		start: time.Now(),
		max:   cfg.MaxFrame,
		dst:   make(map[Addr]*net.UDPAddr),
	}
	if ep.max <= 0 {
		ep.max = 64<<10 - 1
	}
	for _, p := range cfg.Peers {
		ua, err := net.ResolveUDPAddr("udp", p)
		if err != nil {
			conn.Close()
			return nil, fmt.Errorf("transport: peer %q: %w", p, err)
		}
		ep.peers = append(ep.peers, ua)
	}
	ep.mb.instrument(cfg.Registry, ep.addr)
	return ep, nil
}

// AddPeer appends one address to the broadcast fan-out set after the socket
// is bound — ports chosen by the OS (":0") are only knowable once every
// participant is listening, so mutual peer sets need a second pass.
func (e *UDPEndpoint) AddPeer(addr string) error {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return fmt.Errorf("transport: peer %q: %w", addr, err)
	}
	e.mu.Lock()
	e.peers = append(e.peers, ua)
	e.mu.Unlock()
	return nil
}

// Addr implements Endpoint: the bound socket's host:port.
func (e *UDPEndpoint) Addr() Addr { return e.addr }

// Now implements Endpoint: monotonic wall time since the socket was bound.
func (e *UDPEndpoint) Now() time.Duration { return time.Since(e.start) }

// Bind implements Endpoint: starts the read loop and the actor loop.
func (e *UDPEndpoint) Bind(h Handler) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.bound || e.closed {
		panic("transport: UDPEndpoint.Bind twice or after Close")
	}
	e.bound = true
	go e.mb.run(h)
	go e.readLoop()
}

// readLoop copies each datagram into a fresh buffer and enqueues it; it
// exits when Close shuts the socket down.
func (e *UDPEndpoint) readLoop() {
	buf := make([]byte, e.max)
	for {
		n, src, err := e.conn.ReadFromUDP(buf)
		if err != nil {
			return // socket closed
		}
		payload := make([]byte, n)
		copy(payload, buf[:n])
		e.mb.enqueueMsg(Addr(src.String()), payload)
	}
}

// resolve caches the destination lookup for an Addr.
func (e *UDPEndpoint) resolve(to Addr) *net.UDPAddr {
	e.mu.Lock()
	defer e.mu.Unlock()
	if ua, ok := e.dst[to]; ok {
		return ua
	}
	ua, err := net.ResolveUDPAddr("udp", string(to))
	if err != nil {
		return nil
	}
	e.dst[to] = ua
	return ua
}

// Send implements Endpoint: one datagram, best-effort (radio semantics —
// resolution or write failures drop the frame silently).
func (e *UDPEndpoint) Send(to Addr, payload []byte) {
	if ua := e.resolve(to); ua != nil {
		e.conn.WriteToUDP(payload, ua)
	}
}

// Broadcast implements Endpoint: one datagram per configured peer. Any
// ttl >= 1 reaches the whole neighbor list (a single IP segment is one hop).
func (e *UDPEndpoint) Broadcast(payload []byte, ttl int) {
	if ttl < 1 {
		return
	}
	e.mu.Lock()
	peers := append([]*net.UDPAddr(nil), e.peers...)
	e.mu.Unlock()
	for _, ua := range peers {
		e.conn.WriteToUDP(payload, ua)
	}
}

// NewTimer implements Endpoint: fn runs on the actor loop, never shed.
func (e *UDPEndpoint) NewTimer(fn func()) Timer { return e.mb.newTimer(fn) }

// Compute implements Endpoint: no modeled cost on real hardware; t runs
// immediately on the caller's (loop) goroutine.
func (e *UDPEndpoint) Compute(cost time.Duration, t Task) { t.Run() }

// Do implements Endpoint: the entry point for external goroutines.
func (e *UDPEndpoint) Do(fn func()) { e.mb.enqueueCtrl(fn) }

// Drops reports how many inbound frames this endpoint shed to backpressure.
func (e *UDPEndpoint) Drops() int64 { return e.mb.drops.Load() }

// Close implements Endpoint: shuts the socket, stops both loops.
func (e *UDPEndpoint) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	bound := e.bound
	e.mu.Unlock()

	err := e.conn.Close()
	e.mb.close()
	if bound {
		<-e.mb.loopDone
	}
	return err
}
