package transport

import (
	"fmt"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
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

	// peers is the broadcast set, rebuilt under mu by AddPeer and read
	// without it: Broadcast walks a snapshot and allocates none. A published
	// slice is never written again.
	peers atomic.Pointer[[]netip.AddrPort]

	// in is the slab the read loop carves inbound payloads from.
	in Slab

	mu     sync.Mutex
	from   map[netip.AddrPort]Addr // the Addr of each source heard, at most maxDestinations
	dst    map[Addr]netip.AddrPort // resolved unicast destinations, at most maxDestinations
	bound  bool
	closed bool
}

// maxDestinations bounds the resolved-destination cache and the table of
// source Addrs. Every address a node hears from is interned and every address
// it answers is resolved, so without a bound a flood from spoofed source ports
// would grow both without limit. Past it a table is reset wholesale, as the
// object's duplicate-query table is: an address in use is interned or resolved
// again on its next frame, which for the numeric host:port a frame arrives
// from costs a string or a parse, not a lookup.
const maxDestinations = 1024

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
		from:  make(map[netip.AddrPort]Addr),
		dst:   make(map[Addr]netip.AddrPort),
	}
	if ep.max <= 0 {
		ep.max = 64<<10 - 1
	}
	peers := make([]netip.AddrPort, 0, len(cfg.Peers))
	for _, p := range cfg.Peers {
		ap, err := resolveUDP(p)
		if err != nil {
			conn.Close()
			return nil, fmt.Errorf("transport: peer %q: %w", p, err)
		}
		peers = append(peers, ap)
	}
	ep.peers.Store(&peers)
	ep.mb.instrument(cfg.Registry, ep.addr)
	return ep, nil
}

// AddPeer appends one address to the broadcast fan-out set after the socket
// is bound — ports chosen by the OS (":0") are only knowable once every
// participant is listening, so mutual peer sets need a second pass.
func (e *UDPEndpoint) AddPeer(addr string) error {
	ap, err := resolveUDP(addr)
	if err != nil {
		return fmt.Errorf("transport: peer %q: %w", addr, err)
	}
	e.mu.Lock()
	old := *e.peers.Load()
	peers := append(make([]netip.AddrPort, 0, len(old)+1), old...)
	peers = append(peers, ap)
	e.peers.Store(&peers)
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

// readLoop copies each datagram out of the receive buffer into a frame of
// the endpoint's slab and enqueues it; it exits when Close shuts the socket
// down.
func (e *UDPEndpoint) readLoop() {
	buf := make([]byte, e.max)
	for {
		n, src, err := e.conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			return // socket closed
		}
		e.mb.enqueueMsg(e.source(src), append(e.in.Take(n), buf[:n]...))
	}
}

// source returns the Addr of src, interned in at most maxDestinations
// entries: the string ReadFromUDP's *UDPAddr printed, so an IPv4 source on a
// dual-stack socket is the plain dotted quad. A new source is a resolved
// destination too, so answering it parses nothing.
func (e *UDPEndpoint) source(src netip.AddrPort) Addr {
	e.mu.Lock()
	defer e.mu.Unlock()
	if a, ok := e.from[src]; ok {
		return a
	}
	if len(e.from) >= maxDestinations {
		e.from = make(map[netip.AddrPort]Addr)
	}
	ap := netip.AddrPortFrom(src.Addr().Unmap(), src.Port())
	a := Addr(ap.String())
	e.from[src] = a
	e.remember(a, ap)
	return a
}

// remember files ap as the destination of to; the caller holds mu.
func (e *UDPEndpoint) remember(to Addr, ap netip.AddrPort) {
	if len(e.dst) >= maxDestinations {
		e.dst = make(map[Addr]netip.AddrPort)
	}
	e.dst[to] = ap
}

// resolveUDP resolves a host:port to the form the socket writes to: IPv4 as
// four bytes, which an IPv4 socket requires and a dual-stack one maps, and a
// missing host (":port") as this host, as WriteToUDP takes a nil IP.
func resolveUDP(addr string) (netip.AddrPort, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return netip.AddrPort{}, err
	}
	ip := ua.AddrPort().Addr().Unmap()
	if !ip.IsValid() {
		ip = netip.IPv4Unspecified()
	}
	return netip.AddrPortFrom(ip, uint16(ua.Port)), nil
}

// resolve caches the destination lookup for an Addr, in at most
// maxDestinations entries.
func (e *UDPEndpoint) resolve(to Addr) (netip.AddrPort, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if ap, ok := e.dst[to]; ok {
		return ap, true
	}
	ap, err := resolveUDP(string(to))
	if err != nil {
		return ap, false
	}
	e.remember(to, ap)
	return ap, true
}

// Send implements Endpoint: one datagram, best-effort (radio semantics —
// resolution or write failures drop the frame silently).
func (e *UDPEndpoint) Send(to Addr, payload []byte) {
	if ap, ok := e.resolve(to); ok {
		e.conn.WriteToUDPAddrPort(payload, ap)
	}
}

// Broadcast implements Endpoint: one datagram per configured peer. Any
// ttl >= 1 reaches the whole neighbor list (a single IP segment is one hop).
func (e *UDPEndpoint) Broadcast(payload []byte, ttl int) {
	if ttl < 1 {
		return
	}
	for _, ap := range *e.peers.Load() {
		e.conn.WriteToUDPAddrPort(payload, ap)
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
