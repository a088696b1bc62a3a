package transport

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"argus/internal/obs"
)

// Mesh is a concurrent in-memory transport on the wall clock: a single radio
// segment where every endpoint hears every broadcast and any endpoint can
// unicast any other. Each endpoint runs its own actor goroutine over a
// bounded mailbox, so a deployment of N nodes is N truly concurrent engines
// — the configuration the -race discovery tests hammer.
//
// Delivery is reliable except for backpressure: a receiver whose mailbox is
// full sheds the frame with a counted drop, like a saturated radio. There is
// no airtime model and no hop structure; any Broadcast ttl >= 1 reaches all
// peers.
type Mesh struct {
	mu  sync.RWMutex
	eps map[Addr]*MeshEndpoint
	// all is every endpoint in eps, rebuilt under mu by Join and Close and
	// read without it: Broadcast walks a snapshot and allocates none.
	all     atomic.Pointer[[]*MeshEndpoint]
	seq     int
	start   time.Time
	reg     *obs.Registry
	mailbox int
	closed  bool
}

// MeshOption configures a Mesh at construction.
type MeshOption func(*Mesh)

// WithMailbox bounds each endpoint's inbound queue (default DefaultMailbox).
func WithMailbox(n int) MeshOption {
	return func(m *Mesh) { m.mailbox = n }
}

// WithRegistry instruments every endpoint's mailbox under reg
// (argus_transport_mailbox_drops_total / argus_transport_deliveries_total,
// labeled by endpoint address).
func WithRegistry(reg *obs.Registry) MeshOption {
	return func(m *Mesh) { m.reg = reg }
}

// NewMesh creates an empty in-memory segment.
func NewMesh(opts ...MeshOption) *Mesh {
	m := &Mesh{
		eps:     make(map[Addr]*MeshEndpoint),
		start:   time.Now(),
		mailbox: DefaultMailbox,
	}
	for _, o := range opts {
		o(m)
	}
	return m
}

// Join adds a node to the segment and returns its endpoint. Bind a handler
// before traffic flows.
func (m *Mesh) Join() *MeshEndpoint {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		panic("transport: Join on closed Mesh")
	}
	addr := Addr(fmt.Sprintf("mem-%d", m.seq))
	m.seq++
	ep := &MeshEndpoint{
		mesh: m,
		addr: addr,
		mb:   newMailbox(m.mailbox),
	}
	ep.mb.instrument(m.reg, addr)
	m.eps[addr] = ep
	m.snapshot()
	return ep
}

// snapshot republishes all from eps; the caller holds mu. A published slice
// is never written again.
func (m *Mesh) snapshot() {
	all := make([]*MeshEndpoint, 0, len(m.eps))
	for _, ep := range m.eps {
		all = append(all, ep)
	}
	m.all.Store(&all)
}

// Close shuts down every endpoint and waits for their actor loops to drain.
func (m *Mesh) Close() {
	m.mu.Lock()
	m.closed = true
	all := m.all.Swap(nil)
	m.mu.Unlock()
	if all != nil {
		for _, ep := range *all {
			ep.Close()
		}
	}
}

// lookup resolves a live peer endpoint.
func (m *Mesh) lookup(a Addr) (*MeshEndpoint, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	ep, ok := m.eps[a]
	return ep, ok
}

// MeshEndpoint is one node on a Mesh. It implements Endpoint.
type MeshEndpoint struct {
	mesh *Mesh
	addr Addr
	mb   *mailbox

	mu     sync.Mutex
	bound  bool
	closed bool
}

var _ Endpoint = (*MeshEndpoint)(nil)

// Addr implements Endpoint.
func (e *MeshEndpoint) Addr() Addr { return e.addr }

// Now implements Endpoint: monotonic wall time since the Mesh was created.
func (e *MeshEndpoint) Now() time.Duration { return time.Since(e.mesh.start) }

// Bind implements Endpoint: installs h and starts the actor loop.
func (e *MeshEndpoint) Bind(h Handler) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.bound || e.closed {
		panic("transport: MeshEndpoint.Bind twice or after Close")
	}
	e.bound = true
	go e.mb.run(h)
}

// Send implements Endpoint: enqueue into the peer's mailbox (shed with a
// counted drop when full; unknown peers are dropped silently, radio
// semantics).
func (e *MeshEndpoint) Send(to Addr, payload []byte) {
	if peer, ok := e.mesh.lookup(to); ok {
		peer.mb.enqueueMsg(e.addr, payload)
	}
}

// Broadcast implements Endpoint: every other endpoint on the segment
// receives the frame once. The payload buffer is shared across receivers,
// which may each retain it (Handler).
func (e *MeshEndpoint) Broadcast(payload []byte, ttl int) {
	if ttl < 1 {
		return
	}
	all := e.mesh.all.Load()
	if all == nil {
		return
	}
	for _, peer := range *all {
		if peer != e { // e may already be gone: it detaches before its loop stops
			peer.mb.enqueueMsg(e.addr, payload)
		}
	}
}

// After implements Endpoint: fn runs on the actor loop, never shed.
func (e *MeshEndpoint) After(d time.Duration, fn func()) { e.mb.after(d, fn) }

// Compute implements Endpoint: wall-clock transports charge no modeled cost —
// the real crypto already spent real time — so t runs immediately on the
// caller's (loop) goroutine.
func (e *MeshEndpoint) Compute(cost time.Duration, t Task) { t.Run() }

// Do implements Endpoint: the entry point for external goroutines.
func (e *MeshEndpoint) Do(fn func()) { e.mb.enqueueCtrl(fn) }

// Drops reports how many inbound frames this endpoint shed to backpressure.
func (e *MeshEndpoint) Drops() int64 { return e.mb.drops.Load() }

// Close implements Endpoint: detaches from the segment and stops the loop.
func (e *MeshEndpoint) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	bound := e.bound
	e.mu.Unlock()

	e.mesh.mu.Lock()
	delete(e.mesh.eps, e.addr)
	if !e.mesh.closed { // Mesh.Close took the whole snapshot down at once
		e.mesh.snapshot()
	}
	e.mesh.mu.Unlock()

	e.mb.close()
	if bound {
		<-e.mb.loopDone
	}
	return nil
}
