// Package transport is the seam between the Argus protocol engines and
// whatever carries their frames. The paper positions the design "above the
// network layer and orthogonal to radios" (§IX); this package is that
// statement made executable: internal/core speaks only the small Endpoint
// interface below, and the ground network behind it is interchangeable —
//
//   - the deterministic discrete-event simulator (internal/netsim, via its
//     adapter), where fixed-seed runs replay byte-identically;
//   - Mesh, a concurrent channel-based in-memory transport on the wall
//     clock (one actor goroutine per node, bounded mailboxes);
//   - UDP, real sockets with peer-list broadcast emulation, so two OS
//     processes can complete a full L1/L2/L3 discovery (cmd/argus-node).
//
// # Actor/mailbox concurrency contract
//
// The engines are single-writer by design (see internal/core): all protocol
// state is mutated without locks, on one logical event loop. The simulator
// provides that loop for free. Real transports receive frames and fire
// timers from many goroutines, so every concurrent Endpoint owns a mailbox
// and a single actor goroutine that drains it; Handler invocations, Timer
// callbacks and Do closures all execute on that one goroutine, restoring the
// single-writer guarantee without adding locks to the engines.
//
// Mailboxes are bounded for inbound frames: a flooded slow node sheds load
// with a counted drop (argus_transport_mailbox_drops_total) instead of
// deadlocking or growing without bound — exactly what a saturated radio
// would do. Control work (timers, Do) is never shed, so retransmission and
// session-expiry timers survive overload and session tables still converge.
package transport

import "time"

// Addr is a transport-neutral node address. It is comparable (engines key
// session tables by it) and human-readable: the netsim adapter uses the
// decimal node ID, Mesh uses "mem-N", UDP uses the socket's host:port.
type Addr string

// Handler consumes inbound frames. Implementations are invoked on the
// endpoint's event loop — never concurrently. payload is immutable and may be
// retained: nobody writes those bytes again — not the handler (a broadcast
// shares one buffer across its receivers, and on the in-memory transports with
// the sender), not the transport (no receive buffer is recycled under a
// delivered frame), not the sender (see Endpoint.Send). The engines rely on
// it: a decoded message's fields are windows on the payload, and a session
// keeps them without copying. The conformance suite holds every transport to
// it.
type Handler interface {
	Handle(from Addr, payload []byte)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(from Addr, payload []byte)

// Handle implements Handler.
func (f HandlerFunc) Handle(from Addr, payload []byte) { f(from, payload) }

// Task is work run on an endpoint's event loop once its modeled compute time
// has passed (Endpoint.Compute). The engines' hot continuations are session
// records that owe a frame: a pointer converts to the interface without
// allocating, where a closure over the same state is an allocation per call.
type Task interface{ Run() }

// Func adapts a closure to Task, for the paths that run once a round or less.
type Func func()

// Run implements Task.
func (f Func) Run() { f() }

// Timer is one resettable deadline on an endpoint's clock (Endpoint.NewTimer).
// At most one expiry is pending: Reset replaces it, Stop cancels it, and a
// callback whose expiry was replaced or canceled before it ran never runs.
// Its methods, like the callback, belong to the event loop. Reset and Stop
// allocate nothing, so an engine can move one deadline per message.
type Timer interface {
	// Reset arms the timer to expire d from now (at once if d <= 0),
	// replacing any pending expiry.
	Reset(d time.Duration)
	// Stop cancels the pending expiry, if any.
	Stop()
}

// Endpoint is one node's port into a transport — everything the protocol
// engines need from a network: send/broadcast with a hop TTL, timers, a
// clock, a local address, and a way onto the node's event loop.
//
// Send, Broadcast, NewTimer, Compute and Now are safe from the event loop;
// external goroutines must enter through Do. Delivery is best-effort
// (radio semantics): frames may be lost, and unreachable destinations are
// dropped silently.
type Endpoint interface {
	// Addr returns the endpoint's own address, as peers will see it.
	Addr() Addr

	// Now returns the transport clock: virtual time on the simulator,
	// monotonic wall time since transport start on real transports. Every
	// deadline an engine keeps runs on it; validity windows close on Date.
	Now() time.Duration

	// Send unicasts payload to a peer address. The bytes belong to the
	// transport and its receivers from the call on: the caller may keep
	// reading them (a cached encoding is resent verbatim) but never writes
	// them again, and never hands a pooled buffer.
	Send(to Addr, payload []byte)

	// Broadcast floods payload to every node within ttl hops; ttl < 1 sends
	// nothing. Single-segment transports (Mesh, UDP) reach all peers at any
	// ttl >= 1. payload is the transport's from the call on, as for Send.
	Broadcast(payload []byte, ttl int)

	// NewTimer returns a stopped timer that runs fn on the event loop each
	// time it expires. Timer callbacks are control work: they are never shed
	// by mailbox backpressure.
	NewTimer(fn func()) Timer

	// Compute runs t on the event loop after charging cost of modeled CPU
	// time. Only virtual-clock transports charge the cost (the simulator
	// serializes it per node); wall-clock transports run t immediately —
	// the real crypto already spent real time.
	Compute(cost time.Duration, t Task)

	// Do injects fn onto the event loop, serialized with deliveries and
	// timers. This is the only safe entry point for external goroutines
	// (e.g. starting a discovery round on a live Mesh or UDP node). On the
	// simulator fn runs inline, because the caller owns the loop between
	// Run calls. Do is asynchronous on concurrent transports.
	Do(fn func())

	// Bind installs the inbound handler and starts delivery. Traffic
	// arriving before Bind is dropped. Bind once, before any frame flows.
	Bind(h Handler)

	// Close releases the endpoint's resources and stops its event loop.
	Close() error
}

// Calendar is implemented by an endpoint that keeps its own time of day: the
// simulator's, a day that advances with virtual time alone.
type Calendar interface {
	Date() time.Time
}

// Date returns the time of day on ep, the clock the engines check validity
// windows against: the endpoint's own Calendar if it keeps one, otherwise the
// wall clock read at the call (Mesh, UDP), so a stepped or resumed host clock
// counts at once.
func Date(ep Endpoint) time.Time {
	if c, ok := ep.(Calendar); ok {
		return c.Date()
	}
	return time.Now()
}
