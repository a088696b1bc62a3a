package netsim

import (
	"strconv"
	"time"

	"argus/internal/transport"
)

// This file is the simulator's one seam to the protocols it carries: every
// node that speaks — the Argus engines, the ABE and PBC baselines, update
// agents, an attacker's radio — is a SimEndpoint, a transport.Endpoint
// (internal/transport). Send, Broadcast, Compute, NewTimer and Now map 1:1
// onto the network's medium, per-node CPU and virtual clock; none of them
// consumes randomness or schedules an event of its own, so fixed-seed runs
// replay byte-identically (locked by internal/exp's golden fingerprints).
// Determinism holds because the simulator is single-threaded: all
// deliveries, timers and Do closures execute on the goroutine driving
// Network.Run, which *is* every node's event loop — no mailbox needed. Date
// is the network's calendar (transport.Calendar), the clock the engines check
// validity windows against, so every expiry they keep falls in virtual time.

// AddrOf returns the transport address of a simulated node: its decimal ID.
func AddrOf(id NodeID) transport.Addr {
	return transport.Addr(strconv.Itoa(int(id)))
}

// NodeOf parses a transport address minted by AddrOf back into a NodeID.
func NodeOf(a transport.Addr) (NodeID, bool) {
	n, err := strconv.Atoi(string(a))
	if err != nil || n < 0 {
		return 0, false
	}
	return NodeID(n), true
}

// SimEndpoint is a node's transport.Endpoint view of the simulator.
type SimEndpoint struct {
	net  *Network
	node NodeID
}

var (
	_ transport.Endpoint = (*SimEndpoint)(nil)
	_ transport.Calendar = (*SimEndpoint)(nil)
)

// NewEndpoint registers a fresh node and returns its endpoint. The node has
// no handler until Bind; link it to neighbors via Link/LinkOn using Node.
func (n *Network) NewEndpoint() *SimEndpoint {
	return &SimEndpoint{net: n, node: n.AddNode()}
}

// Node returns the underlying simulator node ID (for Link/HopDistance).
func (e *SimEndpoint) Node() NodeID { return e.node }

// Addr implements transport.Endpoint.
func (e *SimEndpoint) Addr() transport.Addr { return AddrOf(e.node) }

// Now implements transport.Endpoint: the virtual clock.
func (e *SimEndpoint) Now() time.Duration { return e.net.Now() }

// Date implements transport.Calendar: the network's day (Network.Date).
func (e *SimEndpoint) Date() time.Time { return e.net.Date() }

// Bind implements transport.Endpoint: installs h as the node's handler.
func (e *SimEndpoint) Bind(h transport.Handler) { e.net.nodes[e.node].handler = h }

// Send implements transport.Endpoint. Addresses outside the simulation are
// dropped silently (radio semantics).
func (e *SimEndpoint) Send(to transport.Addr, payload []byte) {
	dst, ok := NodeOf(to)
	if !ok || int(dst) >= len(e.net.nodes) || dst == e.node {
		return
	}
	e.net.send(e.node, dst, payload)
}

// Broadcast implements transport.Endpoint: the simulator's TTL-scoped flood.
func (e *SimEndpoint) Broadcast(payload []byte, ttl int) {
	e.net.broadcast(e.node, payload, ttl)
}

// NewTimer implements transport.Endpoint: a virtual-clock timer.
func (e *SimEndpoint) NewTimer(fn func()) transport.Timer { return e.net.newTimer(fn) }

// Compute implements transport.Endpoint: charges cost on the node's
// serialized virtual CPU.
func (e *SimEndpoint) Compute(cost time.Duration, t transport.Task) {
	e.net.compute(e.node, cost, t)
}

// Do implements transport.Endpoint. The caller owns the event loop between
// Run calls, so fn runs inline.
func (e *SimEndpoint) Do(fn func()) { fn() }

// Close implements transport.Endpoint: detaches the handler; the node stays
// in the topology as a passive relay.
func (e *SimEndpoint) Close() error {
	e.net.nodes[e.node].handler = nil
	return nil
}
