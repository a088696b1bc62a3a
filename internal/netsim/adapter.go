package netsim

import (
	"strconv"
	"time"

	"argus/internal/transport"
)

// This file adapts the simulator to the transport.Endpoint seam the protocol
// engines speak (internal/transport). The adapter is deliberately thin:
// every Endpoint call maps 1:1 onto the Network primitive the engines used
// to call directly, consumes no randomness, and schedules no extra events —
// so a fixed-seed run through the adapter is byte-identical to the
// pre-refactor direct coupling (locked by internal/exp's golden fingerprint
// test). Determinism holds because the simulator remains single-threaded:
// all deliveries, timers and Do closures execute on the goroutine driving
// Network.Run, which *is* the engines' event loop — no mailbox needed.

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

var _ transport.Endpoint = (*SimEndpoint)(nil)

// NewEndpoint registers a fresh node and returns its endpoint. The node has
// no handler until Bind; link it to neighbors via Link/LinkOn using Node.
func (n *Network) NewEndpoint() *SimEndpoint {
	return &SimEndpoint{net: n, node: n.AddNode(nil)}
}

// EndpointAt wraps an existing node (e.g. to rotate engines on one address).
func (n *Network) EndpointAt(id NodeID) *SimEndpoint {
	return &SimEndpoint{net: n, node: id}
}

// Node returns the underlying simulator node ID (for Link/HopDistance).
func (e *SimEndpoint) Node() NodeID { return e.node }

// Addr implements transport.Endpoint.
func (e *SimEndpoint) Addr() transport.Addr { return AddrOf(e.node) }

// Now implements transport.Endpoint: the virtual clock.
func (e *SimEndpoint) Now() time.Duration { return e.net.Now() }

// Bind implements transport.Endpoint: installs h as the node's handler.
func (e *SimEndpoint) Bind(h transport.Handler) {
	e.net.SetHandler(e.node, HandlerFunc(func(_ *Network, from NodeID, payload []byte) {
		h.Handle(AddrOf(from), payload)
	}))
}

// Send implements transport.Endpoint. Addresses outside the simulation are
// dropped silently (radio semantics).
func (e *SimEndpoint) Send(to transport.Addr, payload []byte) {
	dst, ok := NodeOf(to)
	if !ok || int(dst) >= len(e.net.nodes) || dst == e.node {
		return
	}
	e.net.Send(e.node, dst, payload)
}

// Broadcast implements transport.Endpoint: the simulator's TTL-scoped flood.
func (e *SimEndpoint) Broadcast(payload []byte, ttl int) {
	e.net.Broadcast(e.node, payload, ttl)
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
	e.net.SetHandler(e.node, nil)
	return nil
}
