package main

import (
	"encoding/binary"
	"hash/maphash"
	"math/rand"
	"sync/atomic"
	"time"

	"argus/internal/transport"
	"argus/internal/wire"
)

// Message classes the wrappers count by: the four wire types by their tag
// byte, update envelopes (first byte 0xA5), and anything else.
const (
	msgOther  = 0
	msgQUE1   = int(wire.TQUE1)
	msgRES1   = int(wire.TRES1)
	msgQUE2   = int(wire.TQUE2)
	msgRES2   = int(wire.TRES2)
	msgUpdate = 5
	msgKinds  = 6
)

var msgNames = [msgKinds]string{"other", "que1", "res1", "que2", "res2", "update"}

// wireKinds are the four discovery messages.
var wireKinds = [...]int{msgQUE1, msgRES1, msgQUE2, msgRES2}

func msgKind(p []byte) int {
	if len(p) == 0 {
		return msgOther
	}
	switch b := p[0]; {
	case b >= 1 && b <= 4:
		return int(b)
	case b == 0xA5:
		return msgUpdate
	}
	return msgOther
}

// Endpoint roles.
const (
	roleSubject = iota
	roleObject
	roleGateway
)

var roleNames = [...]string{"subject", "object", "gateway"}

// traceTag marks a frame that carries a send timestamp: tag byte, then the
// sender's clock in ns. It collides with no wire type (1–4) and not with the
// update envelope (0xA5), so tracing can be switched while frames are in
// flight without a frame ever being misread.
const (
	traceTag    = 0xB7
	traceHeader = 1 + 8
)

// tap is the state every endpoint wrapper of one fleet shares: the stop gate,
// the switches, and the counters taken at the transport boundary.
type tap struct {
	start time.Time // zero of every span clock

	stopped atomic.Bool // tear-down gate: sends after stop are swallowed
	tracing atomic.Bool
	lossOn  atomic.Bool
	// lossGap is how long an endpoint that has dropped a frame delivers
	// everything it receives (lossQuiet in a fleet, 0 in a unit test).
	lossGap time.Duration

	frames     atomic.Int64 // Send + Broadcast calls (a broadcast counts once)
	bytes      atomic.Int64 // payload bytes handed to Send + Broadcast
	sent       [msgKinds]atomic.Int64
	deliveries atomic.Int64 // frames handed to a handler
	lost       atomic.Int64 // frames the loss wrapper dropped
	delivered  [msgKinds]atomic.Int64
	duplicates atomic.Int64 // traced only: frames a handler was handed before

	// sample holds the first payload seen of each wire type, the inputs of
	// the wire micro-benchmarks.
	sample [msgKinds]atomic.Pointer[[]byte]

	trace *traceLog
}

func (t *tap) now() int64 { return int64(time.Since(t.start)) }

// lossQuiet is the time an endpoint of the `lossy` fleet delivers everything
// after it has dropped a frame. A session then loses at most two frames — one
// at either end — before both ends are quiet, so it recovers on the second
// retransmission at the latest (≈750 ms after the round began) and no round
// is lost for good: the contract wants workloads on which no operation fails.
const lossQuiet = time.Second

// benchEndpoint wraps one engine's transport endpoint. Outbound it counts and
// (when tracing) stamps frames; inbound it applies the workload's loss and
// (when tracing) times the wait and the handler. Everything else delegates.
type benchEndpoint struct {
	transport.Endpoint
	tap  *tap
	role int
	cell *cell
	self *slot // the subject behind a roleSubject endpoint

	// Handler-goroutine state: loss decisions and the recent-frame window for
	// duplicate detection are touched only from the endpoint's event loop.
	lossRate float64
	rng      *rand.Rand
	dropped  int64 // tap clock of the last drop; 0 before the first
	recent   [32]uint64
	recentAt int
}

var dupSeed = maphash.MakeSeed()

func (t *tap) wrap(ep transport.Endpoint, role int, c *cell, lossRate float64, seed int64) *benchEndpoint {
	return &benchEndpoint{
		Endpoint: ep, tap: t, role: role, cell: c,
		lossRate: lossRate, rng: rand.New(rand.NewSource(seed)),
	}
}

func (e *benchEndpoint) outbound(p []byte) ([]byte, bool) {
	t := e.tap
	if t.stopped.Load() {
		return nil, false
	}
	k := msgKind(p)
	t.frames.Add(1)
	t.bytes.Add(int64(len(p)))
	t.sent[k].Add(1)
	if t.sample[k].Load() == nil {
		cp := append([]byte(nil), p...)
		t.sample[k].CompareAndSwap(nil, &cp)
	}
	if !t.tracing.Load() {
		return p, true
	}
	stamped := make([]byte, traceHeader+len(p))
	stamped[0] = traceTag
	binary.BigEndian.PutUint64(stamped[1:], uint64(t.now()))
	copy(stamped[traceHeader:], p)
	return stamped, true
}

// Send implements transport.Endpoint.
func (e *benchEndpoint) Send(to transport.Addr, p []byte) {
	if p, ok := e.outbound(p); ok {
		e.Endpoint.Send(to, p)
	}
}

// Broadcast implements transport.Endpoint.
func (e *benchEndpoint) Broadcast(p []byte, ttl int) {
	if p, ok := e.outbound(p); ok {
		e.Endpoint.Broadcast(p, ttl)
	}
}

// Bind implements transport.Endpoint: h is installed behind the inbound half
// of the wrapper.
func (e *benchEndpoint) Bind(h transport.Handler) {
	e.Endpoint.Bind(transport.HandlerFunc(func(from transport.Addr, p []byte) {
		e.inbound(h, from, p)
	}))
}

func (e *benchEndpoint) inbound(h transport.Handler, from transport.Addr, p []byte) {
	t := e.tap
	var sentAt int64
	if len(p) >= traceHeader && p[0] == traceTag {
		sentAt = int64(binary.BigEndian.Uint64(p[1:]))
		p = p[traceHeader:]
	}
	if e.lossRate > 0 && t.lossOn.Load() && e.rng.Float64() < e.lossRate {
		if now := t.now(); e.dropped == 0 || now-e.dropped >= int64(t.lossGap) {
			e.dropped = now
			t.lost.Add(1)
			return
		}
	}
	k := msgKind(p)
	t.deliveries.Add(1)
	t.delivered[k].Add(1)
	if !t.tracing.Load() {
		h.Handle(from, p)
		return
	}
	if e.seenBefore(p) {
		t.duplicates.Add(1)
	}
	enter := t.now()
	h.Handle(from, p)
	t.trace.frame(e, from, k, sentAt, enter, t.now())
}

// seenBefore reports whether the handler was handed these exact bytes among
// its last len(recent) frames — a retransmission or a link-level duplicate.
func (e *benchEndpoint) seenBefore(p []byte) bool {
	h := maphash.Bytes(dupSeed, p)
	for _, r := range e.recent {
		if r == h {
			return true
		}
	}
	e.recent[e.recentAt] = h
	e.recentAt = (e.recentAt + 1) % len(e.recent)
	return false
}
