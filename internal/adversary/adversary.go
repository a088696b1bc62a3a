// Package adversary implements the hostile personas of the Argus threat
// model (§III, §VII) as pluggable components the load harness drives at
// fleet scale:
//
//   - Replayer re-injects captured QUE1/QUE2 frames from a fresh address
//     and asserts the object's cached-answer/idempotency contract: replayed
//     QUE1s earn byte-identical RES1 resends, replayed QUE2s are rejected
//     by transcript-signature freshness, and QUE2s with no live session die
//     as counted orphans — never an answer.
//   - Sybil floods a cell with discovery traffic from a subject provisioned
//     by a rogue backend (Wu et al.'s unprovisioned-adversary model): its
//     forged QUE2s must all be rejected at certificate verification, with
//     bounded object work and no SLO impact on honest traffic.
//   - Observer passively samples response timing and message length during
//     live waves and runs two-sample statistical tests (Mann–Whitney U on
//     timing, Kolmogorov–Smirnov on length) asserting a Level 3 object's
//     cover-up answers are indistinguishable from a true Level 2 object's —
//     the paper's Case-7 covertness claim as a gated SLO.
//
// The package sits below internal/load in the import graph: personas speak
// transport.Endpoint and wire frames only, and the harness wires them into
// cells, budgets their traffic, and gates their outcomes.
package adversary

import (
	"sync"
	"time"

	"argus/internal/transport"
)

// Persona label values of obs.MAdversaryInjected.
const (
	PersonaReplay = "replay"
	PersonaSybil  = "sybil"
)

// Tap observes the frames crossing one endpoint, in both directions. Taps
// are invoked synchronously on the endpoint's paths: Inbound on the event
// loop (before the engine's handler), Outbound on whatever goroutine called
// Send/Broadcast. Implementations aggregating across endpoints must be
// safe for concurrent use; payloads are read-only and only valid for the
// duration of the call.
type Tap interface {
	Inbound(peer transport.Addr, payload []byte, at time.Duration)
	Outbound(peer transport.Addr, payload []byte, at time.Duration)
}

// WrapTap interposes taps on an endpoint. All other behavior delegates to
// the wrapped endpoint unchanged, so a tapped engine runs the exact same
// event sequence — taps are the adversary's antenna, not a man in the
// middle. Broadcast frames are reported with the empty peer address.
func WrapTap(ep transport.Endpoint, taps ...Tap) transport.Endpoint {
	if len(taps) == 0 {
		return ep
	}
	return &tapEndpoint{inner: ep, taps: taps}
}

type tapEndpoint struct {
	inner transport.Endpoint
	taps  []Tap
}

func (t *tapEndpoint) Addr() transport.Addr { return t.inner.Addr() }
func (t *tapEndpoint) Now() time.Duration   { return t.inner.Now() }

func (t *tapEndpoint) Send(to transport.Addr, payload []byte) {
	at := t.inner.Now()
	for _, tap := range t.taps {
		tap.Outbound(to, payload, at)
	}
	t.inner.Send(to, payload)
}

func (t *tapEndpoint) Broadcast(payload []byte, ttl int) {
	at := t.inner.Now()
	for _, tap := range t.taps {
		tap.Outbound("", payload, at)
	}
	t.inner.Broadcast(payload, ttl)
}

func (t *tapEndpoint) NewTimer(fn func()) transport.Timer { return t.inner.NewTimer(fn) }
func (t *tapEndpoint) Compute(cost time.Duration, task transport.Task) {
	t.inner.Compute(cost, task)
}
func (t *tapEndpoint) Do(fn func()) { t.inner.Do(fn) }
func (t *tapEndpoint) Close() error { return t.inner.Close() }
func (t *tapEndpoint) Bind(h transport.Handler) {
	t.inner.Bind(transport.HandlerFunc(func(from transport.Addr, payload []byte) {
		at := t.inner.Now()
		for _, tap := range t.taps {
			tap.Inbound(from, payload, at)
		}
		h.Handle(from, payload)
	}))
}

// recorder is a minimal attacker-side inbound handler: it keeps every frame
// it receives, split by sender, so persona goroutines can await and inspect
// responses from specific targets.
type recorder struct {
	mu     sync.Mutex
	frames map[transport.Addr][][]byte
}

func newRecorder() *recorder {
	return &recorder{frames: make(map[transport.Addr][][]byte)}
}

func (r *recorder) Handle(from transport.Addr, payload []byte) {
	cp := append([]byte(nil), payload...)
	r.mu.Lock()
	r.frames[from] = append(r.frames[from], cp)
	r.mu.Unlock()
}

// from returns a snapshot of the frames received from one sender.
func (r *recorder) from(addr transport.Addr) [][]byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([][]byte(nil), r.frames[addr]...)
}

// total returns the number of frames received from all senders.
func (r *recorder) total() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, fs := range r.frames {
		n += len(fs)
	}
	return n
}

// awaitFrom polls until at least n frames arrived from addr or the deadline
// passes, returning the snapshot either way.
func (r *recorder) awaitFrom(addr transport.Addr, n int, timeout time.Duration) [][]byte {
	deadline := time.Now().Add(timeout)
	for {
		fs := r.from(addr)
		if len(fs) >= n || time.Now().After(deadline) {
			return fs
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// settle polls until the total frame count stops growing for one quiet
// period (or the deadline passes) and returns it — used after a broadcast
// burst where the responder count is not known a priori.
func (r *recorder) settle(quiet, timeout time.Duration) int {
	deadline := time.Now().Add(timeout)
	last := r.total()
	lastChange := time.Now()
	for {
		time.Sleep(2 * time.Millisecond)
		cur := r.total()
		now := time.Now()
		if cur != last {
			last, lastChange = cur, now
		}
		if now.Sub(lastChange) >= quiet || now.After(deadline) {
			return cur
		}
	}
}
