package load

import (
	"math/rand"
	"sync"
	"time"

	"argus/internal/netsim"
	"argus/internal/obs"
	"argus/internal/transport"
)

// faultEndpoint injects faults at the transport seam, reusing the
// netsim.FaultModel knobs over real concurrent transports. Unlike the
// simulator — which draws loss independently per receiver — the wrapper
// sits on the sender, so each knob is drawn once per outgoing frame:
// a lost broadcast is lost for every receiver. That is the coarser model,
// but it needs no knowledge of the peer set and it strictly stresses the
// retry machinery harder, which is the point of a fault run.
//
// Duplication re-sends a private copy of the frame, and ReorderJitter
// delays delivery via a wall-clock timer firing Send/Broadcast from a
// timer goroutine — legal on Mesh and UDP endpoints, whose senders are
// thread-safe (and a no-op after Close, which both tolerate).
type faultEndpoint struct {
	inner transport.Endpoint
	model netsim.FaultModel

	mu  sync.Mutex
	rng *rand.Rand

	lost, corrupted, duplicated *obs.Counter
}

// WrapFaults returns ep wrapped in the fault model m (ep unchanged if m is
// inactive). seed fixes the draw sequence for this endpoint; reg, when
// non-nil, counts injected faults under the netsim fault families.
func WrapFaults(ep transport.Endpoint, m netsim.FaultModel, seed int64, reg *obs.Registry) transport.Endpoint {
	if !m.Active() {
		return ep
	}
	f := &faultEndpoint{inner: ep, model: m, rng: rand.New(rand.NewSource(seed))}
	if reg != nil {
		f.lost = reg.Counter(obs.MNetFaultLost, "frames dropped by injected loss")
		f.corrupted = reg.Counter(obs.MNetFaultCorrupted, "frames corrupted in flight")
		f.duplicated = reg.Counter(obs.MNetFaultDuplicated, "frames delivered twice")
	}
	return f
}

// draw rolls every knob once under the lock; the rng is shared between the
// engine loop and jitter timer goroutines only through this method.
func (f *faultEndpoint) draw() (lose, corrupt, dup bool, delay time.Duration, flip int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	m := f.model
	lose = m.Loss > 0 && f.rng.Float64() < m.Loss
	corrupt = m.Corrupt > 0 && f.rng.Float64() < m.Corrupt
	dup = m.Duplicate > 0 && f.rng.Float64() < m.Duplicate
	if m.ReorderJitter > 0 {
		delay = time.Duration(f.rng.Int63n(int64(m.ReorderJitter)))
	}
	flip = f.rng.Int()
	return
}

// transmit applies one frame's fault draws to the given delivery function.
func (f *faultEndpoint) transmit(payload []byte, deliver func([]byte)) {
	lose, corrupt, dup, delay, flip := f.draw()
	if lose {
		if f.lost != nil {
			f.lost.Inc()
		}
		return
	}
	out := payload
	if corrupt && len(payload) > 0 {
		// Flip one byte on a private copy; receivers must reject the frame
		// via decode or MAC/signature failure, never crash.
		out = append([]byte(nil), payload...)
		out[flip%len(out)] ^= 0xFF
		if f.corrupted != nil {
			f.corrupted.Inc()
		}
	}
	copies := 1
	if dup {
		copies = 2
		if f.duplicated != nil {
			f.duplicated.Inc()
		}
	}
	// A sent payload is immutable (transport.Endpoint.Send), so a late or
	// duplicate delivery shares the sender's buffer like any other.
	for i := 0; i < copies; i++ {
		if delay > 0 {
			time.AfterFunc(delay, func() { deliver(out) })
		} else {
			deliver(out)
		}
	}
}

func (f *faultEndpoint) Send(to transport.Addr, payload []byte) {
	f.transmit(payload, func(p []byte) { f.inner.Send(to, p) })
}

func (f *faultEndpoint) Broadcast(payload []byte, ttl int) {
	f.transmit(payload, func(p []byte) { f.inner.Broadcast(p, ttl) })
}

func (f *faultEndpoint) Addr() transport.Addr               { return f.inner.Addr() }
func (f *faultEndpoint) Now() time.Duration                 { return f.inner.Now() }
func (f *faultEndpoint) After(d time.Duration, fn func())   { f.inner.After(d, fn) }
func (f *faultEndpoint) Compute(c time.Duration, fn func()) { f.inner.Compute(c, fn) }
func (f *faultEndpoint) Do(fn func())                       { f.inner.Do(fn) }
func (f *faultEndpoint) Bind(h transport.Handler)           { f.inner.Bind(h) }
func (f *faultEndpoint) Close() error                       { return f.inner.Close() }
