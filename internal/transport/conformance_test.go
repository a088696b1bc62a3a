package transport_test

// Conformance suite for the transport.Endpoint contract. Every transport —
// the deterministic simulator adapter, the concurrent in-memory Mesh, and
// real UDP sockets — must deliver the same observable semantics to the
// protocol engines: verbatim payloads with truthful source addresses, that
// stay as delivered for as long as a handler keeps them, TTL-gated broadcast,
// monotone clocks, timers and Do closures serialized onto the endpoint's
// event loop. The engines are transport-generic exactly
// to the extent this suite proves.

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"argus/internal/netsim"
	"argus/internal/transport"
	"argus/internal/transport/transporttest"
)

// fixture builds n endpoints that can all reach each other in one hop.
// settle drives deliveries on transports that need an external pump (the
// simulator); on concurrent transports it is a no-op and tests poll.
type fixture struct {
	name string
	// concurrent marks transports whose Do may be called from any goroutine.
	// The simulator's Do runs inline by contract — the single goroutine
	// driving Network.Run owns the loop — so it is exempt from the
	// multi-goroutine injection test.
	concurrent bool
	// shared marks transports that hand receivers the very buffer the sender
	// passed to Send, with no copy at the boundary.
	shared bool
	build  func(t *testing.T, n int) (eps []transport.Endpoint, settle func())
}

func fixtures() []fixture {
	return []fixture{
		{name: "netsim", shared: true, build: func(t *testing.T, n int) ([]transport.Endpoint, func()) {
			net := netsim.New(netsim.DefaultWiFi(), 1)
			eps := make([]transport.Endpoint, n)
			for i := range eps {
				eps[i] = net.NewEndpoint()
			}
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					net.Link(eps[i].(*netsim.SimEndpoint).Node(), eps[j].(*netsim.SimEndpoint).Node())
				}
			}
			return eps, func() { net.Run(0) }
		}},
		{name: "mesh", concurrent: true, shared: true, build: func(t *testing.T, n int) ([]transport.Endpoint, func()) {
			m := transport.NewMesh()
			t.Cleanup(m.Close)
			eps := make([]transport.Endpoint, n)
			for i := range eps {
				eps[i] = m.Join()
			}
			return eps, func() {}
		}},
		{name: "udp", concurrent: true, build: func(t *testing.T, n int) ([]transport.Endpoint, func()) {
			uds := make([]*transport.UDPEndpoint, n)
			for i := range uds {
				ep, err := transport.ListenUDP(transport.UDPConfig{Listen: "127.0.0.1:0"})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { ep.Close() })
				uds[i] = ep
			}
			eps := make([]transport.Endpoint, n)
			for i, ep := range uds {
				for j, peer := range uds {
					if i != j {
						if err := ep.AddPeer(string(peer.Addr())); err != nil {
							t.Fatal(err)
						}
					}
				}
				eps[i] = ep
			}
			return eps, func() {}
		}},
	}
}

// recorder is a Handler capturing every frame, safe to read concurrently. It
// keeps the payload slice it was handed, as the engines do, beside a copy
// taken at delivery: a payload that no longer equals its copy was written
// after delivery — by a transport recycling a receive buffer, or by a sender
// reusing what it handed to Send — and fails whichever test recorded it.
type recorder struct {
	mu  sync.Mutex
	got []frame
}

type frame struct {
	from    transport.Addr
	payload []byte // as delivered, retained
	was     []byte // its bytes at delivery
}

// newRecorder returns a recorder whose retained payloads are checked when the
// test ends.
func newRecorder(t *testing.T) *recorder {
	r := &recorder{}
	t.Cleanup(func() {
		for _, f := range r.changed() {
			t.Errorf("frame from %s changed after delivery: % x, delivered as % x", f.from, f.payload, f.was)
		}
	})
	return r
}

// changed returns the frames whose retained payload is no longer what was
// delivered.
func (r *recorder) changed() []frame {
	var out []frame
	for _, f := range r.frames() {
		if !bytes.Equal(f.payload, f.was) {
			out = append(out, f)
		}
	}
	return out
}

func (r *recorder) Handle(from transport.Addr, payload []byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.got = append(r.got, frame{from, payload, append([]byte(nil), payload...)})
}

func (r *recorder) frames() []frame {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]frame(nil), r.got...)
}

// waitFor pumps settle until cond holds or the deadline passes. Deadline
// and step policy live in transporttest so every real-clock transport test
// tolerates slow CI machines the same way.
func waitFor(t *testing.T, settle func(), cond func() bool, what string) {
	t.Helper()
	transporttest.WaitUntil(t, 10*time.Second, func() bool {
		settle()
		return cond()
	}, what)
}

func TestConformanceUnicastVerbatim(t *testing.T) {
	for _, fx := range fixtures() {
		t.Run(fx.name, func(t *testing.T) {
			eps, settle := fx.build(t, 2)
			rec := newRecorder(t)
			eps[1].Bind(rec)
			eps[0].Bind(newRecorder(t))

			// The payload must arrive byte-for-byte — the Case 7 wire analysis
			// assumes no transport reframing — with the sender's true address.
			payload := []byte{0x01, 0x80, 0x00, 0xFF, 0x7F, 0x55}
			eps[0].Send(eps[1].Addr(), payload)
			waitFor(t, settle, func() bool { return len(rec.frames()) >= 1 }, "unicast delivery")
			got := rec.frames()[0]
			if !bytes.Equal(got.payload, payload) {
				t.Fatalf("payload corrupted: got % x want % x", got.payload, payload)
			}
			if got.from != eps[0].Addr() {
				t.Fatalf("source address %q, want %q", got.from, eps[0].Addr())
			}
		})
	}
}

// TestConformancePayloadImmutable is the contract the engines' zero-copy
// decode stands on: a delivered payload may be kept, and stays as delivered
// while any amount of later traffic passes through the same endpoints — a
// transport recycling a receive buffer under a retained frame fails here.
// The other half of the contract is the sender's (Endpoint.Send): the negative
// control writes a buffer after sending it, and either the transport had
// taken its own copy (UDP) and the receiver never sees the write, or the
// buffer is shared (Mesh, the simulator) and the recorder's end-of-test check —
// armed on every recorder of this suite — reports the frame.
func TestConformancePayloadImmutable(t *testing.T) {
	for _, fx := range fixtures() {
		t.Run(fx.name, func(t *testing.T) {
			eps, settle := fx.build(t, 3)
			recs := []*recorder{newRecorder(t), newRecorder(t), {}}
			for i, ep := range eps {
				ep.Bind(recs[i])
			}

			// Frames of several sizes, each from its own buffer, unicast and
			// broadcast, then as much again: enough to cycle any buffer a
			// transport might be tempted to reuse.
			frameFor := func(i int) []byte {
				return bytes.Repeat([]byte{byte(i + 1)}, 1+37*i)
			}
			const burst = 24
			for round := 0; round < 2; round++ {
				for i := 0; i < burst; i++ {
					eps[0].Send(eps[1].Addr(), frameFor(i))
					eps[0].Broadcast(frameFor(burst+i), 1)
				}
				want := 2 * burst * (round + 1)
				waitFor(t, settle, func() bool { return len(recs[1].frames()) >= want }, "burst delivery")
				for _, f := range recs[1].frames() {
					if !bytes.Equal(f.payload, frameFor(int(f.payload[0])-1)) {
						t.Fatalf("retained frame %d no longer reads as sent: % x", f.payload[0]-1, f.payload)
					}
				}
			}

			// Negative control, on the recorder without an end-of-test check.
			sent := []byte("written after Send")
			orig := append([]byte(nil), sent...)
			eps[0].Send(eps[2].Addr(), sent)
			waitFor(t, settle, func() bool {
				for _, f := range recs[2].frames() {
					if bytes.Equal(f.was, orig) {
						return true
					}
				}
				return false
			}, "control delivery")
			sent[0] ^= 0xFF
			if got := len(recs[2].changed()); fx.shared && got != 1 {
				t.Fatalf("the check flagged %d frames for the sender's write, want 1", got)
			} else if !fx.shared && got != 0 {
				t.Fatalf("the sender's write reached %d retained frames through a copying transport", got)
			}
		})
	}
}

func TestConformanceBroadcastScope(t *testing.T) {
	for _, fx := range fixtures() {
		t.Run(fx.name, func(t *testing.T) {
			const n = 4
			eps, settle := fx.build(t, n)
			recs := make([]*recorder, n)
			for i := range eps {
				recs[i] = newRecorder(t)
				eps[i].Bind(recs[i])
			}

			// ttl < 1 sends nothing; the marker broadcast that follows proves
			// the silence is scoping, not latency.
			dead := []byte("dead")
			marker := []byte("marker")
			eps[0].Broadcast(dead, 0)
			eps[0].Broadcast(marker, 1)

			for i := 1; i < n; i++ {
				i := i
				waitFor(t, settle, func() bool { return len(recs[i].frames()) >= 1 },
					fmt.Sprintf("broadcast to peer %d", i))
			}
			for i := 1; i < n; i++ {
				for _, f := range recs[i].frames() {
					if bytes.Equal(f.payload, dead) {
						t.Fatalf("peer %d received a ttl<1 broadcast", i)
					}
				}
				seen := 0
				for _, f := range recs[i].frames() {
					if bytes.Equal(f.payload, marker) {
						seen++
						if f.from != eps[0].Addr() {
							t.Fatalf("broadcast source %q, want %q", f.from, eps[0].Addr())
						}
					}
				}
				if seen != 1 {
					t.Fatalf("peer %d saw the broadcast %d times, want exactly once", i, seen)
				}
			}
			// The sender never hears its own broadcast.
			if got := recs[0].frames(); len(got) != 0 {
				t.Fatalf("sender received its own broadcast: %v", got)
			}
		})
	}
}

func TestConformanceClockAndTimers(t *testing.T) {
	for _, fx := range fixtures() {
		t.Run(fx.name, func(t *testing.T) {
			eps, settle := fx.build(t, 1)
			ep := eps[0]
			ep.Bind(newRecorder(t))

			before := ep.Now()
			var mu sync.Mutex
			var firedAt time.Duration
			fired := false
			ep.After(5*time.Millisecond, func() {
				mu.Lock()
				firedAt = ep.Now()
				fired = true
				mu.Unlock()
			})
			waitFor(t, settle, func() bool {
				mu.Lock()
				defer mu.Unlock()
				return fired
			}, "timer fire")

			mu.Lock()
			at := firedAt
			mu.Unlock()
			// The clock never runs backwards, and a timer never fires early.
			if at < before {
				t.Fatalf("clock went backwards: Now()=%v before scheduling, %v at fire", before, at)
			}
			if at-before < 5*time.Millisecond {
				t.Fatalf("timer fired after %v, scheduled for 5ms", at-before)
			}
			if now := ep.Now(); now < at {
				t.Fatalf("clock not monotone: %v after fire at %v", now, at)
			}
		})
	}
}

// TestConformanceLoopSerialization is the single-writer guarantee the engines
// are built on: Do closures, Compute continuations and deliveries all run on
// one logical event loop, so unsynchronized state they share never races.
// Under -race this test fails loudly if any transport breaks the contract.
func TestConformanceLoopSerialization(t *testing.T) {
	for _, fx := range fixtures() {
		t.Run(fx.name, func(t *testing.T) {
			eps, settle := fx.build(t, 2)
			counter := 0 // deliberately unsynchronized: the loop is the lock
			rec := transport.HandlerFunc(func(from transport.Addr, payload []byte) {
				counter++
			})
			eps[1].Bind(rec)
			eps[0].Bind(newRecorder(t))

			const workers, perWorker = 8, 25
			if fx.concurrent {
				var wg sync.WaitGroup
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := 0; i < perWorker; i++ {
							eps[1].Do(func() { counter++ })
						}
					}()
				}
				wg.Wait()
			} else {
				// Single-threaded transport: the test goroutine owns the loop.
				for i := 0; i < workers*perWorker; i++ {
					eps[1].Do(func() { counter++ })
				}
			}
			eps[0].Send(eps[1].Addr(), []byte("frame"))
			eps[1].Do(func() { eps[1].Compute(time.Microsecond, func() { counter++ }) })

			want := workers*perWorker + 2
			read := func() (v int) {
				done := make(chan struct{})
				eps[1].Do(func() { v = counter; close(done) })
				settle()
				<-done
				return v
			}
			waitFor(t, settle, func() bool { return read() == want }, "serialized counter")
		})
	}
}
