package core

import (
	"testing"
	"time"

	"argus/internal/transport"
)

// fakeClockEP is a minimal single-threaded Endpoint with a hand-driven
// clock, just enough to unit-test the timer wheel's arm/fire discipline
// without a transport behind it.
type fakeClockEP struct {
	now    time.Duration
	timers []fakeTimer
}

type fakeTimer struct {
	at time.Duration
	fn func()
}

func (f *fakeClockEP) Addr() transport.Addr               { return "fake" }
func (f *fakeClockEP) Now() time.Duration                 { return f.now }
func (f *fakeClockEP) Send(transport.Addr, []byte)        {}
func (f *fakeClockEP) Broadcast([]byte, int)              {}
func (f *fakeClockEP) Compute(_ time.Duration, fn func()) { fn() }
func (f *fakeClockEP) Do(fn func())                       { fn() }
func (f *fakeClockEP) Bind(transport.Handler)             {}
func (f *fakeClockEP) Close() error                       { return nil }

func (f *fakeClockEP) After(d time.Duration, fn func()) {
	f.timers = append(f.timers, fakeTimer{at: f.now + d, fn: fn})
}

// advanceTo moves the clock and runs every due transport timer in deadline
// order, including ones armed by the callbacks themselves.
func (f *fakeClockEP) advanceTo(t time.Duration) {
	for {
		best := -1
		for i, tm := range f.timers {
			if tm.at <= t && (best == -1 || tm.at < f.timers[best].at) {
				best = i
			}
		}
		if best == -1 {
			break
		}
		tm := f.timers[best]
		f.timers = append(f.timers[:best], f.timers[best+1:]...)
		if tm.at > f.now {
			f.now = tm.at
		}
		tm.fn()
	}
	if t > f.now {
		f.now = t
	}
}

func TestTimerWheelFiresInDeadlineOrder(t *testing.T) {
	ep := &fakeClockEP{}
	w := newTimerWheel(ep)
	var order []int
	w.schedule(30*time.Millisecond, func() { order = append(order, 30) })
	w.schedule(10*time.Millisecond, func() { order = append(order, 10) })
	w.schedule(20*time.Millisecond, func() { order = append(order, 20) })
	if w.pending() != 3 {
		t.Fatalf("pending = %d, want 3", w.pending())
	}
	// Three deadlines, at most two armed transport timers: the 10 ms
	// schedule re-arms past the outstanding 30 ms one; the 20 ms schedule
	// is covered by it.
	if len(ep.timers) != 2 {
		t.Fatalf("armed %d transport timers, want 2", len(ep.timers))
	}
	ep.advanceTo(50 * time.Millisecond)
	if len(order) != 3 || order[0] != 10 || order[1] != 20 || order[2] != 30 {
		t.Fatalf("fire order = %v, want [10 20 30]", order)
	}
	if w.pending() != 0 {
		t.Fatalf("pending after drain = %d, want 0", w.pending())
	}
}

func TestTimerWheelCancel(t *testing.T) {
	ep := &fakeClockEP{}
	w := newTimerWheel(ep)
	var fired []int
	w.schedule(10*time.Millisecond, func() { fired = append(fired, 1) })
	e2 := w.schedule(20*time.Millisecond, func() { fired = append(fired, 2) })
	w.schedule(30*time.Millisecond, func() { fired = append(fired, 3) })
	e2.cancel()
	e2.cancel()                 // again: a no-op
	(*wheelEntry)(nil).cancel() // nil-safe
	if w.pending() != 2 {       // the heap holds live entries only
		t.Fatalf("pending after cancel = %d, want 2", w.pending())
	}
	ep.advanceTo(time.Second)
	if len(fired) != 2 || fired[0] != 1 || fired[1] != 3 {
		t.Fatalf("fired = %v, want [1 3]", fired)
	}
}

func TestTimerWheelDeferTo(t *testing.T) {
	ep := &fakeClockEP{}
	w := newTimerWheel(ep)
	fired := 0
	e := w.schedule(10*time.Millisecond, func() { fired++ })
	w.deferTo(e, 25*time.Millisecond)
	w.deferTo(e, 5*time.Millisecond) // earlier: ignored, deadlines only extend
	ep.advanceTo(15 * time.Millisecond)
	if fired != 0 {
		t.Fatal("entry fired at its original deadline despite deferral")
	}
	ep.advanceTo(25 * time.Millisecond)
	if fired != 1 {
		t.Fatalf("fired = %d after deferred deadline, want 1", fired)
	}
	// Deferring a spent entry is a no-op.
	w.deferTo(e, time.Second)
	ep.advanceTo(2 * time.Second)
	if fired != 1 {
		t.Fatalf("spent entry refired: %d", fired)
	}
}

// A wakeup superseded by an earlier arm must not double-run the heap: every
// entry fires exactly once even when several transport timers target the
// same pass.
func TestTimerWheelStaleWakeupsAreBenign(t *testing.T) {
	ep := &fakeClockEP{}
	w := newTimerWheel(ep)
	counts := map[int]int{}
	w.schedule(20*time.Millisecond, func() { counts[20]++ })
	w.schedule(10*time.Millisecond, func() { counts[10]++ })
	w.schedule(15*time.Millisecond, func() { counts[15]++ })
	ep.advanceTo(time.Second)
	for _, at := range []int{10, 15, 20} {
		if counts[at] != 1 {
			t.Fatalf("entry %dms fired %d times, want exactly once", at, counts[at])
		}
	}
	if len(ep.timers) != 0 {
		t.Fatalf("%d transport timers left unfired", len(ep.timers))
	}
}

// Callbacks scheduling follow-up deadlines (retry chains) keep the wheel
// armed.
func TestTimerWheelReschedulesFromCallback(t *testing.T) {
	ep := &fakeClockEP{}
	w := newTimerWheel(ep)
	hops := 0
	var chain func()
	chain = func() {
		hops++
		if hops < 3 {
			w.schedule(10*time.Millisecond, chain)
		}
	}
	w.schedule(10*time.Millisecond, chain)
	ep.advanceTo(time.Second)
	if hops != 3 {
		t.Fatalf("chain ran %d hops, want 3", hops)
	}
}

func TestRTTEstimator(t *testing.T) {
	var e rttEstimator
	floor := 100 * time.Millisecond
	if got := e.rto(floor); got != floor {
		t.Fatalf("rto before samples = %v, want floor %v", got, floor)
	}
	e.observe(-time.Millisecond) // negative samples (clock skew) ignored
	if e.valid {
		t.Fatal("negative sample accepted")
	}
	e.observe(8 * time.Millisecond)
	if e.srtt != 8*time.Millisecond || e.rttvar != 4*time.Millisecond {
		t.Fatalf("first sample: srtt=%v rttvar=%v", e.srtt, e.rttvar)
	}
	// srtt + 4·rttvar = 24ms < floor: floor holds.
	if got := e.rto(floor); got != floor {
		t.Fatalf("rto below floor: %v", got)
	}
	// Converges toward a steady stream of identical samples; variance decays.
	for i := 0; i < 64; i++ {
		e.observe(8 * time.Millisecond)
	}
	if e.srtt != 8*time.Millisecond {
		t.Fatalf("srtt diverged on constant input: %v", e.srtt)
	}
	if e.rttvar > time.Millisecond {
		t.Fatalf("rttvar did not decay: %v", e.rttvar)
	}
	// A latency spike widens the horizon above the floor.
	for i := 0; i < 8; i++ {
		e.observe(400 * time.Millisecond)
	}
	if got := e.rto(floor); got <= floor {
		t.Fatalf("rto ignored observed latency: %v", got)
	}
}
