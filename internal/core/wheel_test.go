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
	timers []*fakeTimer
	resets int // Reset calls, ever
	stops  int // Stop calls on an armed timer, ever
}

type fakeTimer struct {
	ep    *fakeClockEP
	at    time.Duration
	armed bool
	fn    func()
}

func (f *fakeClockEP) Addr() transport.Addr                      { return "fake" }
func (f *fakeClockEP) Now() time.Duration                        { return f.now }
func (f *fakeClockEP) Send(transport.Addr, []byte)               {}
func (f *fakeClockEP) Broadcast([]byte, int)                     {}
func (f *fakeClockEP) Compute(_ time.Duration, t transport.Task) { t.Run() }
func (f *fakeClockEP) Do(fn func())                              { fn() }
func (f *fakeClockEP) Bind(transport.Handler)                    {}
func (f *fakeClockEP) Close() error                              { return nil }

func (f *fakeClockEP) NewTimer(fn func()) transport.Timer {
	t := &fakeTimer{ep: f, fn: fn}
	f.timers = append(f.timers, t)
	return t
}

func (t *fakeTimer) Reset(d time.Duration) {
	t.ep.resets++
	t.at, t.armed = t.ep.now+max(d, 0), true
}

func (t *fakeTimer) Stop() {
	if t.armed {
		t.ep.stops++
	}
	t.armed = false
}

// armedTimers counts the timers with an expiry pending.
func (f *fakeClockEP) armedTimers() (n int) {
	for _, t := range f.timers {
		if t.armed {
			n++
		}
	}
	return n
}

// advanceTo moves the clock and runs every due timer in deadline order,
// including ones reset by the callbacks themselves.
func (f *fakeClockEP) advanceTo(at time.Duration) {
	for {
		var next *fakeTimer
		for _, t := range f.timers {
			if t.armed && t.at <= at && (next == nil || t.at < next.at) {
				next = t
			}
		}
		if next == nil {
			break
		}
		next.armed = false
		if next.at > f.now {
			f.now = next.at
		}
		next.fn()
	}
	if at > f.now {
		f.now = at
	}
}

// wheelFunc is a closure as a task.
type wheelFunc func()

func (f wheelFunc) due(*wheelEntry) { f() }

// schedule registers fn to run d from now in an entry of its own.
func (w *timerWheel) schedule(d time.Duration, fn func()) *wheelEntry {
	e := new(wheelEntry)
	w.scheduleIn(e, d, wheelFunc(fn))
	return e
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
	// Three deadlines, one transport timer, set twice: the 10 ms schedule
	// resets it past the 30 ms one; the 20 ms schedule is covered by it.
	if len(ep.timers) != 1 || ep.resets != 2 {
		t.Fatalf("%d transport timers set %d times, want 1 set twice", len(ep.timers), ep.resets)
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
	w.cancel(e2)
	w.cancel(e2)                               // again: a no-op
	(*timerWheel)(nil).cancel(new(wheelEntry)) // the zero policy's: a no-op
	if w.pending() != 2 {                      // the heap holds live entries only
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

// A timer set for a deadline that has since moved must not double-run the
// heap: every entry fires exactly once, each pass sets the timer for the next
// deadline, and a timer that fires with nothing due only sets itself again.
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
	if n := ep.armedTimers(); n != 0 {
		t.Fatalf("%d transport timers left armed", n)
	}
	// 20 and 10 set the timer, 15 is covered; the passes at 10 and 15 set it
	// for the next deadline, and the pass at 20 leaves it stopped.
	if ep.resets != 4 {
		t.Fatalf("the timer was set %d times, want 4", ep.resets)
	}

	// The head deferred past the timer: it fires early, runs nothing, and
	// sets itself for the deferred deadline.
	fired := 0
	e := w.schedule(10*time.Millisecond, func() { fired++ })
	w.deferTo(e, ep.now+30*time.Millisecond)
	ep.advanceTo(ep.now + 20*time.Millisecond)
	if fired != 0 || ep.armedTimers() != 1 {
		t.Fatalf("after the early fire: %d runs, %d timers armed; want 0 and 1", fired, ep.armedTimers())
	}
	ep.advanceTo(ep.now + 10*time.Millisecond)
	if fired != 1 {
		t.Fatalf("the deferred entry ran %d times, want 1", fired)
	}
}

// TestTimerWheelStopsWhenEmpty: the wheel leaves no transport timer armed
// once its heap is empty — not after the last cancel, not after the last
// fire — and an empty wheel that is armed again sets the timer it has.
func TestTimerWheelStopsWhenEmpty(t *testing.T) {
	ep := &fakeClockEP{}
	w := newTimerWheel(ep)
	a := w.schedule(10*time.Millisecond, func() {})
	b := w.schedule(20*time.Millisecond, func() {})
	w.cancel(a)
	if ep.armedTimers() != 1 || ep.stops != 0 {
		t.Fatalf("one entry left: %d timers armed, %d stops; want 1 and 0", ep.armedTimers(), ep.stops)
	}
	w.cancel(b)
	if ep.armedTimers() != 0 || ep.stops != 1 {
		t.Fatalf("heap empty: %d timers armed, %d stops; want 0 and 1", ep.armedTimers(), ep.stops)
	}
	w.schedule(5*time.Millisecond, func() {})
	ep.advanceTo(time.Second)
	if len(ep.timers) != 1 || ep.armedTimers() != 0 || w.pending() != 0 {
		t.Fatalf("after the last fire: %d timers, %d armed, %d entries; want 1, 0, 0", len(ep.timers), ep.armedTimers(), w.pending())
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
