package core

import (
	"container/heap"
	"time"

	"argus/internal/transport"
)

// timerWheel coalesces an engine's pending deadlines — retransmissions and
// session expiries — onto a single armed transport timer. One Endpoint.After
// per attempt per session would be tens of thousands of live timers at 20k
// concurrent sessions, and every one that fires after its session completed
// is a spurious retransmission. The wheel instead keeps deadlines in a min-heap
// (event-loop-only, no locks) and arms at most one After for the earliest;
// entries can be canceled or deferred in O(log n) without touching the
// transport. The heap holds live deadlines only: at tens of thousands of
// sessions a second nearly every entry is canceled long before it is due, and
// one left in place until then is memory the collector walks for nothing.
//
// Everything here runs on the engine's event loop (see the concurrency
// contract in core.go); the After callback is delivered on the same loop, so
// no synchronization is needed.
type timerWheel struct {
	ep transport.Endpoint
	h  wheelHeap
	// armedAt is the deadline the outstanding After targets, -1 when none.
	// Stale wakeups (an After superseded by an earlier arm) are dropped by
	// comparing their captured target against this.
	armedAt time.Duration
}

// wheelEntry is one pending deadline. Callers hold the pointer to cancel or
// defer it; index tracks the heap slot so deferral can heap.Fix in place.
type wheelEntry struct {
	w     *timerWheel
	at    time.Duration
	fn    func()
	index int // heap slot; -1 once fired or canceled
}

func newTimerWheel(ep transport.Endpoint) *timerWheel {
	return &timerWheel{ep: ep, armedAt: -1}
}

// schedule registers fn to run d from now and returns a handle to cancel or
// deferTo. The callback runs on the engine's event loop.
func (w *timerWheel) schedule(d time.Duration, fn func()) *wheelEntry {
	e := &wheelEntry{w: w, at: w.ep.Now() + d, fn: fn}
	heap.Push(&w.h, e)
	w.arm()
	return e
}

// cancel takes the entry out of the heap and lets go of its callback. No
// transport timer is touched: an After armed for it fires, finds nothing due
// and re-arms. Engines under the zero policy (no wheel, no entries) cancel
// unconditionally: a nil entry is a no-op, as is one that fired or was
// canceled before.
func (e *wheelEntry) cancel() {
	if e == nil || e.index < 0 {
		return
	}
	heap.Remove(&e.w.h, e.index)
	e.fn = nil
}

// deferTo pushes the entry's deadline out to at (never earlier). Used to
// extend a retransmission deadline when observed RTT says the answer is
// still plausibly in flight. The outstanding After is left alone: when it
// fires it finds the entry not yet due and re-arms.
func (w *timerWheel) deferTo(e *wheelEntry, at time.Duration) {
	if e == nil || e.index < 0 || at <= e.at {
		return
	}
	e.at = at
	heap.Fix(&w.h, e.index)
}

// arm ensures an After is outstanding for the earliest live deadline.
func (w *timerWheel) arm() {
	if len(w.h) == 0 {
		return
	}
	earliest := w.h[0].at
	if w.armedAt >= 0 && w.armedAt <= earliest {
		return // the outstanding After fires early enough
	}
	w.armedAt = earliest
	d := earliest - w.ep.Now()
	if d < 0 {
		d = 0
	}
	target := earliest
	w.ep.After(d, func() { w.fire(target) })
}

// fire runs every due entry, then re-arms for the next deadline.
func (w *timerWheel) fire(target time.Duration) {
	if w.armedAt != target {
		return // superseded by an earlier arm; that wakeup owns the heap
	}
	w.armedAt = -1
	now := w.ep.Now()
	for len(w.h) > 0 {
		e := w.h[0]
		if e.at > now {
			break
		}
		heap.Pop(&w.h)
		fn := e.fn
		e.fn = nil
		fn()
		now = w.ep.Now()
	}
	w.arm()
}

// pending returns the number of entries; test hook.
func (w *timerWheel) pending() int { return len(w.h) }

// wheelHeap is a min-heap over deadlines with index maintenance.
type wheelHeap []*wheelEntry

func (h wheelHeap) Len() int           { return len(h) }
func (h wheelHeap) Less(i, j int) bool { return h[i].at < h[j].at }
func (h wheelHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i]; h[i].index = i; h[j].index = j }
func (h *wheelHeap) Push(x any)        { e := x.(*wheelEntry); e.index = len(*h); *h = append(*h, e) }
func (h *wheelHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
}

// rttEstimator is the classic Jacobson/Karels smoothed round-trip estimator
// (RFC 6298 gains: srtt ← 7/8·srtt + 1/8·sample, rttvar ← 3/4·rttvar +
// 1/4·|srtt−sample|). The subject feeds it QUE1→RES1 and QUE2→RES2 intervals
// of exchanges that were never retransmitted (Karn's rule, RFC 6298 §3: an
// answer after a retransmission cannot be matched to one transmission, and
// timing it from the first feeds every recovery's duration back into the
// timeout); the retransmission horizon srtt + 4·rttvar then tracks real
// handshake latency — including compute-queue delay under load, which a
// fixed schedule cannot see and would answer with spurious resends.
type rttEstimator struct {
	srtt   time.Duration
	rttvar time.Duration
	valid  bool
}

// observe folds one round-trip sample in.
func (e *rttEstimator) observe(sample time.Duration) {
	if sample < 0 {
		return
	}
	if !e.valid {
		e.valid = true
		e.srtt = sample
		e.rttvar = sample / 2
		return
	}
	diff := e.srtt - sample
	if diff < 0 {
		diff = -diff
	}
	e.rttvar += (diff - e.rttvar) / 4
	e.srtt += (sample - e.srtt) / 8
}

// rto returns the retransmission horizon, never below floor. Before any
// sample it returns floor unchanged: the policy's doubling schedule.
func (e *rttEstimator) rto(floor time.Duration) time.Duration {
	if !e.valid {
		return floor
	}
	r := e.srtt + 4*e.rttvar
	if r < floor {
		return floor
	}
	return r
}
