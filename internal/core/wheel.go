package core

import (
	"container/heap"
	"time"

	"argus/internal/transport"
)

// timerWheel coalesces an engine's pending deadlines — retransmissions and
// session expiries — onto the one transport timer it owns. A timer per
// attempt per session would be tens of thousands of live timers at 20k
// concurrent sessions, and every one that fires after its session completed
// is a spurious retransmission. The wheel instead keeps deadlines in a min-heap
// (event-loop-only, no locks) and sets its timer for the earliest: reset when
// that deadline moves earlier, stopped when the heap empties, and otherwise
// left alone — a timer that fires before the head is due finds nothing to run
// and is set again. Entries can be canceled or deferred in O(log n), and no
// arm, cancel or re-arm allocates. The heap holds live deadlines only: at tens
// of thousands of sessions a second nearly every entry is canceled long before
// it is due, and one left in place until then is memory the collector walks
// for nothing.
//
// Everything here runs on the engine's event loop (see the concurrency
// contract in core.go); the timer's callback is delivered on the same loop, so
// no synchronization is needed.
type timerWheel struct {
	ep    transport.Endpoint
	h     wheelHeap
	timer transport.Timer
	// armedAt is the time the timer is set for, -1 while it is stopped.
	armedAt time.Duration
}

// wheelEntry is one pending deadline. Callers hold the pointer to cancel or
// defer it; index tracks the heap slot so deferral can heap.Fix in place. The
// zero value is an entry not scheduled, so a session can embed its entries
// and arm them with no allocation (scheduleIn).
type wheelEntry struct {
	at    time.Duration
	task  wheelTask
	index int32 // heap slot while live
	live  bool  // in the heap: neither fired nor canceled since scheduled
}

// wheelTask is the work of a due entry. The entry is handed back, so that an
// owner of several entries — a session with a retransmission and an expiry —
// knows which one fell due.
type wheelTask interface{ due(e *wheelEntry) }

func newTimerWheel(ep transport.Endpoint) *timerWheel {
	w := &timerWheel{ep: ep, armedAt: -1}
	w.timer = ep.NewTimer(w.fire)
	return w
}

// scheduleIn arms e, which the caller owns, to run task d from now. Every
// deadline is an entry embedded in its owner — a session, the subject's round,
// the object's resend cache — and the owner is its task, so arming allocates
// nothing. A live entry is moved in place, earlier or later: the timer is
// reset only if the earliest deadline moved earlier.
func (w *timerWheel) scheduleIn(e *wheelEntry, d time.Duration, task wheelTask) {
	e.at, e.task = w.ep.Now()+d, task
	if e.live {
		heap.Fix(&w.h, int(e.index))
	} else {
		heap.Push(&w.h, e)
	}
	w.arm()
}

// cancel takes the entry out of the heap and lets go of its task; the last
// entry out stops the timer. Engines under the zero policy (no wheel, no
// entries) cancel unconditionally: on a nil wheel, as for an entry never
// scheduled, or that fired or was canceled before, it is a no-op.
func (w *timerWheel) cancel(e *wheelEntry) {
	if !e.live {
		return
	}
	heap.Remove(&w.h, int(e.index))
	e.task = nil
	if len(w.h) == 0 {
		w.arm()
	}
}

// deferTo pushes the entry's deadline out to at (never earlier). Used to
// extend a retransmission deadline when observed RTT says the answer is
// still plausibly in flight. The timer is left alone: when it fires it finds
// the entry not yet due and is set again.
func (w *timerWheel) deferTo(e *wheelEntry, at time.Duration) {
	if !e.live || at <= e.at {
		return
	}
	e.at = at
	heap.Fix(&w.h, int(e.index))
}

// arm sets the timer for the earliest live deadline if it is not set early
// enough already, and stops it when nothing is left.
func (w *timerWheel) arm() {
	if len(w.h) == 0 {
		if w.armedAt >= 0 {
			w.timer.Stop()
			w.armedAt = -1
		}
		return
	}
	earliest := w.h[0].at
	if w.armedAt >= 0 && w.armedAt <= earliest {
		return // the timer fires early enough
	}
	w.armedAt = earliest
	w.timer.Reset(earliest - w.ep.Now())
}

// fire is the timer's callback: run every due entry, then set the timer for
// the next deadline.
func (w *timerWheel) fire() {
	w.armedAt = -1
	now := w.ep.Now()
	for len(w.h) > 0 {
		e := w.h[0]
		if e.at > now {
			break
		}
		heap.Pop(&w.h)
		task := e.task
		e.task = nil
		task.due(e)
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
func (h wheelHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index, h[j].index = int32(i), int32(j)
}
func (h *wheelHeap) Push(x any) {
	e := x.(*wheelEntry)
	e.index, e.live = int32(len(*h)), true
	*h = append(*h, e)
}
func (h *wheelHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.live = false
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

// light returns the wait before retransmission attempt (1-based) of a light
// leg — one whose answer costs the peer no public-key operation, a short RES1
// or a resumed RES2: the measured horizon, floored at lightFloor and doubled
// per attempt. Only meaningful once the estimator holds a sample (valid).
func (e *rttEstimator) light(attempt int) time.Duration {
	return backoff(max(e.srtt+4*e.rttvar, lightFloor), attempt)
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
