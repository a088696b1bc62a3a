package load

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"argus/internal/core"
	"argus/internal/obs"
	"argus/internal/transport"
)

// Slot is the expectation ledger one subject engine is held to: which round
// is open, how many completions it must deliver and how many it has. The
// mutex orders the orchestrator (arming, reaping) against the engine's event
// loop (Driver.Complete).
type Slot struct {
	eng *core.Subject
	ep  transport.Endpoint // the engine's endpoint; Do is the arming door

	// Fanout is how many completions one round of this subject must deliver.
	// It is read when the slot is armed; the owner may change it between
	// driver calls (a revoked subject still sees only its cell's L1 objects).
	Fanout int

	mu        sync.Mutex
	round     int  // mirrors the engine's round counter (one Discover per arm)
	expected  int  // completions this round must deliver
	got       int  // completions seen this round
	busy      bool // a round is in flight
	lostRound bool // the current round was reaped at a deadline
}

// NewSlot wraps one subject engine. The owner routes the engine's
// OnDiscovery to Driver.Complete.
func NewSlot(eng *core.Subject, ep transport.Endpoint, fanout int) *Slot {
	return &Slot{eng: eng, ep: ep, Fanout: fanout}
}

// Driver is the one discovery driver outside benchmark/: it arms rounds on
// the slots it is handed — a closed Wave or a Poisson OpenLoop — credits
// completions exactly once, writes off what a deadline leaves, and owns the
// argus_load_* families, which are the only ledger a snapshot consumer
// (SnapshotReport, argus-ops, fleetcoord) reads. The in-process runner, the
// capacity session and the fleetcoord shard all drive their fleets through
// it, so a knee measured on one placement is the same measurement as on
// another. Wave, OpenLoop and Quiesce belong to one orchestrating goroutine;
// Complete runs on engine event loops.
type Driver struct {
	pending func() int // Σ PendingSessions over the driven fleet

	// Rounds are what the deadlines wait on; sessions are what the registry
	// counts. late is ledger-only: a straggler moves no snapshot family.
	roundsArmed, roundsDone atomic.Int64
	late                    atomic.Int64

	inflight, peak   *obs.Gauge
	armed, completed *obs.Counter
	lost, unexpected *obs.Counter
	skipped          *obs.Counter
}

// NewDriver registers the harness families in reg. pending reports the open
// sessions across every engine of the driven fleet, both roles; Quiesce
// polls it.
func NewDriver(reg *obs.Registry, pending func() int) *Driver {
	return &Driver{
		pending:    pending,
		inflight:   reg.Gauge(obs.MLoadInflight, "armed discovery sessions not yet completed"),
		peak:       reg.Gauge(obs.MLoadPeakInflight, "high-water mark of inflight sessions"),
		armed:      reg.Counter(obs.MLoadRoundsArmed, "sessions armed (expected completions)"),
		completed:  reg.Counter(obs.MLoadCompletions, "sessions completed"),
		lost:       reg.Counter(obs.MLoadLost, "sessions reaped at the drain deadline"),
		unexpected: reg.Counter(obs.MLoadUnexpected, "completions that violated the expectation ledger"),
		skipped:    reg.Counter(obs.MLoadSkipped, "open-loop arrivals that found every subject busy"),
	}
}

// Late counts completions that arrived for a superseded or reaped round.
func (d *Driver) Late() int64 { return d.late.Load() }

// Complete is the completion hook, called from the subject's OnDiscovery on
// its event loop. admit is the owner's judgement of the discovery itself (a
// revoked subject may see nothing above Level 1); the driver judges it
// against the round. It reports whether the completion was credited.
//
// A straggler from a superseded or reaped round is late, not unexpected: its
// absence is already charged as lost, so it credits nothing and moves no
// gauge. A completion the owner refuses, or one past the round's
// expectation, is unexpected.
func (d *Driver) Complete(s *Slot, disc core.Discovery, admit bool) bool {
	s.mu.Lock()
	switch {
	case disc.Round != s.round || s.lostRound:
		s.mu.Unlock()
		d.late.Add(1)
		return false
	case !admit || s.got >= s.expected:
		s.mu.Unlock()
		d.unexpected.Inc()
		return false
	}
	s.got++
	done := s.got == s.expected
	if done {
		s.busy = false
	}
	s.mu.Unlock()
	d.completed.Inc()
	d.inflight.Add(-1)
	if done {
		d.roundsDone.Add(1)
		// The ledger knows the round is over before the engine possibly can;
		// drop its remaining retry deadlines so none fires spuriously. The
		// hook runs on the subject's event loop, so the call is direct.
		s.eng.CompleteRound()
	}
	return true
}

// arm opens the slot's next round and returns its expected completions. The
// caller credits inflight for the whole batch before any Discover is issued,
// so the gauge's peak is the true armed concurrency.
func (d *Driver) arm(s *Slot) int64 {
	s.mu.Lock()
	s.round++
	s.got = 0
	s.expected = s.Fanout
	s.busy = s.expected > 0
	s.lostRound = false
	s.mu.Unlock()
	d.armed.Add(int64(s.Fanout))
	d.roundsArmed.Add(1)
	if s.Fanout == 0 {
		d.roundsDone.Add(1)
	}
	return int64(s.Fanout)
}

// credit raises inflight and latches its high-water mark. Only the
// orchestrator raises the gauge, so the latch has one writer.
func (d *Driver) credit(n int64) {
	d.inflight.Add(n)
	if v := d.inflight.Value(); v > d.peak.Value() {
		d.peak.Set(v)
	}
}

// fire issues the slot's Discover on its event loop. A round armed with
// zero expected completions (a revoked subject in an all-secure cell) is
// declared complete in the same breath: it still broadcasts — the silence
// it meets is part of the scenario — but nothing will ever credit it, so
// its retry deadlines would all be misfires.
func (d *Driver) fire(s *Slot) {
	eng := s.eng
	s.mu.Lock()
	exp := s.expected
	s.mu.Unlock()
	s.ep.Do(func() {
		_ = eng.Discover(1)
		if exp == 0 {
			eng.CompleteRound()
		}
	})
}

// settle waits until every armed round has finished, and at the deadline
// writes the unfinished ones off: their missing completions become lost, the
// gauges balance, and each round is completed on its engine so a written-off
// round stops broadcasting into the next window. Returns the sessions lost.
func (d *Driver) settle(slots []*Slot, deadline time.Duration) int64 {
	target := d.roundsArmed.Load()
	if transport.Poll(deadline, transport.DefaultPollStep, func() bool {
		return d.roundsDone.Load() >= target
	}) {
		return 0
	}
	var lost int64
	for _, s := range slots {
		s.mu.Lock()
		if !s.busy {
			s.mu.Unlock()
			continue
		}
		lost += int64(s.expected - s.got)
		s.busy = false
		s.lostRound = true
		s.mu.Unlock()
		d.roundsDone.Add(1)
		s.ep.Do(s.eng.CompleteRound)
	}
	d.lost.Add(lost)
	d.inflight.Add(-lost)
	return lost
}

// Wave runs one closed wave: every slot is armed, then fired — all at once,
// or with window > 0 spread across it in ~64 evenly spaced chunks (sleep
// granularity, not per-slot precision) — and the wave settles by deadline.
// The ledger is fully armed before the first Discover, so pacing is
// invisible to accounting; it only flattens the handshake compute queue.
// Returns the sessions armed and lost.
func (d *Driver) Wave(slots []*Slot, window, deadline time.Duration) (armed, lost int64) {
	for _, s := range slots {
		armed += d.arm(s)
	}
	d.credit(armed)
	chunk := len(slots)
	var pause time.Duration
	if window > 0 && len(slots) > 1 {
		steps := min(64, len(slots))
		chunk = (len(slots) + steps - 1) / steps
		pause = window / time.Duration((len(slots)+chunk-1)/chunk)
	}
	for i, s := range slots {
		if pause > 0 && i > 0 && i%chunk == 0 {
			time.Sleep(pause)
		}
		d.fire(s)
	}
	return armed, d.settle(slots, deadline)
}

// OpenLoop issues discovery rounds as a Poisson process over the slots at
// `rate` rounds/s for `duration`. Arrival times are a deterministic Exp-gap
// schedule accumulated from the loop's start: after every sleep the loop
// fires all arrivals whose scheduled time has passed, so the sleeper's
// millisecond granularity can shift an arrival slightly late but never
// erases it — a naive sleep-per-gap loop silently caps the offered rate at
// ~1/granularity. An arrival that finds every subject busy is counted
// skipped; offered load is never queued (the definition of open-loop).
//
// The settle at the end makes each call self-contained: every round armed
// by it either completes or is written off before it returns, so
// back-to-back calls (a capacity search's trials) observe disjoint counter
// windows.
func (d *Driver) OpenLoop(slots []*Slot, rng *rand.Rand, rate float64, duration, deadline time.Duration) {
	if rate <= 0 || len(slots) == 0 {
		return
	}
	start := time.Now()
	next := 0
	var tNext time.Duration // next scheduled arrival, as an offset from start
	for {
		tNext += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if tNext >= duration {
			break
		}
		if wait := tNext - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		// Find an idle subject, scanning at most one full lap.
		fired := false
		for i := 0; i < len(slots); i++ {
			s := slots[(next+i)%len(slots)]
			s.mu.Lock()
			idle := !s.busy
			s.mu.Unlock()
			if !idle {
				continue
			}
			next = (next + i + 1) % len(slots)
			d.credit(d.arm(s))
			d.fire(s)
			fired = true
			break
		}
		if !fired {
			d.skipped.Inc()
		}
	}
	d.settle(slots, deadline)
}

// Quiesce waits for every engine's session table to empty, so the expiries a
// written-off round leaves behind land in the window that caused them, and
// returns the sessions still open at the deadline. The tail is bounded by
// session-GC timers, not by message flow, and each poll walks every engine
// in the fleet, so the step is coarse.
func (d *Driver) Quiesce(deadline time.Duration) int {
	if transport.Poll(deadline, 50*time.Millisecond, func() bool { return d.pending() == 0 }) {
		return 0
	}
	return d.pending()
}
