package load

import (
	"math/rand"
	"testing"
	"time"

	"argus/internal/backend"
	"argus/internal/core"
	"argus/internal/obs"
	"argus/internal/slo"
)

// tinyFleet is a one-cell Mesh fleet (2 subjects × 2 objects) behind a
// runner that is never Run: the tests below drive its Driver directly.
func tinyFleet(t *testing.T) *runner {
	t.Helper()
	r, err := newRunner(Profile{
		Name:      "driver-test",
		Transport: TransportMesh,
		Cells:     1, SubjectsPerCell: 2, ObjectsPerCell: 2,
		Levels: []backend.Level{backend.L1, backend.L2},
		Retry: core.RetryPolicy{
			Que1Retries: 4, Que2Retries: 3,
			Timeout: 100 * time.Millisecond, SessionTTL: time.Second,
		},
		Seed: 1,
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.fleet.close)
	return r
}

// ledger reads the driver's families back out of the registry.
type ledger struct{ armed, completed, lost, unexpected, skipped, inflight, peak, retrans int64 }

func readLedger(r *runner) ledger {
	snap := r.reg.Snapshot()
	return ledger{
		armed:      slo.SumFamily(snap, obs.MLoadRoundsArmed),
		completed:  slo.SumFamily(snap, obs.MLoadCompletions),
		lost:       slo.SumFamily(snap, obs.MLoadLost),
		unexpected: slo.SumFamily(snap, obs.MLoadUnexpected),
		skipped:    slo.SumFamily(snap, obs.MLoadSkipped),
		inflight:   slo.SumFamily(snap, obs.MLoadInflight),
		peak:       slo.SumFamily(snap, obs.MLoadPeakInflight),
		retrans:    slo.SumFamily(snap, obs.MRetransmissions),
	}
}

// currentRound forges a completion for whatever round the slot has open.
func currentRound(s *Slot) core.Discovery {
	s.mu.Lock()
	defer s.mu.Unlock()
	return core.Discovery{Round: s.round, Level: backend.L1}
}

func TestDriverWaveLedger(t *testing.T) {
	r := tinyFleet(t)
	slots := r.slots()

	armed, lost := r.drv.Wave(slots, 0, 10*time.Second)
	if armed != 4 || lost != 0 {
		t.Fatalf("wave armed %d lost %d, want 4 and 0", armed, lost)
	}
	got := readLedger(r)
	if got.armed != 4 || got.completed != 4 || got.lost != 0 || got.unexpected != 0 {
		t.Fatalf("ledger after a clean wave: %+v", got)
	}
	if got.inflight != 0 || got.peak != 4 {
		t.Fatalf("inflight %d (want 0) peak %d (want 4) after a clean wave", got.inflight, got.peak)
	}

	// A completion past the round's expectation is unexpected; so is one the
	// owner refuses. Neither is credited, neither moves a gauge.
	if r.drv.Complete(slots[0], currentRound(slots[0]), true) {
		t.Fatal("completion past expected was credited")
	}
	after := readLedger(r)
	if after.unexpected != 1 || after.completed != 4 || after.inflight != 0 || r.drv.Late() != 0 {
		t.Fatalf("ledger after an over-delivery: %+v late %d", after, r.drv.Late())
	}

	// A completion for a superseded round is late: its round was settled.
	stale := currentRound(slots[0])
	stale.Round--
	if r.drv.Complete(slots[0], stale, true) {
		t.Fatal("completion for a superseded round was credited")
	}
	if after = readLedger(r); r.drv.Late() != 1 || after.unexpected != 1 || after.completed != 4 || after.inflight != 0 {
		t.Fatalf("ledger after a superseded-round straggler: %+v late %d", after, r.drv.Late())
	}

	// A paced wave is the same wave to the ledger.
	if armed, lost = r.drv.Wave(slots, 20*time.Millisecond, 10*time.Second); armed != 4 || lost != 0 {
		t.Fatalf("paced wave armed %d lost %d, want 4 and 0", armed, lost)
	}
	if after = readLedger(r); after.inflight != 0 || after.completed != 8 {
		t.Fatalf("ledger after a paced wave: %+v", after)
	}
}

// TestDriverReap: a round that cannot finish is written off at the deadline —
// its missing completions are lost, inflight balances, the round is completed
// on its engine (no further probes, sessions age out), and a straggler for it
// is late, credits nothing and moves no gauge.
func TestDriverReap(t *testing.T) {
	r := tinyFleet(t)
	slots := r.slots()
	// The cell holds two objects; expecting a third answer that can never
	// come leaves every round one completion short.
	for _, s := range slots {
		s.Fanout = 3
	}
	armed, lost := r.drv.Wave(slots, 0, 150*time.Millisecond)
	if armed != 6 || lost != 2 {
		t.Fatalf("wave armed %d lost %d, want 6 and 2", armed, lost)
	}
	got := readLedger(r)
	if got.completed != 4 || got.lost != 2 || got.inflight != 0 {
		t.Fatalf("ledger after the reap: %+v", got)
	}

	if r.drv.Complete(slots[0], currentRound(slots[0]), true) {
		t.Fatal("straggler for a reaped round was credited")
	}
	if after := readLedger(r); r.drv.Late() != 1 || after.completed != 4 || after.unexpected != 0 ||
		after.inflight != 0 || after.lost != 2 {
		t.Fatalf("ledger after the straggler: %+v late %d", after, r.drv.Late())
	}

	// The engines were told the round is over: their session tables empty
	// and, past two more probe deadlines of the un-reaped schedule (300 and
	// 700 ms after the broadcast), nothing has been retransmitted.
	if open := r.drv.Quiesce(r.p.quiesceDeadline()); open != 0 {
		t.Fatalf("%d sessions still open after the reap quiesced", open)
	}
	for _, s := range slots {
		if n := s.eng.PendingSessions(); n != 0 {
			t.Fatalf("subject holds %d sessions after the reap", n)
		}
	}
	before := readLedger(r).retrans
	time.Sleep(800 * time.Millisecond)
	if grown := readLedger(r).retrans - before; grown != 0 {
		t.Fatalf("a written-off round retransmitted %d more frames", grown)
	}
}

// scheduledArrivals replays the open loop's Exp-gap schedule: how many
// arrivals a seed offers at a rate within a duration.
func scheduledArrivals(seed int64, rate float64, d time.Duration) int64 {
	rng := rand.New(rand.NewSource(seed))
	var at time.Duration
	for n := int64(0); ; n++ {
		at += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if at >= d {
			return n
		}
	}
}

// TestDriverOpenLoopOffersItsSchedule: the arrivals a seed schedules are all
// offered — armed or counted skipped — whether the gaps are far above the
// sleeper's granularity (100/s) or three orders of magnitude below it
// (100k/s, where a sleep-per-gap loop would offer a few hundred).
func TestDriverOpenLoopOffersItsSchedule(t *testing.T) {
	r := tinyFleet(t)
	slots := r.slots()
	for _, tc := range []struct {
		rate float64
		dur  time.Duration
	}{{100, 300 * time.Millisecond}, {100000, 50 * time.Millisecond}} {
		before := readLedger(r)
		r.drv.OpenLoop(slots, rand.New(rand.NewSource(7)), tc.rate, tc.dur, 10*time.Second)
		got := readLedger(r)
		// Every subject's round arms two sessions.
		offered := (got.armed-before.armed)/2 + got.skipped - before.skipped
		if want := scheduledArrivals(7, tc.rate, tc.dur); offered != want {
			t.Errorf("%.0f/s for %v: offered %d arrivals, the schedule holds %d", tc.rate, tc.dur, offered, want)
		}
		if got.inflight != 0 || got.lost != 0 || got.completed != got.armed {
			t.Errorf("%.0f/s: ledger after the open loop settled: %+v", tc.rate, got)
		}
	}
	// No slots, or no rate, is no load — not a spin.
	r.drv.OpenLoop(nil, rand.New(rand.NewSource(7)), 100, time.Second, time.Second)
	r.drv.OpenLoop(slots, rand.New(rand.NewSource(7)), 0, time.Second, time.Second)
}

// TestCapacitySessionSmall drives the in-process capacity session on a tiny
// Mesh fleet: the warm wave reports the profile's level mix, a gentle rate
// passes, and a rate far above what four subjects can absorb fails on the
// skip fraction and is attributed to the arrival backlog.
func TestCapacitySessionSmall(t *testing.T) {
	cs, err := OpenCapacitySession(Profile{
		Name:      "capacity-test",
		Transport: TransportMesh,
		Cells:     2, SubjectsPerCell: 2, ObjectsPerCell: 2,
		Levels: []backend.Level{backend.L1, backend.L2, backend.L3, backend.L2},
		Fellow: true,
		Retry: core.RetryPolicy{
			Que1Retries: 3, Que2Retries: 3,
			Timeout: 250 * time.Millisecond, SessionTTL: time.Second,
		},
		Seed: 1,
		SLO:  slo.SLO{P99Ceiling: 8 * time.Second},
		Logf: t.Logf,
	}, 400*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	if cs.Warm.Totals.Armed != 8 || cs.Warm.Totals.Completed != 8 || cs.Warm.Totals.WallSeconds <= 0 {
		t.Fatalf("warm wave totals %+v, want 8 sessions", cs.Warm.Totals)
	}
	for lvl, want := range map[string]uint64{"1": 2, "2": 4, "3": 2} {
		if got := cs.Warm.Latency[lvl].Count; got != want {
			t.Errorf("warm wave: %d Level %s discoveries, want %d", got, lvl, want)
		}
	}

	gentle, err := cs.Trial(40)
	if err != nil {
		t.Fatal(err)
	}
	if !gentle.Pass || gentle.Completed == 0 || gentle.Lost != 0 {
		t.Fatalf("gentle trial: %+v", gentle)
	}

	flood, err := cs.Trial(200000)
	if err != nil {
		t.Fatal(err)
	}
	if flood.Pass || flood.SkipFraction <= maxSkipFrac {
		t.Fatalf("flood trial passed or shed nothing: %+v", flood)
	}
	if got := AttributeBottleneck(flood); got != "arrival-backlog" {
		t.Fatalf("flood bottleneck %q, want arrival-backlog (%+v)", got, flood)
	}
	// The windows are disjoint: the flood's counters are its own.
	if flood.Armed != flood.Completed+flood.Lost {
		t.Fatalf("flood window does not balance: %+v", flood)
	}
}
