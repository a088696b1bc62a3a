package slo

import (
	"math/rand"
	"testing"
	"time"

	"argus/internal/obs"
)

// TestStreamGates checks the burn-rate arithmetic over synthetic reports.
func TestStreamGates(t *testing.T) {
	slo := SLO{MaxLost: 4, P99Ceiling: time.Second}
	prev := &Report{Latency: map[string]Quantiles{}, Counters: map[string]int64{}}
	cur := &Report{
		Totals:   Totals{Lost: 2},
		Latency:  map[string]Quantiles{"2": {Count: 10, P50: 0.1, P99: 1.5}},
		Counters: map[string]int64{"dlq_depth": 3},
	}
	gates := slo.StreamGates(cur, prev, time.Minute)
	byName := map[string]GateStatus{}
	for _, g := range gates {
		byName[g.Name] = g
	}
	lost := byName["lost"]
	if lost.Violated || lost.BudgetUsed != 0.5 {
		t.Fatalf("lost gate = %+v, want 50%% budget, no violation", lost)
	}
	// 2 of 4 budget in one minute = 30 budgets/hour.
	if lost.BurnPerHour < 29.9 || lost.BurnPerHour > 30.1 {
		t.Fatalf("lost burn = %v, want 30/h", lost.BurnPerHour)
	}
	// Strict gate (MaxDLQDepth zero value): any depth is a violation.
	depth := byName["dlq_depth"]
	if !depth.Violated || depth.BudgetUsed != 1 {
		t.Fatalf("dlq_depth gate = %+v, want strict violation", depth)
	}
	p99 := byName["L2_p99"]
	if !p99.Violated || p99.Value != 1.5 {
		t.Fatalf("p99 gate = %+v, want ceiling violation at 1.5s", p99)
	}
	if _, ok := byName["L2_p50"]; ok {
		t.Fatal("p50 gate emitted with no P50Ceiling configured")
	}
}

// TestGateTableCheckAgreesWithStream is the property stream.go promises:
// over random SLOs and reports, for every row of the gate table Check reports
// the row's violation iff StreamGates marks that gate Violated — a tail that
// shows green and a report that fails cannot disagree about a table gate.
func TestGateTableCheckAgreesWithStream(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	limit := func() int64 { return []int64{-1, 0, 0, 2}[rng.Intn(4)] }
	ceiling := func() time.Duration { return []time.Duration{0, 40 * time.Millisecond}[rng.Intn(2)] }
	quantiles := func() Quantiles {
		return Quantiles{Count: uint64(rng.Intn(3)), P50: rng.Float64() * 0.08, P99: rng.Float64() * 0.08, Overflow: rng.Int63n(4)}
	}
	for i := 0; i < 500; i++ {
		slo := SLO{
			MaxLost: limit(), MaxUnexpected: limit(), MaxMailboxDrops: limit(), MaxMalformed: limit(),
			MaxRetransmissions: limit(), MaxDLQDepth: limit(), MaxSlowSessions: limit(),
			P50Ceiling: ceiling(), P99Ceiling: ceiling(),
			// The ledger-only gates are off, so every violation is a table row's.
			MaxLevelMismatch: -1, MaxWarmRetransmissions: -1, MaxExpiredExtra: -1,
		}
		rep := &Report{
			Totals:  Totals{Lost: rng.Int63n(4), Unexpected: rng.Int63n(4)},
			Latency: map[string]Quantiles{"1": quantiles(), "2": quantiles(), "3": quantiles()},
			Counters: map[string]int64{
				"mailbox_drops": rng.Int63n(4), "malformed_drops": rng.Int63n(4),
				"retransmissions_timeout": rng.Int63n(4), "dlq_depth": rng.Int63n(4),
			},
		}
		reported := map[string]bool{}
		for _, v := range slo.Check(rep).Violations {
			reported[v] = true
		}
		rows, stream := slo.gates(rep), slo.StreamGates(rep, nil, 0)
		if len(rows) != len(stream) {
			t.Fatalf("case %d: %d table rows, %d stream gates", i, len(rows), len(stream))
		}
		violated := 0
		for k, g := range rows {
			if stream[k].Name != g.name {
				t.Fatalf("case %d: stream gate %d is %q, table row is %q", i, k, stream[k].Name, g.name)
			}
			if stream[k].Violated {
				violated++
			}
			if msg := g.violation(g.get(rep)); reported[msg] != stream[k].Violated {
				t.Errorf("case %d gate %s: Check reported %v, StreamGates violated %v (value %v, limit %v)",
					i, g.name, reported[msg], stream[k].Violated, stream[k].Value, stream[k].Limit)
			}
		}
		if violated != len(reported) {
			t.Errorf("case %d: %d gates violated, Check reported %d violations", i, violated, len(reported))
		}
	}
}

// TestStreamGatesCovertness pins the streaming form of the covertness gate:
// a floor on the p-value gauges, with negative (pending) readings reported
// but never violated — a tail early in a run must not scream before the
// observer has evidence.
func TestStreamGatesCovertness(t *testing.T) {
	slo := SLO{CovertnessAlpha: 1e-3}
	mk := func(timingPpm, lengthPpm int64) *Report {
		return &Report{
			Latency: map[string]Quantiles{},
			Counters: map[string]int64{
				"covert_timing_p_ppm": timingPpm,
				"covert_length_p_ppm": lengthPpm,
			},
		}
	}
	find := func(gates []GateStatus, name string) GateStatus {
		for _, g := range gates {
			if g.Name == name {
				return g
			}
		}
		t.Fatalf("gate %q missing from %v", name, gates)
		return GateStatus{}
	}

	pending := slo.StreamGates(mk(-1, -1), nil, 0)
	if g := find(pending, "covert_timing_p"); g.Violated {
		t.Fatalf("pending timing gauge must not violate: %+v", g)
	}
	healthy := slo.StreamGates(mk(400_000, 1_000_000), nil, 0)
	for _, name := range []string{"covert_timing_p", "covert_length_p"} {
		if g := find(healthy, name); g.Violated {
			t.Fatalf("healthy %s violated: %+v", name, g)
		}
	}
	leaky := slo.StreamGates(mk(500, 0), nil, 0)
	if g := find(leaky, "covert_timing_p"); !g.Violated {
		t.Fatalf("timing p=500ppm must violate alpha 1e-3: %+v", g)
	}
	if g := find(leaky, "covert_length_p"); !g.Violated {
		t.Fatalf("length p=0 must violate: %+v", g)
	}
	// No alpha, no gates.
	if gates := (SLO{}).StreamGates(mk(0, 0), nil, 0); len(gates) != 6 {
		t.Fatalf("covert gates must be absent without an alpha, got %d gates", len(gates))
	}
}

// TestSnapshotReportReadsTheFamilies pins which obs families each report
// field is read from: totals from the driver's argus_load_* families,
// counters summed across label sets (or filtered by one), per-level latency
// from phase=total only, and an absent covertness gauge as -1 (pending).
func TestSnapshotReportReadsTheFamilies(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter(obs.MLoadRoundsArmed, "").Add(9)
	reg.Counter(obs.MLoadCompletions, "").Add(7)
	reg.Counter(obs.MLoadLost, "").Add(2)
	reg.Counter(obs.MLoadSkipped, "").Add(1)
	reg.Gauge(obs.MLoadPeakInflight, "").Set(5)
	reg.Counter(obs.MRetransmissions, "", obs.L("role", "subject"), obs.L("msg", "que1"), obs.L("cause", "probe")).Add(3)
	reg.Counter(obs.MRetransmissions, "", obs.L("role", "subject"), obs.L("msg", "que1"), obs.L("cause", "timeout")).Add(1)
	reg.Counter(obs.MRetransmissions, "", obs.L("role", "object"), obs.L("msg", "res1"), obs.L("cause", "timeout")).Add(4)
	reg.Counter(obs.MSessionsExpired, "", obs.L("role", "subject")).Add(2)
	reg.Counter(obs.MSessionsExpired, "", obs.L("role", "object")).Add(6)
	bounds := []float64{0.01, 0.1, 1}
	total := reg.Histogram(obs.MDiscoveryPhaseSeconds, "", bounds, obs.L("level", "2"), obs.L("phase", obs.PhaseAll))
	total.Observe(0.05)
	total.Observe(0.05)
	total.Observe(5) // beyond the last bucket
	reg.Histogram(obs.MDiscoveryPhaseSeconds, "", bounds, obs.L("level", "3"), obs.L("phase", "que2")).Observe(0.5)
	lag := reg.Histogram(obs.MUpdateRedeliveryLag, "", bounds)
	lag.Observe(0.5)

	rep := SnapshotReport(reg.Snapshot())
	if got, want := rep.Totals, (Totals{Armed: 9, Completed: 7, Lost: 2, SkippedArrivals: 1, PeakInflight: 5}); got != want {
		t.Errorf("totals %+v, want %+v", got, want)
	}
	for key, want := range map[string]int64{
		"retransmissions":          8,
		"retransmissions_timeout":  5,
		"subject_sessions_expired": 2,
		"object_sessions_expired":  6,
		"mailbox_drops":            0,
		"covert_timing_p_ppm":      -1,
	} {
		if got := rep.Counters[key]; got != want {
			t.Errorf("counter %s = %d, want %d", key, got, want)
		}
	}
	if q := rep.Latency["2"]; q.Count != 3 || q.Overflow != 1 || q.P50 <= 0.01 || q.P50 > 0.1 {
		t.Errorf("L2 latency %+v, want 3 samples, 1 overflow, p50 in the 0.1 s bucket", q)
	}
	if _, ok := rep.Latency["3"]; ok {
		t.Error("a non-total phase histogram produced a level latency")
	}
	if rep.RedeliveryLag == nil || rep.RedeliveryLag.Count != 1 {
		t.Errorf("redelivery lag %+v, want one sample", rep.RedeliveryLag)
	}
}
