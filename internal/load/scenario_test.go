package load

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"argus/internal/slo"
)

// TestAdversarySoak runs the built-in adversary-soak profile: three honest
// waves with roaming subjects and duty-cycled (sleepy) objects, then the
// replay and Sybil personas against every cell. The acceptance bar is exact:
// the honest fleet stays lossless with its SLOs green, and every injected
// hostile frame is accounted for by exactly one object-side counter
// increment — no skips, no idempotency violations, nothing unexplained.
func TestAdversarySoak(t *testing.T) {
	p := Profiles()["adversary-soak"]
	p.Logf = t.Logf
	rep, err := Run(p)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !rep.SLO.Pass {
		t.Fatalf("SLO violations: %v", rep.SLO.Violations)
	}

	// Honest traffic is unharmed: lossless, fully accounted, no leaks.
	if rep.Totals.Lost != 0 {
		t.Fatalf("lost completions: %d", rep.Totals.Lost)
	}
	if rep.Totals.Completed != rep.Totals.Armed {
		t.Fatalf("completed %d != armed %d", rep.Totals.Completed, rep.Totals.Armed)
	}
	if rep.Totals.Unexpected != 0 || rep.Totals.LevelMismatch != 0 {
		t.Fatalf("unexpected %d, level mismatches %d", rep.Totals.Unexpected, rep.Totals.LevelMismatch)
	}
	if rep.Totals.LeakedSessions != 0 {
		t.Fatalf("leaked sessions: %d", rep.Totals.LeakedSessions)
	}

	// Roaming arithmetic: 2 of each cell's 6 subjects migrate at each of the
	// 2 wave boundaries, in 6 cells — and the telemetry counter must agree
	// with the harness ledger.
	if rep.Fleet.Roamed != 24 {
		t.Fatalf("roamed %d, want 24", rep.Fleet.Roamed)
	}
	if got := rep.Counters["roams"]; got != 24 {
		t.Fatalf("roams counter %d, want 24", got)
	}
	// Every roamer arrives with re-issued credentials at a cell whose verify
	// cache has never seen it: the warm waves must show fresh misses (each
	// roamer costs at least a cert and a profile miss at its new cell).
	warmMisses := rep.Waves[1].VCacheMisses + rep.Waves[2].VCacheMisses
	if warmMisses < 24 {
		t.Fatalf("warm-wave vcache misses %d, want >= 24 (roamer re-verification)", warmMisses)
	}
	if rep.Waves[0].VCacheMisses == 0 {
		t.Fatal("wave 0 saw no verify-cache misses (cold phase missing)")
	}

	// Sleepy devices: one duty-cycled object per cell, which must actually
	// have slept through frames — recovered by retransmission, not by luck.
	if rep.Fleet.Sleepy != 6 {
		t.Fatalf("sleepy objects %d, want 6", rep.Fleet.Sleepy)
	}
	if rep.Counters["sleepy_drops"] == 0 {
		t.Fatal("sleepy objects dropped nothing: the duty cycle never gated a frame")
	}
	if rep.Counters["retransmissions"] == 0 {
		t.Fatal("no retransmissions: sleepy recovery never exercised the retry path")
	}

	// Replay persona ledger: per cell, 1 target, 1 orphan QUE2, 1 QUE1 replay,
	// 2 duplicate QUE1s, 1 stale QUE2.
	if rep.Adversary == nil || rep.Adversary.Replay == nil {
		t.Fatal("report missing replay stats")
	}
	rp := rep.Adversary.Replay
	if rp.Targets != 6 || rp.Skipped != 0 {
		t.Fatalf("replay targets %d (skipped %d), want 6 (0)", rp.Targets, rp.Skipped)
	}
	if rp.OrphanQue2 != 6 || rp.Que1 != 6 || rp.DupQue1 != 12 || rp.StaleQue2 != 6 {
		t.Fatalf("replay injections = %+v, want orphan 6 / que1 6 / dup 12 / stale 6", rp)
	}
	if rp.IdempotencyViolations != 0 {
		t.Fatalf("duplicate-QUE1 idempotency violations: %d", rp.IdempotencyViolations)
	}

	// Sybil persona ledger: one flood per cell; every secure object offers a
	// handshake (3 per cell), the L1 object answers in the clear, and every
	// forged QUE2 targets a secure responder.
	if rep.Adversary.Sybil == nil {
		t.Fatal("report missing sybil stats")
	}
	sy := rep.Adversary.Sybil
	if sy.Identities != 6 || sy.Broadcasts != 6 {
		t.Fatalf("sybil identities %d, broadcasts %d, want 6/6", sy.Identities, sy.Broadcasts)
	}
	if sy.SecureRes1 != 18 || sy.PublicRes1 != 6 || sy.Forged != 18 {
		t.Fatalf("sybil responses = %+v, want secure 18 / public 6 / forged 18", sy)
	}

	// The exact-delta accounting: every hostile frame shows up as exactly one
	// object-side outcome — 6 orphans, 12 duplicates, 24 rejections (6 stale
	// replays + 18 forged Sybil QUE2s). The SLO gate already enforced this;
	// re-assert the raw numbers so a loosened gate cannot rot silently.
	if rep.Adversary.OrphanDelta != 6 || rep.Adversary.DuplicateDelta != 12 || rep.Adversary.RejectedDelta != 24 {
		t.Fatalf("adversary deltas orphan %d / dup %d / rejected %d, want 6/12/24",
			rep.Adversary.OrphanDelta, rep.Adversary.DuplicateDelta, rep.Adversary.RejectedDelta)
	}
	// Total injected: replay 3 QUE1 + 2 QUE2 per cell, sybil 1 QUE1 + 3 QUE2.
	if got := rep.Counters["adversary_injected"]; got != 54 {
		t.Fatalf("adversary_injected %d, want 54", got)
	}

	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
}

// TestCovertObserver runs the built-in covert-observer profile: non-fellow
// subjects against a half-L2 / half-L3 fleet with the passive crowd observer
// sampling every exchange. With the countermeasures intact (v3.0 cover-ups,
// uniform-length padding) the two populations must be statistically
// indistinguishable, and the covertness SLO gate must pass.
func TestCovertObserver(t *testing.T) {
	p := Profiles()["covert-observer"]
	p.Logf = t.Logf
	rep, err := Run(p)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !rep.SLO.Pass {
		t.Fatalf("SLO violations: %v", rep.SLO.Violations)
	}
	c := rep.Covertness
	if c == nil || !c.Evaluated {
		t.Fatalf("covertness verdict missing or unevaluated: %+v", c)
	}
	// 12 objects per population × 6 subjects × 3 waves = 216 exchanges each.
	if c.PlainSamples < p.ObserverMinSamples || c.CovertSamples < p.ObserverMinSamples {
		t.Fatalf("observer starved: plain %d, covert %d, need %d", c.PlainSamples, c.CovertSamples, p.ObserverMinSamples)
	}
	// Uniform-length padding is exact, not approximate: the KS statistic over
	// frame lengths must be literally zero.
	if c.LengthD != 0 || c.LengthP != 1 {
		t.Fatalf("length channel leaked: D=%v p=%v (padding must make lengths identical)", c.LengthD, c.LengthP)
	}
	if c.TimingP < p.SLO.CovertnessAlpha {
		t.Fatalf("timing channel rejected: p=%v < alpha %v", c.TimingP, p.SLO.CovertnessAlpha)
	}
	// The ppm gauges feed the ops tail; length p=1 must read as 1e6.
	if got := rep.Counters["covert_length_p_ppm"]; got != 1_000_000 {
		t.Fatalf("covert_length_p_ppm = %d, want 1000000", got)
	}
}

// TestCovertObserverBrokenScoping is the negative control the statistical
// gate is worthless without: the same fleet with BreakScoping set — engines
// at wire v2.0, whose L3 objects answer non-fellows with the covert variant
// under a key the subject cannot derive, and covert profiles inflated past
// the uniform pad. The observer must catch the length leak decisively and
// the covertness SLO must fail.
func TestCovertObserverBrokenScoping(t *testing.T) {
	p := Profiles()["covert-observer"]
	p.Logf = t.Logf
	p.BreakScoping = true
	// One wave is enough evidence: 72 plain exchanges, and the covert
	// population inflates further because the undecryptable RES2s keep the
	// subjects retransmitting QUE2 (each retry earns a cached resend).
	p.Waves = 1
	p.ObserverMinSamples = 60
	p.ObserverMaxSamples = 0 // observer default: 4× min
	p.DrainTimeout = 5 * time.Second
	// The leak's collateral is expected, not a harness failure: every
	// non-fellow↔L3 session hangs (the subject cannot decrypt the cover-up)
	// and expires at TTL.
	p.SLO.MaxLost = -1
	p.SLO.MaxExpiredExtra = -1
	p.SLO.MinPeakConcurrent = 0

	rep, err := Run(p)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// The composition leak itself: 6 subjects × 2 L3 objects × 6 cells never
	// complete.
	if rep.Totals.Lost != 72 {
		t.Fatalf("lost %d, want 72 (every non-fellow↔L3 session must hang at v2.0)", rep.Totals.Lost)
	}
	c := rep.Covertness
	if c == nil || !c.Evaluated {
		t.Fatalf("covertness verdict missing or unevaluated: %+v", c)
	}
	// The inflated covert profiles make the two length distributions
	// disjoint: the KS test must reject at any reasonable alpha.
	if c.LengthD != 1 {
		t.Fatalf("length KS statistic %v, want 1 (distributions are disjoint)", c.LengthD)
	}
	if c.LengthP >= 1e-3 {
		t.Fatalf("length channel p=%v, want < 1e-3 (the leak must be decisive)", c.LengthP)
	}
	if rep.SLO.Pass {
		t.Fatal("SLO passed on a deliberately leaky deployment")
	}
	found := false
	for _, v := range rep.SLO.Violations {
		if strings.Contains(v, "covertness") {
			found = true
		}
	}
	if !found {
		t.Fatalf("violations %v missing a covertness rejection", rep.SLO.Violations)
	}
}

// TestSLOCheckAdversary pins the report-level covertness and strict
// accounting gates.
func TestSLOCheckAdversary(t *testing.T) {
	base := func() *slo.Report {
		return &slo.Report{
			Totals:   slo.Totals{Armed: 10, Completed: 10},
			Latency:  map[string]slo.Quantiles{},
			Counters: map[string]int64{},
		}
	}
	goodLedger := func() *slo.AdversaryReport {
		return &slo.AdversaryReport{
			Replay:      &slo.ReplayStats{Targets: 6, OrphanQue2: 6, Que1: 6, DupQue1: 12, StaleQue2: 6},
			Sybil:       &slo.SybilStats{Identities: 6, Forged: 18},
			OrphanDelta: 6, DuplicateDelta: 12, RejectedDelta: 24,
		}
	}
	cases := []struct {
		name    string
		slo     slo.SLO
		mutate  func(*slo.Report)
		wantOK  bool
		wantHit string
	}{
		{name: "covertness gate needs an observer", slo: slo.SLO{CovertnessAlpha: 1e-3},
			mutate: func(*slo.Report) {}, wantHit: "observer"},
		{name: "starved observer fails", slo: slo.SLO{CovertnessAlpha: 1e-3},
			mutate: func(r *slo.Report) {
				r.Covertness = &slo.Covertness{PlainSamples: 10, CovertSamples: 200, MinSamples: 150}
			}, wantHit: "starved"},
		{name: "rejected null fails", slo: slo.SLO{CovertnessAlpha: 1e-3},
			mutate: func(r *slo.Report) {
				r.Covertness = &slo.Covertness{Evaluated: true, TimingP: 0.8, LengthP: 1e-9}
			}, wantHit: "rejected"},
		{name: "indistinguishable passes", slo: slo.SLO{CovertnessAlpha: 1e-3},
			mutate: func(r *slo.Report) {
				r.Covertness = &slo.Covertness{Evaluated: true, TimingP: 0.4, LengthP: 1}
			}, wantOK: true},
		{name: "strict accounting needs a phase", slo: slo.SLO{StrictAdversaryAccounting: true},
			mutate: func(*slo.Report) {}, wantHit: "adversary"},
		{name: "exact ledger passes", slo: slo.SLO{StrictAdversaryAccounting: true},
			mutate: func(r *slo.Report) { r.Adversary = goodLedger() }, wantOK: true},
		{name: "skipped target fails", slo: slo.SLO{StrictAdversaryAccounting: true},
			mutate: func(r *slo.Report) {
				a := goodLedger()
				a.Replay.Skipped = 1
				r.Adversary = a
			}, wantHit: "skipped"},
		{name: "idempotency violation fails", slo: slo.SLO{StrictAdversaryAccounting: true},
			mutate: func(r *slo.Report) {
				a := goodLedger()
				a.Replay.IdempotencyViolations = 2
				r.Adversary = a
			}, wantHit: "idempotency"},
		{name: "unexplained rejection fails", slo: slo.SLO{StrictAdversaryAccounting: true},
			mutate: func(r *slo.Report) {
				a := goodLedger()
				a.RejectedDelta = 25
				r.Adversary = a
			}, wantHit: "rejected QUE2 delta"},
		{name: "missing duplicate fails", slo: slo.SLO{StrictAdversaryAccounting: true},
			mutate: func(r *slo.Report) {
				a := goodLedger()
				a.DuplicateDelta = 11
				r.Adversary = a
			}, wantHit: "duplicate QUE1 delta"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep := base()
			tc.mutate(rep)
			res := tc.slo.Check(rep)
			if tc.wantOK {
				if !res.Pass {
					t.Fatalf("want pass, got violations %v", res.Violations)
				}
				return
			}
			if res.Pass {
				t.Fatalf("want violation containing %q, got pass", tc.wantHit)
			}
			found := false
			for _, v := range res.Violations {
				if strings.Contains(v, tc.wantHit) {
					found = true
				}
			}
			if !found {
				t.Fatalf("violations %v missing %q", res.Violations, tc.wantHit)
			}
		})
	}
}
