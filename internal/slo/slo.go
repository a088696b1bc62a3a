// Package slo is the snapshot side of the load harness: the Report a run (or
// a live tail) is summarized into, the SLO gate table a report is judged by,
// and the built-in profiles' SLO blocks. Everything here is computable from
// an obs snapshot plus plain-data ledgers, so the package imports obs and the
// standard library only — a reader such as argus-ops links it without the
// engines, transports and personas internal/load drives.
package slo

import (
	"fmt"
	"sort"
	"time"
)

// SLO is the pass/fail contract a load run is held to. Integer fields are
// maximums: the zero value is the strictest setting (nothing tolerated),
// and -1 disables a check — so a default-constructed SLO asserts a
// fault-free lossless run. Latency ceilings of 0 are disabled (there is no
// meaningful "zero latency budget").
type SLO struct {
	// MaxLost bounds sessions still incomplete at a drain deadline. The
	// headline profiles demand 0; lossy-fault profiles may budget a few.
	MaxLost int64
	// MaxUnexpected bounds completions violating the expectation ledger:
	// above-L1 discoveries by revoked subjects, or double-credits.
	MaxUnexpected int64
	// MaxLevelMismatch bounds discoveries at the wrong visibility level
	// (e.g. a fellow resolving an L3 service at L2).
	MaxLevelMismatch int64
	// MinPeakConcurrent is the least armed-session concurrency the run must
	// reach (0 = no floor).
	MinPeakConcurrent int64
	// MaxMailboxDrops bounds inbound frames shed by transport backpressure.
	MaxMailboxDrops int64
	// MaxMalformed bounds wire-decode drops (only injected corruption
	// produces them).
	MaxMalformed int64
	// MaxRetransmissions bounds timeout retransmissions
	// (argus_retransmissions_total{cause="timeout"}: a resend for a peer that
	// was expected and silent) across both roles and all message legs; a
	// blind round's probes are not counted. On a lossless transport a
	// timeout is a timer misfire, not recovery, so the headline profile holds
	// an exact near-zero ceiling; lossy and duty-cycled profiles disable the
	// gate (-1) because there retransmission IS the recovery mechanism.
	MaxRetransmissions int64
	// MaxWarmRetransmissions bounds timeout retransmissions on waves after
	// the first. On the cold wave the RTT estimator is still unsampled and
	// the object's answer to a first-round rebroadcast is a timeout resend,
	// which is inherently noisy under a deep compute backlog — but once the
	// wheel has observed round trips, a lossless run must time out exactly
	// zero times, so the headline profile pins this at 0. A wave's cold
	// rounds (WaveStats.ColdRetransmissions) are not counted. -1 disables
	// (lossy profiles, where retransmission is recovery).
	MaxWarmRetransmissions int64
	// MaxExpiredExtra bounds subject-side session expiries beyond the
	// harness's prediction (revoked subjects' silently refused handshakes
	// are predicted; anything above is unexplained).
	MaxExpiredExtra int64
	// MaxDLQDepth bounds notifications still parked in dead-letter queues
	// when the run ends — a crash window that never fully redelivered.
	MaxDLQDepth int64
	// P50Ceiling / P99Ceiling bound the end-to-end (QUE1→recorded) latency
	// quantiles per level; 0 disables.
	P50Ceiling time.Duration
	P99Ceiling time.Duration
	// MaxSlowSessions bounds sessions falling beyond the last histogram
	// bucket (~13 s) — the honest backstop for quantile estimates that
	// saturate at the bucket range.
	MaxSlowSessions int64
	// CovertnessAlpha, when > 0, is the significance level of the passive
	// observer's indistinguishability gate (paper Case 7): the run fails
	// unless the observer evaluated and failed to reject the null — on both
	// the timing and the frame-length channel — at this alpha. A run with no
	// observer attached also fails: the gate demands evidence, not absence.
	CovertnessAlpha float64
	// StrictAdversaryAccounting, when set, demands the adversary phase ran
	// and its object-side counter deltas exactly equal the injected amounts:
	// no skipped targets, no idempotency violations, no unexplained
	// rejections.
	StrictAdversaryAccounting bool
}

// exceeded reports a max-style check failure, honoring -1 = disabled.
func exceeded(limit, actual int64) bool { return limit >= 0 && actual > limit }

// gate is one snapshot-computable SLO gate: everything needed to judge it is
// in a SnapshotReport, so a live tail (StreamGates) and a finished run
// (Check) evaluate the same row and cannot disagree.
type gate struct {
	name string // StreamGates' gate name
	desc string // Check's violation wording
	// limit is a count budget (0 strict, < 0 disabled) or, for a ceiling, a
	// latency bound in seconds (point-in-time; disabled ceilings have no row).
	limit   float64
	ceiling bool
	get     func(*Report) float64
}

func (g gate) violated(val float64) bool { return g.limit >= 0 && val > g.limit }

func (g gate) violation(val float64) string {
	if g.ceiling {
		return fmt.Sprintf("%s %.3fs > ceiling %.3fs", g.desc, val, g.limit)
	}
	return fmt.Sprintf("%s: %.0f > max %.0f", g.desc, val, g.limit)
}

// gates is the table: the count budgets, then per level with samples in rep
// (sorted, so the order is deterministic) the latency ceilings and the
// beyond-histogram-range backstop.
func (s SLO) gates(rep *Report) []gate {
	count := func(name, desc string, limit int64, get func(*Report) int64) gate {
		return gate{name: name, desc: desc, limit: float64(limit),
			get: func(r *Report) float64 { return float64(get(r)) }}
	}
	counter := func(key string) func(*Report) int64 {
		return func(r *Report) int64 { return r.Counters[key] }
	}
	out := []gate{
		count("lost", "lost completions", s.MaxLost, func(r *Report) int64 { return r.Totals.Lost }),
		count("unexpected", "unexpected completions", s.MaxUnexpected, func(r *Report) int64 { return r.Totals.Unexpected }),
		count("mailbox_drops", "mailbox drops", s.MaxMailboxDrops, counter("mailbox_drops")),
		count("malformed_drops", "malformed drops", s.MaxMalformed, counter("malformed_drops")),
		count("retransmissions", "timeout retransmissions", s.MaxRetransmissions, counter("retransmissions_timeout")),
		count("dlq_depth", "parked dead-letter notifications", s.MaxDLQDepth, counter("dlq_depth")),
	}
	levels := make([]string, 0, len(rep.Latency))
	for lvl, q := range rep.Latency {
		if q.Count > 0 {
			levels = append(levels, lvl)
		}
	}
	sort.Strings(levels)
	for _, lvl := range levels {
		ceiling := func(q string, lim time.Duration, get func(Quantiles) float64) {
			if lim > 0 {
				out = append(out, gate{name: "L" + lvl + "_" + q, desc: "L" + lvl + " " + q + " latency",
					limit: lim.Seconds(), ceiling: true,
					get: func(r *Report) float64 { return get(r.Latency[lvl]) }})
			}
		}
		ceiling("p50", s.P50Ceiling, func(q Quantiles) float64 { return q.P50 })
		ceiling("p99", s.P99Ceiling, func(q Quantiles) float64 { return q.P99 })
		out = append(out, count("L"+lvl+"_slow_sessions", "L"+lvl+" sessions beyond histogram range",
			s.MaxSlowSessions, func(r *Report) int64 { return r.Latency[lvl].Overflow }))
	}
	return out
}

// Check evaluates the SLO over a finished run's report and returns the
// violations (empty = pass): the violated rows of the gate table, then the
// gates only the harness ledger can judge.
func (s SLO) Check(rep *Report) SLOResult {
	var v []string
	add := func(format string, args ...any) { v = append(v, fmt.Sprintf(format, args...)) }

	for _, g := range s.gates(rep) {
		if val := g.get(rep); g.violated(val) {
			v = append(v, g.violation(val))
		}
	}
	if exceeded(s.MaxLevelMismatch, rep.Totals.LevelMismatch) {
		add("level mismatches: %d > max %d", rep.Totals.LevelMismatch, s.MaxLevelMismatch)
	}
	if s.MinPeakConcurrent > 0 && rep.Totals.PeakInflight < s.MinPeakConcurrent {
		add("peak concurrency: %d < min %d", rep.Totals.PeakInflight, s.MinPeakConcurrent)
	}
	var warm int64
	for _, w := range rep.Waves {
		if w.Index > 0 {
			warm += w.Retransmissions
		}
	}
	if exceeded(s.MaxWarmRetransmissions, warm) {
		add("warm-wave timeout retransmissions: %d > max %d", warm, s.MaxWarmRetransmissions)
	}
	extra := rep.Counters["subject_sessions_expired"] - rep.PredictedSubjectExpiries
	if exceeded(s.MaxExpiredExtra, extra) {
		add("unexplained subject session expiries: %d (observed %d, predicted %d) > max %d",
			extra, rep.Counters["subject_sessions_expired"], rep.PredictedSubjectExpiries, s.MaxExpiredExtra)
	}
	if rep.Totals.LeakedSessions > 0 {
		add("leaked sessions after TTL drain: %d", rep.Totals.LeakedSessions)
	}
	if s.CovertnessAlpha > 0 {
		switch c := rep.Covertness; {
		case c == nil:
			add("covertness gate requires an observer, but none ran")
		case !c.Evaluated:
			add("covertness observer starved: plain %d, covert %d samples, need %d each",
				c.PlainSamples, c.CovertSamples, c.MinSamples)
		case !c.Pass(s.CovertnessAlpha):
			add("covertness rejected at alpha %g: timing p=%.4g, length p=%.4g",
				s.CovertnessAlpha, c.TimingP, c.LengthP)
		}
	}
	if s.StrictAdversaryAccounting {
		if a := rep.Adversary; a == nil {
			add("strict adversary accounting requires an adversary phase, but none ran")
		} else {
			var wantOrphan, wantDup, wantRejected int64
			if a.Replay != nil {
				if a.Replay.Skipped > 0 {
					add("replay persona skipped %d targets (no complete transcript captured)", a.Replay.Skipped)
				}
				if a.Replay.IdempotencyViolations > 0 {
					add("duplicate-QUE1 idempotency violations: %d", a.Replay.IdempotencyViolations)
				}
				wantOrphan += a.Replay.OrphanQue2
				wantDup += a.Replay.DupQue1
				wantRejected += a.Replay.StaleQue2
			}
			if a.Sybil != nil {
				wantRejected += a.Sybil.Forged
			}
			if a.OrphanDelta != wantOrphan {
				add("orphan QUE2 delta %d != injected %d", a.OrphanDelta, wantOrphan)
			}
			if a.DuplicateDelta != wantDup {
				add("duplicate QUE1 delta %d != injected %d", a.DuplicateDelta, wantDup)
			}
			if a.RejectedDelta != wantRejected {
				add("rejected QUE2 delta %d != injected %d", a.RejectedDelta, wantRejected)
			}
		}
	}
	return SLOResult{Pass: len(v) == 0, Violations: v}
}

// SLOResult is the verdict attached to a report.
type SLOResult struct {
	Pass       bool     `json:"pass"`
	Violations []string `json:"violations,omitempty"`
}
