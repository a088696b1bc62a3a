package load

import (
	"fmt"
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
	// MaxRetransmissions bounds protocol retransmissions across both roles
	// and all message legs. On a lossless transport a retransmission is a
	// timer misfire, not recovery, so the headline profile holds an exact
	// near-zero ceiling; lossy and duty-cycled profiles disable the gate
	// (-1) because there retransmission IS the recovery mechanism.
	MaxRetransmissions int64
	// MaxWarmRetransmissions bounds retransmissions on waves after the
	// first. The cold wave fires quiescence probes while the RTT estimator
	// is still unsampled, which is inherently noisy under a deep compute
	// backlog — but once the wheel has observed round trips, a lossless run
	// must retransmit exactly zero, so the headline profile pins this at 0.
	// -1 disables (lossy profiles, where retransmission is recovery).
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

// Check evaluates the SLO over a finished run's report and returns the
// violations (empty = pass).
func (s SLO) Check(rep *Report) SLOResult {
	var v []string
	add := func(format string, args ...any) { v = append(v, fmt.Sprintf(format, args...)) }

	if exceeded(s.MaxLost, rep.Totals.Lost) {
		add("lost completions: %d > max %d", rep.Totals.Lost, s.MaxLost)
	}
	if exceeded(s.MaxUnexpected, rep.Totals.Unexpected) {
		add("unexpected completions: %d > max %d", rep.Totals.Unexpected, s.MaxUnexpected)
	}
	if exceeded(s.MaxLevelMismatch, rep.Totals.LevelMismatch) {
		add("level mismatches: %d > max %d", rep.Totals.LevelMismatch, s.MaxLevelMismatch)
	}
	if s.MinPeakConcurrent > 0 && rep.Totals.PeakInflight < s.MinPeakConcurrent {
		add("peak concurrency: %d < min %d", rep.Totals.PeakInflight, s.MinPeakConcurrent)
	}
	if exceeded(s.MaxMailboxDrops, rep.Counters["mailbox_drops"]) {
		add("mailbox drops: %d > max %d", rep.Counters["mailbox_drops"], s.MaxMailboxDrops)
	}
	if exceeded(s.MaxMalformed, rep.Counters["malformed_drops"]) {
		add("malformed drops: %d > max %d", rep.Counters["malformed_drops"], s.MaxMalformed)
	}
	if exceeded(s.MaxRetransmissions, rep.Counters["retransmissions"]) {
		add("retransmissions: %d > max %d", rep.Counters["retransmissions"], s.MaxRetransmissions)
	}
	var warm int64
	for _, w := range rep.Waves {
		if w.Index > 0 {
			warm += w.Retransmissions
		}
	}
	if exceeded(s.MaxWarmRetransmissions, warm) {
		add("warm-wave retransmissions: %d > max %d", warm, s.MaxWarmRetransmissions)
	}
	extra := rep.Counters["subject_sessions_expired"] - rep.PredictedSubjectExpiries
	if exceeded(s.MaxExpiredExtra, extra) {
		add("unexplained subject session expiries: %d (observed %d, predicted %d) > max %d",
			extra, rep.Counters["subject_sessions_expired"], rep.PredictedSubjectExpiries, s.MaxExpiredExtra)
	}
	if exceeded(s.MaxDLQDepth, rep.Counters["dlq_depth"]) {
		add("parked dead-letter notifications: %d > max %d", rep.Counters["dlq_depth"], s.MaxDLQDepth)
	}
	if rep.Totals.LeakedSessions > 0 {
		add("leaked sessions after TTL drain: %d", rep.Totals.LeakedSessions)
	}
	for lvl, q := range rep.Latency {
		if q.Count == 0 {
			continue
		}
		if s.P50Ceiling > 0 && q.P50 > s.P50Ceiling.Seconds() {
			add("L%s p50 latency %.3fs > ceiling %.3fs", lvl, q.P50, s.P50Ceiling.Seconds())
		}
		if s.P99Ceiling > 0 && q.P99 > s.P99Ceiling.Seconds() {
			add("L%s p99 latency %.3fs > ceiling %.3fs", lvl, q.P99, s.P99Ceiling.Seconds())
		}
		if exceeded(s.MaxSlowSessions, q.Overflow) {
			add("L%s sessions beyond histogram range: %d > max %d", lvl, q.Overflow, s.MaxSlowSessions)
		}
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
