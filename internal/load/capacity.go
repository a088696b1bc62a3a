package load

import (
	"fmt"
	"time"

	"argus/internal/obs"
	"argus/internal/slo"
)

// This file is the saturation-knee finder: a bracket-then-bisect search over
// the open-loop offered rate (sessions/s) that reports the highest rate the
// fleet sustains under the SLO gates and, at the first failing rate, which
// resource gave out. The search itself is pure control logic over a
// TrialFunc, so the deterministic tests drive it with a synthetic oracle and
// the binaries drive it with a live fleet (in-process via CapacitySession,
// cross-process via fleetcoord).

// TrialCounters is the per-trial slice of obs counters the bottleneck
// attribution reads, each summed over the trial's diff window.
type TrialCounters struct {
	MailboxDrops    int64 `json:"mailbox_drops"`
	VCacheMisses    int64 `json:"vcache_misses"`
	Retransmissions int64 `json:"retransmissions"` // cause="timeout": blind-round probes are not a symptom
	SessionExpiries int64 `json:"session_expiries"`
}

// Trial is one measured point on the rate ladder.
type Trial struct {
	// Offered is the open-loop arrival rate in sessions/s the trial asked
	// for; Achieved is completions over the offered window.
	Offered  float64 `json:"offered_sessions_per_second"`
	Achieved float64 `json:"achieved_sessions_per_second"`
	Seconds  float64 `json:"seconds"`

	Armed     int64 `json:"armed"`
	Completed int64 `json:"completed"`
	Lost      int64 `json:"lost"`
	// Skipped counts arrivals that found every subject busy. SkipFraction
	// is skipped offered sessions over all offered sessions — the
	// open-loop's honest utilization signal, since skipped arrivals are
	// dropped, never queued.
	Skipped      int64   `json:"skipped_arrivals"`
	SkipFraction float64 `json:"skip_fraction"`

	Pass       bool          `json:"pass"`
	Violations []string      `json:"violations,omitempty"`
	Counters   TrialCounters `json:"counters"`
}

// TrialFunc measures one offered rate (sessions/s). An error aborts the
// whole search — it means the harness broke, not that the rate failed.
type TrialFunc func(offered float64) (Trial, error)

// CapacityConfig tunes the search.
type CapacityConfig struct {
	Start     float64 // first offered rate, sessions/s (default 100)
	Tolerance float64 // stop when hi-lo <= Tolerance*lo (default 0.1)
	MaxTrials int     // hard trial budget (default 16)
	Logf      func(format string, args ...any)
}

// bracketGrowth is the factor the bracketing phase multiplies (or divides)
// the offered rate by.
const bracketGrowth = 2

func (c CapacityConfig) withDefaults() CapacityConfig {
	if c.Start <= 0 {
		c.Start = 100
	}
	if c.Tolerance <= 0 {
		c.Tolerance = 0.1
	}
	if c.MaxTrials <= 0 {
		c.MaxTrials = 16
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// CapacityResult is the search's verdict.
type CapacityResult struct {
	// Knee is the highest offered rate that passed (0 if none did).
	Knee float64 `json:"knee_sessions_per_second"`
	// FirstFail is the lowest offered rate that failed (0 if none did).
	FirstFail float64 `json:"first_fail_sessions_per_second"`
	// Bottleneck attributes the lowest failing trial: "mailbox-drops",
	// "vcache-misses", "retransmissions", "session-expiries",
	// "arrival-backlog", "compute-saturation", or "" when nothing failed.
	Bottleneck string `json:"bottleneck,omitempty"`
	// Converged: the bracket closed to within Tolerance.
	Converged bool    `json:"converged"`
	Trials    []Trial `json:"trials"`
}

// SearchCapacity brackets the knee (doubling the rate while trials pass,
// halving while even Start fails) and then bisects until the
// bracket is within Tolerance or the trial budget runs out. The rate
// ladder is monotone during bracketing by construction; bisection probes
// only inside the bracket.
func SearchCapacity(cfg CapacityConfig, run TrialFunc) (*CapacityResult, error) {
	cfg = cfg.withDefaults()
	res := &CapacityResult{}
	var lo, hi float64 // highest pass, lowest fail
	var firstFail *Trial
	rate := cfg.Start
	for len(res.Trials) < cfg.MaxTrials {
		t, err := run(rate)
		if err != nil {
			return res, fmt.Errorf("capacity trial at %.1f/s: %w", rate, err)
		}
		res.Trials = append(res.Trials, t)
		if t.Pass {
			cfg.Logf("capacity: %.1f/s PASS (achieved %.1f/s, skip %.1f%%)",
				t.Offered, t.Achieved, 100*t.SkipFraction)
			if t.Offered > lo {
				lo = t.Offered
			}
		} else {
			cfg.Logf("capacity: %.1f/s FAIL (%v)", t.Offered, t.Violations)
			if hi == 0 || t.Offered < hi {
				hi = t.Offered
			}
			if firstFail == nil || t.Offered < firstFail.Offered {
				ff := t
				firstFail = &ff
			}
		}
		switch {
		case lo == 0 && hi > 0:
			// Even the smallest rate tried so far fails: bracket downward.
			rate = hi / bracketGrowth
			if rate < cfg.Start/1024 {
				// Nothing sustains; give up rather than chase zero.
				goto done
			}
		case lo > 0 && hi == 0:
			// Everything passes so far: bracket upward.
			rate = lo * bracketGrowth
		default:
			// Bracket closed: bisect or stop.
			if hi-lo <= cfg.Tolerance*lo {
				res.Converged = true
				goto done
			}
			rate = (lo + hi) / 2
		}
	}
	// Trial budget exhausted; converged only if the bracket already closed.
	res.Converged = lo > 0 && hi > 0 && hi-lo <= cfg.Tolerance*lo

done:
	res.Knee = lo
	res.FirstFail = hi
	if firstFail != nil {
		res.Bottleneck = AttributeBottleneck(*firstFail)
	}
	return res, nil
}

// attributionThreshold: a counter family must reach this fraction of armed
// sessions before it is blamed — below it, the counters are noise and the
// fallback verdicts apply.
const attributionThreshold = 0.01

// AttributeBottleneck names the resource that gave out in a failing trial.
// Counter families are checked in causal order — mailbox drops cause
// retransmissions, retransmissions cause expiries — so the most upstream
// signal above threshold wins. With no counter signal, a high skip
// fraction means subjects never came free (arrival backlog), and anything
// else is raw compute saturation (latency gates tripped with clean
// counters).
func AttributeBottleneck(t Trial) string {
	armed := t.Armed
	if armed <= 0 {
		armed = 1
	}
	over := func(c int64) bool { return float64(c)/float64(armed) >= attributionThreshold }
	switch {
	case over(t.Counters.MailboxDrops):
		return "mailbox-drops"
	case over(t.Counters.VCacheMisses):
		return "vcache-misses"
	case over(t.Counters.Retransmissions):
		return "retransmissions"
	case over(t.Counters.SessionExpiries):
		return "session-expiries"
	case t.SkipFraction > attributionThreshold:
		return "arrival-backlog"
	default:
		return "compute-saturation"
	}
}

// maxSkipFrac bounds a trial's skip fraction: an open-loop fleet that sheds
// more offered load than that is saturated no matter how clean the
// completions look.
const maxSkipFrac = 0.05

// TrialSLO derives the per-trial gate set from a profile SLO. Trials judge
// a short open-loop window from a snapshot diff, so the ledger-backed and
// whole-run gates are retuned: retransmission ceilings off (the window
// boundary splits retry cycles arbitrarily), concurrency floor off (a
// low-rate trial legitimately idles), loss/drops/expiries strict (at a
// sustainable rate the window is loss-free), latency ceilings kept.
func TrialSLO(s slo.SLO) slo.SLO {
	s.MaxRetransmissions = -1
	s.MaxWarmRetransmissions = -1
	s.MinPeakConcurrent = 0
	s.MaxLost = 0
	s.MaxMailboxDrops = 0
	s.MaxExpiredExtra = 0
	s.CovertnessAlpha = 0
	s.StrictAdversaryAccounting = false
	return s
}

// EvalTrial folds a trial window's report into a Trial verdict. offered is
// the arrival rate in sessions/s, seconds the offered-window length,
// sessionsPerArrival how many sessions one open-loop arrival arms (the
// subject's per-round fan-out — ObjectsPerCell for the standard fleets).
func EvalTrial(offered, seconds, sessionsPerArrival float64, rep *slo.Report, gates slo.SLO) Trial {
	if sessionsPerArrival <= 0 {
		sessionsPerArrival = 1
	}
	t := Trial{
		Offered:   offered,
		Seconds:   seconds,
		Armed:     rep.Totals.Armed,
		Completed: rep.Totals.Completed,
		Lost:      rep.Totals.Lost,
		Skipped:   rep.Totals.SkippedArrivals,
		Counters: TrialCounters{
			MailboxDrops:    rep.Counters["mailbox_drops"],
			VCacheMisses:    rep.Counters["vcache_misses"],
			Retransmissions: rep.Counters["retransmissions_timeout"],
			SessionExpiries: rep.Counters["subject_sessions_expired"],
		},
	}
	if seconds > 0 {
		t.Achieved = float64(t.Completed) / seconds
	}
	offeredSessions := float64(t.Armed) + float64(t.Skipped)*sessionsPerArrival
	if offeredSessions > 0 {
		t.SkipFraction = float64(t.Skipped) * sessionsPerArrival / offeredSessions
	}
	t.Violations = append(t.Violations, gates.Check(rep).Violations...)
	if t.SkipFraction > maxSkipFrac {
		t.Violations = append(t.Violations, fmt.Sprintf(
			"skip fraction %.1f%% > max %.1f%% (offered load shed, fleet saturated)",
			100*t.SkipFraction, 100*maxSkipFrac))
	}
	t.Pass = len(t.Violations) == 0
	return t
}

// CapacitySession holds one in-process fleet across many open-loop trials,
// so the (expensive) fleet build is paid once and each trial is a
// snapshot-diff window over the shared registry.
type CapacitySession struct {
	r        *runner
	trialDur time.Duration
	gates    slo.SLO
	last     *obs.Snapshot // the registry when the previous window closed

	// Warm is the closed warm wave's window: Totals.Armed sessions in
	// Totals.WallSeconds, with the per-level mix in Latency.
	Warm *slo.Report
}

// OpenCapacitySession builds the profile's fleet and runs one closed
// warm wave (every subject fires one round) so verify caches, ARP-style
// peer state and the RTT estimators are warm before the first trial. Each
// trial's offered window lasts trialDur.
func OpenCapacitySession(p Profile, trialDur time.Duration) (*CapacitySession, error) {
	r, err := newRunner(p)
	if err != nil {
		return nil, err
	}
	cs := &CapacitySession{
		r:        r,
		trialDur: trialDur,
		gates:    TrialSLO(r.p.SLO),
		last:     r.before,
	}
	start := time.Now()
	_, lost := r.drv.Wave(r.slots(), 0, r.p.DrainTimeout)
	seconds := time.Since(start).Seconds()
	if lost > 0 {
		cs.Close()
		return nil, fmt.Errorf("warm wave did not complete: %d sessions lost", lost)
	}
	cs.Warm = cs.window()
	cs.Warm.Totals.WallSeconds = seconds
	return cs, nil
}

// window quiesces the fleet — so a written-off round's session expiries land
// in the window that caused them, not the next one's — and reports the
// registry's movement since the previous window closed.
func (cs *CapacitySession) window() *slo.Report {
	r := cs.r
	r.drv.Quiesce(r.p.quiesceDeadline())
	after := r.reg.Snapshot()
	rep := slo.SnapshotReport(obs.DiffSnapshots(after, cs.last))
	cs.last = after
	return rep
}

// Trial offers `offered` sessions/s for the session's trial duration and
// judges the window. Each arrival arms one subject round of ObjectsPerCell
// sessions, so the round rate handed to the open loop is scaled down
// accordingly.
func (cs *CapacitySession) Trial(offered float64) (Trial, error) {
	r := cs.r
	perArrival := float64(r.p.ObjectsPerCell)
	r.drv.OpenLoop(r.slots(), r.rng, offered/perArrival, cs.trialDur, r.p.DrainTimeout)
	return EvalTrial(offered, cs.trialDur.Seconds(), perArrival, cs.window(), cs.gates), nil
}

// Close tears the fleet down.
func (cs *CapacitySession) Close() { cs.r.fleet.close() }
