package load

import (
	"errors"
	"strings"
	"testing"

	"argus/internal/slo"
)

// syntheticOracle is a fake TrialFunc with a known knee: rates at or below
// the knee pass; rates above fail with the configured counter regime. No
// engines, no clocks — the search tests run in microseconds.
type syntheticOracle struct {
	knee   float64
	fail   func(t *Trial) // decorates a failing trial with its regime
	trials []float64      // every offered rate, in call order
}

func (o *syntheticOracle) run(offered float64) (Trial, error) {
	o.trials = append(o.trials, offered)
	t := Trial{Offered: offered, Seconds: 5, Armed: int64(offered * 5)}
	if offered <= o.knee {
		t.Pass = true
		t.Achieved = offered
		t.Completed = t.Armed
		return t, nil
	}
	t.Achieved = o.knee
	t.Violations = []string{"synthetic: over the knee"}
	if o.fail != nil {
		o.fail(&t)
	}
	return t, nil
}

func TestSearchCapacityConverges(t *testing.T) {
	for _, knee := range []float64{137, 800, 2500} {
		o := &syntheticOracle{knee: knee}
		res, err := SearchCapacity(CapacityConfig{Start: 100, Tolerance: 0.1, MaxTrials: 32}, o.run)
		if err != nil {
			t.Fatalf("knee %v: %v", knee, err)
		}
		if !res.Converged {
			t.Errorf("knee %v: did not converge (%d trials)", knee, len(res.Trials))
		}
		if res.Knee > knee || res.Knee < knee*0.85 {
			t.Errorf("knee %v: found %v, want within [%.1f, %.1f]", knee, res.Knee, knee*0.85, knee)
		}
		if res.FirstFail <= knee {
			t.Errorf("knee %v: first fail %v should be above the knee", knee, res.FirstFail)
		}
		if res.FirstFail-res.Knee > 0.1*res.Knee+1e-9 {
			t.Errorf("knee %v: bracket [%v, %v] wider than tolerance", knee, res.Knee, res.FirstFail)
		}
	}
}

func TestSearchCapacityMonotoneBracketLadder(t *testing.T) {
	o := &syntheticOracle{knee: 900}
	res, err := SearchCapacity(CapacityConfig{Start: 100, Tolerance: 0.1, MaxTrials: 32}, o.run)
	if err != nil {
		t.Fatal(err)
	}
	// The ladder is strictly increasing until the first failure...
	firstFail := -1
	for i, tr := range res.Trials {
		if !tr.Pass {
			firstFail = i
			break
		}
		if i > 0 && tr.Offered <= res.Trials[i-1].Offered {
			t.Errorf("bracket ladder not increasing at %d: %v after %v", i, tr.Offered, res.Trials[i-1].Offered)
		}
	}
	if firstFail < 0 {
		t.Fatal("oracle never failed; bad test setup")
	}
	// ...and every probe after it stays inside the open bracket.
	lo, hi := res.Trials[firstFail-1].Offered, res.Trials[firstFail].Offered
	for _, r := range o.trials[firstFail+1:] {
		if r <= lo || r >= hi {
			t.Errorf("bisection probe %v outside bracket (%v, %v)", r, lo, hi)
		}
		if res.Trials[len(res.Trials)-1].Pass {
			lo = res.Trials[len(res.Trials)-1].Offered
		}
	}
}

func TestSearchCapacityBoundedTrials(t *testing.T) {
	// A needle-thin tolerance cannot run past the trial budget.
	o := &syntheticOracle{knee: 777}
	res, err := SearchCapacity(CapacityConfig{Start: 10, Tolerance: 1e-9, MaxTrials: 12}, o.run)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trials) > 12 {
		t.Errorf("ran %d trials, budget 12", len(res.Trials))
	}
	if res.Converged {
		t.Error("cannot have converged to 1e-9 tolerance in 12 trials")
	}
	if res.Knee <= 0 || res.Knee > 777 {
		t.Errorf("budget-exhausted knee %v should still be a passing rate <= 777", res.Knee)
	}
}

func TestSearchCapacityBracketsDownward(t *testing.T) {
	// Start far above the knee: the search must divide its way down.
	o := &syntheticOracle{knee: 50}
	res, err := SearchCapacity(CapacityConfig{Start: 6400, Tolerance: 0.1, MaxTrials: 32}, o.run)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not converge: %+v", res)
	}
	if res.Knee > 50 || res.Knee < 40 {
		t.Errorf("downward-bracketed knee %v, want within [40, 50]", res.Knee)
	}
}

func TestSearchCapacityNothingSustains(t *testing.T) {
	o := &syntheticOracle{knee: 0} // every rate fails
	res, err := SearchCapacity(CapacityConfig{Start: 100, Tolerance: 0.1, MaxTrials: 40}, o.run)
	if err != nil {
		t.Fatal(err)
	}
	if res.Knee != 0 || res.Converged {
		t.Errorf("nothing sustains: knee %v converged %v, want 0 and false", res.Knee, res.Converged)
	}
	if len(res.Trials) >= 40 {
		t.Errorf("downward bracket must give up before the budget, ran %d", len(res.Trials))
	}
}

func TestSearchCapacityPropagatesTrialError(t *testing.T) {
	boom := errors.New("fleet broke")
	_, err := SearchCapacity(CapacityConfig{}, func(float64) (Trial, error) { return Trial{}, boom })
	if !errors.Is(err, boom) {
		t.Errorf("got %v, want wrapped %v", err, boom)
	}
}

func TestSearchCapacityBottleneckPerRegime(t *testing.T) {
	regimes := []struct {
		name string
		fail func(t *Trial)
		want string
	}{
		{"mailbox", func(t *Trial) { t.Counters.MailboxDrops = t.Armed / 10 }, "mailbox-drops"},
		{"vcache", func(t *Trial) { t.Counters.VCacheMisses = t.Armed / 2 }, "vcache-misses"},
		{"retrans", func(t *Trial) { t.Counters.Retransmissions = t.Armed / 4 }, "retransmissions"},
		{"expiry", func(t *Trial) { t.Counters.SessionExpiries = t.Armed / 20 }, "session-expiries"},
		{"backlog", func(t *Trial) { t.SkipFraction = 0.4 }, "arrival-backlog"},
		{"compute", func(*Trial) {}, "compute-saturation"},
		// Causal precedence: drops upstream of retransmissions win even when
		// the downstream counter is larger.
		{"precedence", func(t *Trial) {
			t.Counters.MailboxDrops = t.Armed / 10
			t.Counters.Retransmissions = t.Armed
			t.Counters.SessionExpiries = t.Armed
		}, "mailbox-drops"},
		// Sub-threshold counters (<1% of armed) are noise, not a verdict.
		{"noise", func(t *Trial) { t.Counters.MailboxDrops = t.Armed / 1000 }, "compute-saturation"},
	}
	for _, rg := range regimes {
		t.Run(rg.name, func(t *testing.T) {
			o := &syntheticOracle{knee: 300, fail: rg.fail}
			res, err := SearchCapacity(CapacityConfig{Start: 100, Tolerance: 0.1, MaxTrials: 32}, o.run)
			if err != nil {
				t.Fatal(err)
			}
			if res.Bottleneck != rg.want {
				t.Errorf("bottleneck %q, want %q", res.Bottleneck, rg.want)
			}
		})
	}
}

func TestEvalTrial(t *testing.T) {
	rep := &slo.Report{Counters: map[string]int64{
		"mailbox_drops":            0,
		"vcache_misses":            3,
		"retransmissions":          9, // eight of them blind-round probes
		"retransmissions_timeout":  1,
		"subject_sessions_expired": 0,
	}}
	rep.Totals.Armed = 1000
	rep.Totals.Completed = 1000
	rep.Totals.SkippedArrivals = 0
	tr := EvalTrial(200, 5, 2, rep, TrialSLO(slo.SLO{}))
	if !tr.Pass {
		t.Fatalf("clean window must pass: %v", tr.Violations)
	}
	if tr.Achieved != 200 {
		t.Errorf("achieved %v, want 200", tr.Achieved)
	}
	if tr.Counters.VCacheMisses != 3 || tr.Counters.Retransmissions != 1 {
		t.Errorf("counters not threaded through: %+v", tr.Counters)
	}

	// 30 skipped arrivals × 2 sessions each against 1000 armed = 5.7% shed.
	rep.Totals.SkippedArrivals = 30
	tr = EvalTrial(200, 5, 2, rep, TrialSLO(slo.SLO{}))
	if tr.Pass {
		t.Fatal("saturated window (skip fraction 5.7%) must fail")
	}
	found := false
	for _, v := range tr.Violations {
		if strings.Contains(v, "skip fraction") {
			found = true
		}
	}
	if !found {
		t.Errorf("missing skip-fraction violation: %v", tr.Violations)
	}
	if tr.SkipFraction < 0.056 || tr.SkipFraction > 0.058 {
		t.Errorf("skip fraction %v, want ~0.0566", tr.SkipFraction)
	}

	// Lost sessions trip the strict trial gate.
	rep.Totals.SkippedArrivals = 0
	rep.Totals.Lost = 2
	tr = EvalTrial(200, 5, 2, rep, TrialSLO(slo.SLO{}))
	if tr.Pass {
		t.Fatal("window with lost sessions must fail")
	}
}

func TestTrialSLOOverrides(t *testing.T) {
	base := slo.SLO{MaxRetransmissions: 5, MinPeakConcurrent: 100, CovertnessAlpha: 0.01}
	s := TrialSLO(base)
	if s.MaxRetransmissions != -1 || s.MaxWarmRetransmissions != -1 {
		t.Error("retransmission gates must be disabled for trials")
	}
	if s.MinPeakConcurrent != 0 || s.CovertnessAlpha != 0 {
		t.Error("concurrency floor and covertness gate must be off for trials")
	}
	if s.MaxLost != 0 || s.MaxMailboxDrops != 0 || s.MaxExpiredExtra != 0 {
		t.Error("loss gates must be strict for trials")
	}
}
