package slo

import (
	"fmt"
	"time"
)

// GateStatus is one SLO gate evaluated against a live (or final) report:
// the current value, the configured budget, how much of the budget is
// consumed, and — when a previous observation is supplied — the burn rate.
// argus-ops renders these from streamed snapshots using the very same gate
// definitions the harness enforces at the end of a run, so a tail that shows
// green and a report that fails cannot disagree about what was measured.
type GateStatus struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	// Limit is the gate budget: > 0 a real budget, 0 strict (nothing
	// tolerated), < 0 disabled.
	Limit float64 `json:"limit"`
	// BudgetUsed is Value/Limit for budgeted gates; strict gates report 1
	// the moment the value is nonzero.
	BudgetUsed float64 `json:"budget_used"`
	// BurnPerHour is the fraction of the budget the run consumed per hour
	// over the observation window (budgeted, cumulative gates only).
	BurnPerHour float64 `json:"burn_per_hour,omitempty"`
	Violated    bool    `json:"violated"`
}

func (g GateStatus) String() string {
	state := "ok"
	if g.Violated {
		state = "VIOLATED"
	}
	switch {
	case g.Limit < 0:
		return fmt.Sprintf("%-24s %10.3g  (disabled)", g.Name, g.Value)
	case g.Limit == 0:
		return fmt.Sprintf("%-24s %10.3g  strict  %s", g.Name, g.Value, state)
	default:
		return fmt.Sprintf("%-24s %10.3g  budget %.3g  used %3.0f%%  burn %.2f/h  %s",
			g.Name, g.Value, g.Limit, g.BudgetUsed*100, g.BurnPerHour, state)
	}
}

// StreamGates evaluates the SLO's snapshot-computable gates — the gate table
// Check reports from, so for every row Check fails iff the status here is
// Violated — over a report (typically from SnapshotReport on a streamed
// frame). prev and dt, when supplied, give the previous observation and the
// time between the two, from which cumulative gates get a burn rate.
// Latency-ceiling gates are point-in-time and never burn. Gates appear in
// deterministic order.
func (s SLO) StreamGates(cur, prev *Report, dt time.Duration) []GateStatus {
	var out []GateStatus
	for _, g := range s.gates(cur) {
		val := g.get(cur)
		st := GateStatus{Name: g.name, Value: val, Limit: g.limit, Violated: g.violated(val)}
		switch {
		case g.limit > 0:
			st.BudgetUsed = val / g.limit
			if !g.ceiling && prev != nil && dt > 0 {
				st.BurnPerHour = (val - g.get(prev)) / g.limit * float64(time.Hour) / float64(dt)
			}
		case g.limit == 0 && val > 0:
			st.BudgetUsed = 1
		}
		out = append(out, st)
	}

	// Covertness gates are floors, not budgets: the observed p-value (ppm
	// gauge, scaled back to [0,1]) must stay at or above alpha. A negative
	// gauge means the observer has not evaluated yet — pending, not violated,
	// so a tail early in a run doesn't scream before the evidence is in.
	if s.CovertnessAlpha > 0 {
		floor := func(name, key string) {
			ppm := cur.Counters[key]
			p := float64(ppm) / 1e6
			out = append(out, GateStatus{
				Name:     name,
				Value:    p,
				Limit:    s.CovertnessAlpha,
				Violated: ppm >= 0 && p < s.CovertnessAlpha,
			})
		}
		floor("covert_timing_p", "covert_timing_p_ppm")
		floor("covert_length_p", "covert_length_p_ppm")
	}
	return out
}
