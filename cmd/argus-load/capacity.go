package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"argus/internal/load"
)

// capacityOpts carries the -capacity flag group from main into runCapacity.
type capacityOpts struct {
	start  float64
	tol    float64
	trials int
	dur    time.Duration
	out    io.Writer
	quiet  bool
}

// capacityDoc is the JSON document -capacity emits: the measured search and
// the closed warm wave that preceded it, as the measurement it is.
type capacityDoc struct {
	Profile      string  `json:"profile"`
	Cores        int     `json:"cores"`
	TrialSeconds float64 `json:"trial_seconds"`
	WarmSessions int64   `json:"warm_sessions"`
	WarmSeconds  float64 `json:"warm_seconds"`
	// WarmByLevel splits the warm wave's discoveries by the level they
	// resolved at ("1".."3"): the fleet's level mix.
	WarmByLevel map[string]uint64    `json:"warm_sessions_by_level"`
	Search      *load.CapacityResult `json:"search"`
}

// runCapacity searches for the knee: the highest open-loop offered rate
// (sessions/s) the fleet, built once in this process, sustains under the
// trial SLO.
func runCapacity(name string, p load.Profile, o capacityOpts) int {
	logf := func(string, ...any) {}
	if !o.quiet {
		logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	cfg := load.CapacityConfig{
		Start:     o.start,
		Tolerance: o.tol,
		MaxTrials: o.trials,
		Logf:      logf,
	}

	dur := o.dur
	if dur <= 0 {
		dur = 5 * time.Second
	}
	cs, err := load.OpenCapacitySession(p, dur)
	if err != nil {
		fmt.Fprintf(os.Stderr, "argus-load: %v\n", err)
		return 2
	}
	defer cs.Close()
	doc := capacityDoc{
		Profile:      name,
		Cores:        runtime.GOMAXPROCS(0),
		TrialSeconds: dur.Seconds(),
		WarmSessions: cs.Warm.Totals.Armed,
		WarmSeconds:  cs.Warm.Totals.WallSeconds,
		WarmByLevel:  map[string]uint64{},
	}
	for lvl, q := range cs.Warm.Latency {
		doc.WarmByLevel[lvl] = q.Count
	}

	res, err := load.SearchCapacity(cfg, cs.Trial)
	if err != nil {
		fmt.Fprintf(os.Stderr, "argus-load: capacity search: %v\n", err)
		return 2
	}
	doc.Search = res

	enc := json.NewEncoder(o.out)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fmt.Fprintf(os.Stderr, "argus-load: write report: %v\n", err)
		return 2
	}

	if res.Knee <= 0 {
		fmt.Fprintf(os.Stderr, "argus-load: capacity: nothing sustained (first fail %.1f sessions/s, bottleneck %s)\n",
			res.FirstFail, res.Bottleneck)
		return 1
	}
	if !o.quiet {
		verdict := fmt.Sprintf("knee %.1f sessions/s", res.Knee)
		if res.Bottleneck != "" {
			verdict += fmt.Sprintf(", bottleneck %s", res.Bottleneck)
		}
		fmt.Fprintf(os.Stderr, "argus-load: capacity: %s (%d trials)\n", verdict, len(res.Trials))
	}
	return 0
}
