package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"argus/internal/fleetcoord"
	"argus/internal/load"
	"argus/internal/slo"
)

// capacityOpts carries the -capacity flag group from main into runCapacity.
type capacityOpts struct {
	procs  int
	start  float64
	tol    float64
	trials int
	dur    time.Duration
	out    string
	quiet  bool
}

// capacityDoc is the JSON document -capacity emits: the measured search and
// the closed warm wave that preceded it, as the measurement it is.
type capacityDoc struct {
	Profile      string  `json:"profile"`
	Procs        int     `json:"procs"`
	Cores        int     `json:"cores"`
	TrialSeconds float64 `json:"trial_seconds"`
	WarmSessions int64   `json:"warm_sessions"`
	WarmSeconds  float64 `json:"warm_seconds"`
	// WarmByLevel splits the warm wave's discoveries by the level they
	// resolved at ("1".."3"): the fleet's level mix, which must not depend on
	// where the fleet is placed.
	WarmByLevel map[string]uint64    `json:"warm_sessions_by_level"`
	Search      *load.CapacityResult `json:"search"`
	// ProcErrors aggregates children that died mid-search (multi-process
	// runs only); each is also folded into its trial's violations.
	ProcErrors []string `json:"proc_errors,omitempty"`
}

// setWarm records the warm wave's window in the document.
func (d *capacityDoc) setWarm(warm *slo.Report) {
	d.WarmSessions, d.WarmSeconds = warm.Totals.Armed, warm.Totals.WallSeconds
	d.WarmByLevel = map[string]uint64{}
	for lvl, q := range warm.Latency {
		d.WarmByLevel[lvl] = q.Count
	}
}

// runCapacity searches for the knee: the highest open-loop offered rate
// (sessions/s) the fleet sustains under the trial SLO. With procs <= 1 the
// fleet lives in this process; otherwise fleetcoord shards it across child
// processes — this binary again, as `argus-load shard` — and each trial is a
// merged cross-process verdict.
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
	doc := capacityDoc{Profile: name, Procs: max(1, o.procs), Cores: runtime.GOMAXPROCS(0), TrialSeconds: dur.Seconds()}

	var trial load.TrialFunc
	if o.procs <= 1 {
		cs, err := load.OpenCapacitySession(p, dur)
		if err != nil {
			fmt.Fprintf(os.Stderr, "argus-load: %v\n", err)
			return 2
		}
		defer cs.Close()
		doc.setWarm(cs.Warm)
		trial = cs.Trial
	} else {
		work, err := os.MkdirTemp("", "argus-fleet-*")
		if err != nil {
			fmt.Fprintf(os.Stderr, "argus-load: %v\n", err)
			return 2
		}
		defer os.RemoveAll(work)
		co, err := fleetcoord.Launch(fleetcoord.Config{
			Procs:   o.procs,
			Profile: p,
			WorkDir: work,
			Logf:    logf,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "argus-load: %v\n", err)
			return 2
		}
		defer co.Close()
		warm, err := co.Sweep()
		if err != nil {
			fmt.Fprintf(os.Stderr, "argus-load: warm sweep: %v\n", err)
			return 2
		}
		doc.setWarm(warm)
		trial = func(offered float64) (load.Trial, error) {
			v, err := co.Trial(offered, dur)
			if err != nil {
				return load.Trial{}, err
			}
			doc.ProcErrors = append(doc.ProcErrors, v.ProcErrors...)
			return v.Trial, nil
		}
	}

	res, err := load.SearchCapacity(cfg, trial)
	if err != nil {
		fmt.Fprintf(os.Stderr, "argus-load: capacity search: %v\n", err)
		return 2
	}
	doc.Search = res

	w := os.Stdout
	if o.out != "" {
		f, err := os.Create(o.out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "argus-load: %v\n", err)
			return 2
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
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
		fmt.Fprintf(os.Stderr, "argus-load: capacity: %s over %d procs (%d trials)\n",
			verdict, doc.Procs, len(res.Trials))
	}
	return 0
}
