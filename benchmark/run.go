package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"argus/internal/obs"
)

// options of one workload run.
type options struct {
	seed    int64
	seconds int
	trace   bool
	outDir  string // span files go here
}

// setupRepeats is how often an untraced run sets the fleet up; each set-up is
// one window of setup_s. A traced run reports no set-up time and sets up once.
const setupRepeats = 5

// Guard rails: beyond these the generator or the host was the limit.
const (
	maxGenLateP99MS = 5.0
	minCoresShare   = 0.8 // of GOMAXPROCS, closed phase of warm and cold
)

// runWorkload sets the fleet up, drives it through the phases with churn
// beside or after them, tears it down and assembles the workload's result.
func runWorkload(wl workload, opt options) (*workloadResult, error) {
	// The host's speed is measured beside everything from here to the last
	// churn burst (calibrate.go).
	calib, err := startCalibrator()
	if err != nil {
		return nil, fmt.Errorf("calibrator: %w", err)
	}
	defer calib.stop()
	runStart := time.Now()
	var f *fleet
	var setupS []float64
	var st setupStats
	repeats := setupRepeats
	if opt.trace {
		repeats = 1
	}
	for i := 0; i < repeats; i++ {
		if f != nil {
			f.close()
		}
		if f, st, err = buildFleet(wl, opt.seed); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, st.seconds)
	}
	setupEnd := time.Now()
	d := newDriver(f)
	f.tap.lossOn.Store(wl.loss > 0)
	// core.pending_sessions_peak is a per-layer figure: an untraced run is not
	// given the extra goroutine.
	var peak atomic.Int64
	stopSampler := func() {}
	if opt.trace {
		stopSampler = d.samplePending(&peak)
	}

	d.warmup()
	measuredFrom := time.Now()
	start := f.counters()

	// Churn runs beside the phases on the churn workload. Only the ops due in
	// its open phase go into churn_apply_* and ok_share: the closed phase
	// saturates the process on purpose, and what an op waits for there is
	// the scheduler.
	churn := newChurnStats()
	openLen, closedLen := part(opt.seconds, openPart), part(opt.seconds, closedPart)
	if opt.trace {
		openLen, closedLen = 3*part(opt.seconds, traceStepPart), 2*part(opt.seconds, traceClosedPart)
	}
	stopChurn := make(chan struct{})
	churnErr := make(chan error, 1)
	if wl.churn {
		gap := time.Duration(float64(time.Second) / churnRate)
		picks := churnSchedule(opt.seed, int((openLen+closedLen)/gap)+1)
		go func() { churnErr <- f.runChurn(picks, gap, int(openLen/gap), stopChurn, churn) }()
	}

	// The other workloads apply their ops to the idle fleet instead, in three
	// bursts — before, between and after the phases — so that the median op
	// does not hang on the host's speed during one particular second. Pushes
	// are not retransmitted, so the receive-side loss is off meanwhile.
	burst := func() error { return nil }
	if !wl.churn {
		picks := churnSchedule(opt.seed, nCells)
		burst = func() error {
			f.tap.lossOn.Store(false)
			defer f.tap.lossOn.Store(wl.loss > 0)
			n, err := f.churnBurst(picks, part(opt.seconds, tailPart)/3, churn)
			picks = picks[n:]
			return err
		}
	}
	if err := burst(); err != nil {
		return nil, fmt.Errorf("churn burst: %w", err)
	}
	phases := d.measuredPhases
	if opt.trace {
		phases = d.tracedPhases
	}
	ph, err := phases(opt, burst)
	if err == nil {
		err = burst()
	}
	if err != nil {
		return nil, fmt.Errorf("churn burst: %w", err)
	}
	measuredTo := time.Now()
	calib.stop()
	close(stopChurn)
	if wl.churn {
		if err := <-churnErr; err != nil {
			return nil, fmt.Errorf("churn: %w", err)
		}
	}
	d.drain()
	f.finalRounds()

	all := f.counters().since(start)
	drops := f.mailboxDrops()
	stopSampler()
	d.stop()
	f.close()

	res := &workloadResult{Why: wl.Why, Valid: true, Correct: true, Failures: make(map[string]int)}
	res.Attempted = ph.attempted + churn.attempted + churn.uncounted.attempted
	for _, failed := range []map[string]int{ph.failed, churn.failed, churn.uncounted.failed} {
		for k, v := range failed {
			res.Failures[k] += v
		}
	}
	for k, v := range d.violations { // the fleet has stopped: no writer is left
		res.Correct = false
		res.Notes = append(res.Notes, fmt.Sprintf("oracle violation: %s ×%d", k, v))
		if _, counted := res.Failures[k]; !counted {
			res.Failures[k] = v
		}
	}
	sort.Strings(res.Notes)
	res.Failed = total(res.Failures)
	if wl.loss > 0 {
		res.Notes = append(res.Notes, fmt.Sprintf("the loss wrapper dropped %d of %d frames (%.2f %%)",
			all.tap.lost, all.tap.lost+all.tap.deliveries, 100*float64(all.tap.lost)/math.Max(float64(all.tap.lost+all.tap.deliveries), 1)))
	}

	var lateP99, lateMax float64
	if late := sortedCopy(d.lateMS); len(late) > 0 {
		lateP99, lateMax = percentile(late, 99), late[len(late)-1]
	}
	if lateP99 > maxGenLateP99MS {
		res.Valid = false
		res.InvalidReasons = append(res.InvalidReasons, fmt.Sprintf("generator ran late: p99 %.2f ms > %.0f ms", lateP99, maxGenLateP99MS))
	}
	if need := minCoresShare * float64(runtime.GOMAXPROCS(0)); (wl.Name == "warm" || wl.Name == "cold") && ph.closedCores < need {
		res.Valid = false
		res.InvalidReasons = append(res.InvalidReasons, fmt.Sprintf("closed phase used %.2f cores < %.2f: the host, not the program, was the limit", ph.closedCores, need))
	}

	// churn_apply_p50_ms: the median of each group of churnGroup consecutive
	// ops, and of those the quiet quartile.
	var applyGroups []float64
	for i := 0; i+churnGroup <= len(churn.applyMS); i += churnGroup {
		applyGroups = append(applyGroups, median(churn.applyMS[i:i+churnGroup]))
	}
	var applyP90 float64
	if a := sortedCopy(churn.applyMS); len(a) > 0 {
		applyP90 = percentile(a, 90)
	}

	m := ph.metrics
	hostSpeed := calib.speed(measuredFrom, measuredTo)
	if !opt.trace {
		m["setup_s"] = windowQuiet("s", setupS, quietLower, len(setupS))
		m["heap_kb_per_engine"] = scalar("KiB", st.heapKB, nEngines)
		m["churn_apply_p50_ms"] = windowQuiet("ms", applyGroups, quietLower, len(churn.applyMS))
		// The two tail figures of the issue's list are measured like the rest
		// but carry no bound: their run-to-run spread is wider than the
		// largest bound the contract allows (README, "Noise").
		res.Ungated = map[string]windowed{
			"lat_p95_ms":         m["lat_p95_ms"],
			"churn_apply_p90_ms": scalar("ms", applyP90, len(churn.applyMS)),
		}
		delete(m, "lat_p95_ms")

		// Every time-valued figure is restated at the reference speed, with
		// the speed of the span it was measured in; the result keeps both.
		res.HostSpeed = map[string]windowed{
			"setup":  calib.speed(runStart, setupEnd),
			"open":   calib.speed(ph.open.from, ph.open.to),
			"closed": calib.speed(ph.closed.from, ph.closed.to),
			"run":    hostSpeed,
		}
		res.AsMeasured = make(map[string]float64)
		for _, r := range []struct {
			name, span string
			rate       bool
		}{
			{"setup_s", "setup", false},
			{"lat_p50_ms", "open", false},
			{"sat_sessions_s", "closed", true},
			{"cpu_us_per_session", "closed", false},
			{"churn_apply_p50_ms", "run", false},
		} {
			res.AsMeasured[r.name] = m[r.name].Value
			m[r.name] = restated(m[r.name], res.HostSpeed[r.span].Value, r.rate)
		}
		res.EndToEnd = m
		hs := res.HostSpeed
		res.Notes = append(res.Notes, fmt.Sprintf("host speed, signature pairs/s: set-up %.0f, open %.0f, closed %.0f, run %.0f; time-valued figures restated at %.0f",
			hs["setup"].Value, hs["open"].Value, hs["closed"].Value, hs["run"].Value, referenceSpeed))
		res.Notes = append(res.Notes, fmt.Sprintf("driver.gen_late_p99_ms %.3f, driver.gen_late_max_ms %.3f, driver.cpu_cores_used (closed) %.2f", lateP99, lateMax, ph.closedCores), ph.closedLat)
		return res, checkMetrics(m, endToEndMetrics)
	}

	// The verify caches are read over the untraced closed phase, like the
	// budget they feed. (The blind QUE1 rebroadcasts make L1 objects resend
	// RES1, whose PROF the subject then looks up again: on `cold` those
	// repeats are its only hits, ≈10 % of its lookups.)
	n := math.Max(float64(ph.budgetSessions), 1)
	lookups := float64(ph.budget.hits + ph.budget.misses)
	m["cert.vcache_hit_ratio"] = scalar("share", float64(ph.budget.hits)/math.Max(lookups, 1), int(lookups))
	m["cert.vcache_lookups_per_session"] = scalar("count", lookups/n, int(n))

	// Counts per session over everything measured, from the wrappers and (†)
	// the shared registry.
	sessions := math.Max(float64(ph.sessions), 1)
	per := func(unit string, v float64) windowed { return scalar(unit, v/sessions, int(sessions)) }
	m["suite.ops_per_session"] = per("count", all.family(obs.MCryptoOps))
	m["transport.deliveries_per_session"] = per("count", float64(all.tap.deliveries))
	m["transport.mailbox_drops"] = scalar("count", float64(drops), 0)
	m["core.retransmits_per_session"] = per("count", all.family(obs.MRetransmissions))
	m["core.sessions_expired_per_1k"] = per("count", 1000*all.family(obs.MSessionsExpired))
	m["core.que1_refused"] = scalar("count", all.family(obs.MObjectQue1, obs.L("result", "refused")), 0)
	m["core.pending_sessions_peak"] = scalar("count", float64(peak.Load()), 0)
	m["backend.revoke_us"] = scalar("us", median(churn.revokeUS), len(churn.revokeUS))
	m["backend.notified_per_revoke"] = scalar("count", median(churn.notified), len(churn.notified))
	m["backend.rekeyed_per_revoke"] = scalar("count", median(churn.rekeyed), len(churn.rekeyed))
	m["update.push_us"] = scalar("us", median(churn.pushUS), len(churn.pushUS))
	m["update.apply_p50_ms"] = scalar("ms", median(churn.lagMS), len(churn.lagMS))
	m["update.rejected"] = scalar("count", float64(f.updateRejected()), 0)
	m["driver.churn_apply_p90_ms"] = scalar("ms", applyP90, len(churn.applyMS))
	m["driver.fail_share"] = scalar("share", float64(ph.openMissed)/math.Max(float64(ph.openAttempted), 1), ph.openAttempted)
	m["driver.gen_late_p99_ms"] = scalar("ms", lateP99, len(d.lateMS))
	m["driver.gen_late_max_ms"] = scalar("ms", lateMax, len(d.lateMS))
	m["driver.cpu_cores_used"] = scalar("cores", ph.closedCores, 0)
	m["driver.host_speed"] = hostSpeed

	// Micro figures and the budget, with the fleet gone and the host quiet.
	in := microInputs{subject: f.sampleSubject, object: f.sampleObject}
	for k := range in.frames {
		if p := f.tap.sample[k].Load(); p != nil {
			in.frames[k] = *p
		}
	}
	micro := runMicro(in)
	for k, v := range micro {
		m[k] = v
	}
	cpuUS := m["driver.cpu_us_per_session"].Value
	rows, explained := computeBudget(ph.budget, n, micro)
	res.Budget = rows
	m["budget.explained_us"] = scalar("us", explained, int(n))
	m["budget.residual_pct"] = scalar("%", 100*(cpuUS-explained)/cpuUS, int(n))
	m["budget.crypto_share"] = scalar("share", (rows["suite"]+rows["cert"])/cpuUS, int(n))
	res.PerLayer = m
	if err := checkMetrics(m, perLayerMetrics); err != nil {
		return nil, err
	}

	frames, rounds := f.tap.trace.collect()
	path := filepath.Join(opt.outDir, "trace-"+wl.Name+".json")
	if err := os.MkdirAll(opt.outDir, 0o755); err != nil {
		return nil, err
	}
	if err := writeSpans(path, wl.Name, frames, rounds); err != nil {
		return nil, fmt.Errorf("span file: %w", err)
	}
	res.Notes = append(res.Notes, fmt.Sprintf("%d spans in %s", len(rounds)+2*len(frames), path))
	return res, nil
}
