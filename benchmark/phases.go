package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"argus/internal/backend"
)

// Phase shares of -seconds. The issue's shape is 25 s open : 15 s closed; the
// last slice carries the idle churn burst of the workloads without churn.
const (
	openPart   = 0.58
	closedPart = 0.34
	tailPart   = 0.08
)

// Traced runs split -seconds differently: three open steps (the
// latency-versus-rate curve), a closed phase with spans on, and one with
// spans off to take the tracing overhead against and draw the budget up for.
var traceRates = [...]float64{openRate / 2, openRate, openRate * 3 / 2}

const (
	// The shares leave a quarter of -seconds for the micro-benchmarks and the
	// span file, which the untraced run has not, so that either kind of run
	// takes about as long.
	traceStepPart   = 0.12 // each of three
	traceClosedPart = 0.16 // each of two
)

func part(seconds int, share float64) time.Duration {
	return time.Duration(float64(seconds) * share * float64(time.Second))
}

// phaseResult is what the measured phases of one run hand back.
type phaseResult struct {
	metrics map[string]windowed

	attempted, openAttempted int
	openMissed               int // open-phase rounds that failed or missed the objective
	failed                   map[string]int
	sessions                 int64   // completed in the recorded phases
	closedCores              float64 // CPU seconds per wall second, (untraced) closed phase
	closedLat                string  // closed-phase round latency, for the notes
	open, closed             span    // of the untraced run's two phases

	// Traced runs: the counts and completed sessions of the untraced closed
	// phase, the one the budget is drawn up for.
	budget         counters
	budgetSessions int64
}

// span is a stretch of wall time.
type span struct{ from, to time.Time }

func (p *phaseResult) absorb(rec *phaseRec, open bool) {
	p.attempted += rec.attempts
	for k, v := range rec.failed {
		p.failed[k] += v
	}
	if open {
		p.openAttempted += rec.attempts
		for _, w := range rec.lat {
			for _, ms := range w {
				if ms > float64(roundObjective)/1e6 { // a failed round sits at the limit
					p.openMissed++
				}
			}
		}
	}
	p.sessions += rec.sessions.Load()
}

// closedRates turns the closed phase's window-boundary readings into the
// per-window throughput and CPU figures, and the whole phase's allocations
// per session and processor use.
func closedRates(samples []sample) (sat, cpuUS []float64, allocs, cores float64) {
	for i := 1; i < len(samples); i++ {
		a, b := samples[i-1], samples[i]
		n := math.Max(float64(b.sessions-a.sessions), 1)
		sat = append(sat, n/b.at.Sub(a.at).Seconds())
		cpuUS = append(cpuUS, float64(b.cpu-a.cpu)/1e3/n)
	}
	first, last := samples[0], samples[len(samples)-1]
	n := math.Max(float64(last.sessions-first.sessions), 1)
	return sat, cpuUS, float64(last.mallocs-first.mallocs) / n, (last.cpu - first.cpu).Seconds() / last.at.Sub(first.at).Seconds()
}

// measuredPhases is the untraced run: one open phase at the fixed rate, one
// closed phase, cut into windows of windowLen. between runs while the fleet
// is idle between the two.
func (d *driver) measuredPhases(opt options, between func() error) (phaseResult, error) {
	res := phaseResult{metrics: make(map[string]windowed), failed: make(map[string]int)}
	m := res.metrics

	openLen := part(opt.seconds, openPart)
	open, bounds := d.openPhase(arrivalSchedule(opt.seed, openRate, openLen), openLen)
	res.absorb(open, true)
	res.open = span{open.from, open.to}
	lat := latencyWindows(open)
	m["lat_p50_ms"] = windowQuiet("ms", lat.p50, quietLower, lat.rounds)
	m["within_100ms_share"] = windowQuiet("share", lat.prompt, quietUpper, lat.rounds)
	m["ok_share"] = windowQuiet("share", lat.ok, quietUpper, lat.rounds)
	m["lat_p95_ms"] = windowQuiet("ms", lat.p95, quietLower, lat.rounds)
	// Counts per session do not hang on the host's speed: whole phase.
	first, last := bounds[0], bounds[len(bounds)-1]
	done := open.sessions.Load()
	sessions := math.Max(float64(done), 1)
	m["frames_per_session"] = scalar("count", float64(last.frames-first.frames)/sessions, int(done))
	m["bytes_per_session"] = scalar("B", float64(last.bytes-first.bytes)/sessions, int(done))

	if err := between(); err != nil {
		return res, err
	}
	closed, cs := d.closedPhase(part(opt.seconds, closedPart))
	res.absorb(closed, false)
	res.closed = span{closed.from, closed.to}
	sat, cpuUS, allocs, cores := closedRates(cs)
	res.closedCores = cores
	var all []float64
	for _, w := range closed.lat {
		all = append(all, w...)
	}
	all = sortedCopy(all)
	res.closedLat = fmt.Sprintf("closed-phase round latency p50 %.1f ms, p99 %.1f ms, max %.1f ms", percentile(all, 50), percentile(all, 99), percentile(all, 100))
	n := int(closed.sessions.Load())
	m["sat_sessions_s"] = windowQuiet("1/s", sat, quietUpper, n)
	m["cpu_us_per_session"] = windowQuiet("us", cpuUS, quietLower, n)
	m["allocs_per_session"] = scalar("count", allocs, n)
	return res, nil
}

// tracedPhases is the traced run: three open steps with spans on, a closed
// phase with spans on, and a closed phase with spans off. between runs while
// the fleet is idle after the open steps.
func (d *driver) tracedPhases(opt options, between func() error) (phaseResult, error) {
	res := phaseResult{metrics: make(map[string]windowed), failed: make(map[string]int)}
	m := res.metrics
	t := d.f.tap
	t.tracing.Store(true)

	stepLen := part(opt.seconds, traceStepPart)
	var all []float64
	for i, rate := range traceRates {
		rec, _ := d.openPhase(arrivalSchedule(opt.seed+int64(i), rate, stepLen), stepLen)
		res.absorb(rec, true)
		var lat []float64
		for _, w := range rec.lat {
			lat = append(lat, w...)
		}
		lat = sortedCopy(lat)
		tag := fmt.Sprintf(".r%.0f", rate)
		m["driver.lat_p50_ms"+tag] = scalar("ms", percentile(lat, 50), len(lat))
		m["driver.lat_p95_ms"+tag] = scalar("ms", percentile(lat, math.Min(95, float64(highestPercentile(len(lat))))), len(lat))
		all = append(all, lat...)
		if rate == openRate { // the rate every untraced run offers
			for lv := backend.L1; lv <= backend.L3; lv++ {
				m[fmt.Sprintf("core.session_ms.l%d", lv)] = scalar("ms", median(rec.sessionMS[lv]), len(rec.sessionMS[lv]))
			}
		}
	}
	all = sortedCopy(all)
	m["driver.lat_p99_ms"] = scalar("ms", percentile(all, math.Min(99, float64(highestPercentile(len(all))))), len(all))
	openEnd := t.now()
	if err := between(); err != nil {
		return res, err
	}

	closedLen := part(opt.seconds, traceClosedPart)
	traced, ts := d.closedPhase(closedLen)
	res.absorb(traced, false)
	_, tracedCPU, _, _ := closedRates(ts)
	t.tracing.Store(false)
	// Duplicates are only looked for while tracing, so they are set against
	// the sessions completed while tracing.
	m["core.duplicate_frames_per_session"] = scalar("count", float64(t.duplicates.Load())/math.Max(float64(res.sessions), 1), int(res.sessions))
	before := d.f.counters()
	plain, ps := d.closedPhase(closedLen)
	res.budget, res.budgetSessions = d.f.counters().since(before), plain.sessions.Load()
	res.absorb(plain, false)
	_, plainCPU, _, cores := closedRates(ps)
	res.closedCores = cores
	cpu := windowQuiet("us", plainCPU, quietLower, int(plain.sessions.Load()))
	m["driver.cpu_us_per_session"] = cpu
	m["driver.window_spread_pct"] = scalar("%", 100*cpu.spread(), len(plainCPU))
	tracedUS := quantile(tracedCPU, quietLower)
	m["driver.trace_overhead_pct"] = scalar("%", 100*(tracedUS-cpu.Value)/cpu.Value, int(traced.sessions.Load()))

	// Aggregates over every span of the open steps. (In the closed phase the
	// processors are oversubscribed, and a handler's wall time is mostly time
	// spent preempted.)
	frames, _ := t.trace.collect()
	var wait []float64
	type handled struct{ ns, n int64 }
	handle := make(map[[2]uint8]handled) // role, msg → time inside Handle
	var busy int64
	for _, fr := range frames {
		if fr.enter >= openEnd {
			break // sorted by entry
		}
		if fr.sent != 0 {
			wait = append(wait, float64(fr.enter-fr.sent)/1e3)
		}
		h := handle[[2]uint8{fr.role, fr.msg}]
		handle[[2]uint8{fr.role, fr.msg}] = handled{h.ns + fr.exit - fr.enter, h.n + 1}
		busy += fr.exit - fr.enter
	}
	wait = sortedCopy(wait)
	m["transport.mailbox_wait_p50_us"] = scalar("us", percentile(wait, 50), len(wait))
	m["transport.mailbox_wait_p99_us"] = scalar("us", percentile(wait, math.Min(99, float64(highestPercentile(len(wait))))), len(wait))
	m["transport.handler_busy_share"] = scalar("share", float64(busy)/float64(3*stepLen)/float64(runtime.GOMAXPROCS(0)), len(wait))
	for name, key := range map[string][2]uint8{
		"core.object_que1_us":  {roleObject, uint8(msgQUE1)},
		"core.object_que2_us":  {roleObject, uint8(msgQUE2)},
		"core.subject_res1_us": {roleSubject, uint8(msgRES1)},
		"core.subject_res2_us": {roleSubject, uint8(msgRES2)},
	} {
		// The mean, not the median: first answers and the cheap duplicates
		// that retransmissions bring share a type, and the median flips
		// between the two populations with their mix.
		h := handle[key]
		m[name] = scalar("us", float64(h.ns)/1e3/math.Max(float64(h.n), 1), int(h.n))
	}
	return res, nil
}
