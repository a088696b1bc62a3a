// Package load is the load-generation and soak subsystem: it drives
// configurable fleets of L1/L2/L3 discovery sessions over the concurrent
// transports (transport.Mesh, transport.UDP) and asserts service-level
// objectives from internal/obs snapshots, so throughput or latency
// collapses in the engines, mailboxes, or verify cache surface as test and
// CI failures rather than anecdotes.
//
// # Topology
//
// A fleet is sharded into independent "cells": each cell is one broadcast
// domain (a Mesh, or a UDP peer group) holding SubjectsPerCell subject
// engines and ObjectsPerCell object engines. Cells model the paper's
// proximity scoping — discovery is radio-range-local, so an enterprise
// deployment is many small broadcast domains, not one giant one — and keep
// the harness clear of the object-side session-table bound
// (core's maxPendingSessions) while still multiplying to arbitrarily many
// concurrent sessions. All cells share one backend (single trust anchor) and
// one obs.Registry; each cell keeps its own credential verify cache.
//
// # Driver
//
// One Driver (driver.go) arms rounds, credits completions and owns the
// argus_load_* families, for a profile run here and for a capacity
// session's trials. Closed loop, it arms synchronized waves: every subject
// runs one discovery round per wave, and the next wave starts only when the
// previous has drained (think time in between). Wave 0 runs against a cold verify cache; later
// waves are warm. Open loop, it instead issues rounds as a Poisson arrival
// process at Rate rounds/second over the subject pool, so queueing is driven
// by offered load rather than by completion.
//
// # Accounting
//
// One armed session = one subject↔object handshake expected to complete.
// Expectations are derived from ground truth the harness owns: a live
// subject discovers every object in its cell exactly once per round (the
// engines' duplicate suppression makes delivery exactly-once per round); a
// revoked subject discovers only the Level 1 objects. Completions are
// observed via Subject.OnDiscovery, so zero lost completions is asserted
// by exact counting, not by sampling. Mid-run churn (revocations pushed
// through internal/update agents, subjects added live) and optional fault
// injection (reusing the netsim.FaultModel knobs at the transport seam)
// perturb the run without changing the arithmetic.
package load

import (
	"fmt"
	"sort"
	"time"

	"argus/internal/backend"
	"argus/internal/core"
	"argus/internal/netsim"
	"argus/internal/obs"
	"argus/internal/slo"
)

// Publisher receives live progress frames from a running profile — wave and
// churn summaries, the final report, and registry snapshots at phase
// boundaries. Satisfied by *realtime.Hub; nil disables publishing.
type Publisher interface {
	PublishSnapshot()
	PublishData(kind string, v any) error
}

// Transport selects the concurrent transport a profile runs over.
type Transport string

const (
	// TransportMesh runs every cell as an in-memory transport.Mesh.
	TransportMesh Transport = "mesh"
	// TransportUDP runs every cell as real UDP sockets on loopback.
	TransportUDP Transport = "udp"
)

// Profile fully describes one load run: fleet shape, driver, churn, faults,
// and the SLOs the run is held to.
type Profile struct {
	Name        string
	Description string
	Transport   Transport

	// Fleet shape: Cells broadcast domains of SubjectsPerCell subjects and
	// ObjectsPerCell objects each. Levels is the repeating level pattern
	// assigned to objects in creation order (default all L2). Fellow puts
	// every subject in the covert group served by L3 objects, so L3
	// services resolve at L3; without it they resolve at their L2 face.
	Cells           int
	SubjectsPerCell int
	ObjectsPerCell  int
	Levels          []backend.Level
	Fellow          bool

	// Closed-loop driver: Waves discovery rounds per subject, separated by
	// ThinkTime once the previous wave has fully drained.
	Waves     int
	ThinkTime time.Duration
	// ArmWindow, when > 0, paces each wave's round starts uniformly across
	// the window instead of firing every subject at once. A wave of N
	// handshakes needs ~N×(crypto cost) of CPU no matter how it is armed; an
	// instantaneous burst converts all of that into queue wait for the
	// last-served sessions, which on a big wave can exceed SessionTTL and
	// turn a healthy run into expiry/restart churn. Pacing bounds per-session
	// queue wait at roughly (compute time − window) without stretching the
	// wave, which stays compute-bound.
	ArmWindow time.Duration

	// Open-loop driver (replaces the wave loop when Rate > 0): Poisson
	// arrivals at Rate rounds/second across the subject pool for Duration.
	// An arrival finding every subject busy is counted as skipped, never
	// queued — the defining property of open-loop load.
	Rate     float64
	Duration time.Duration

	// Churn, applied between the last two waves (closed loop only):
	// RevokeFrac of each cell's subjects are revoked (backend bookkeeping +
	// signed update notifications pushed to their cell's objects), and
	// AddFrac new subjects per cell are registered, provisioned, and join
	// the final wave with cold credentials.
	RevokeFrac float64
	AddFrac    float64

	// CrashFrac crashes that fraction of each cell's objects for the
	// duration of the churn window: they drop offline at the cell's update
	// distributor before the revocations are pushed, so their notifications
	// park in the per-destination dead-letter queue and are redelivered in
	// order when the harness reattaches them — after the live population has
	// effectuated. Exercises the DLQ contract (DESIGN.md §11) under load;
	// requires revocation churn (closed loop, RevokeFrac > 0).
	CrashFrac float64

	// Faults, when active, wraps every engine endpoint in a lossy layer
	// reusing the netsim fault-model knobs (see WrapFaults). Fault runs
	// need Retry enabled to stay complete.
	Faults    netsim.FaultModel
	FaultSeed int64

	// RoamFrac migrates that fraction of each cell's subjects to the next
	// cell at every wave boundary after the first (closed loop only, no
	// churn): the roamer's old radio powers down, a fresh engine joins the
	// destination segment with re-issued credentials, and it re-discovers a
	// full cell of objects that have never verified it — so verify-cache
	// locality effects surface as per-wave miss deltas. Requires Cells >= 2
	// and Waves >= 2.
	RoamFrac float64

	// SleepyFrac duty-cycles that fraction of each cell's objects (the first
	// k per cell): their radios listen only during the first SleepAwake of
	// every SleepPeriod, so broadcasts landing in the sleep window are
	// silently missed and must be recovered by the retry schedule. validate
	// proves the schedule's transmission offsets cover every sleep phase, so
	// sleepy fleets stay lossless by construction.
	SleepyFrac  float64
	SleepPeriod time.Duration // default 260ms
	SleepAwake  time.Duration // default 150ms

	// Adversary personas, driven against every cell after the honest waves
	// drain (closed loop only, no fault injection — their accounting is
	// exact). ReplayTargets wiretaps that many secure awake objects per cell
	// during the waves and replays the captured transcripts against them;
	// SybilRounds floods each cell that many times with discovery traffic
	// from rogue-provisioned identities.
	ReplayTargets int
	SybilRounds   int

	// Observer installs the passive crowd observer on every secure object:
	// true Level 2 objects feed the "plain" population and Level 3 objects
	// the "covert" one, so with Fellow false (every L3 answer is a cover-up)
	// the two populations must be statistically indistinguishable on timing
	// and length — the paper's Case-7 covertness claim, gated by
	// SLO.CovertnessAlpha. Sample bounds default to the observer's own
	// (min 50, max 4×min).
	Observer           bool
	ObserverMinSamples int
	ObserverMaxSamples int

	// BreakScoping deliberately sabotages the covertness countermeasures:
	// every engine speaks wire.V20 (whose L3 objects answer non-fellows with
	// the covert variant — the composition leak of §VI-B) and covert
	// variants' profiles are inflated past the fleet-wide pad, so their
	// answers are length-distinguishable. Observer runs use it to prove the
	// statistical gate actually fires on a leaky deployment.
	BreakScoping bool

	// Retry is installed on every engine. SessionTTL doubles as the drain
	// horizon for leak checks.
	Retry core.RetryPolicy

	// Seed drives every harness random choice (churn victim selection,
	// open-loop arrivals); fixed seed = fixed schedule.
	Seed int64

	// DrainTimeout is the per-wave completion deadline; sessions still
	// missing when it expires are counted lost.
	DrainTimeout time.Duration

	// SLO is asserted over the finished run's report.
	SLO slo.SLO

	// Live observability hooks. Registry, when non-nil, receives all run
	// telemetry instead of a fresh private registry, so an obs endpoint can
	// serve the run's metrics while it executes. Tracer, when non-nil, is
	// wired into the subject engines so discovery spans stream to live
	// subscribers. Events, when non-nil, receives progress frames and
	// snapshot frames at phase boundaries.
	Registry *obs.Registry
	Tracer   *obs.Tracer
	Events   Publisher

	// Logf, when set, receives progress lines (plug in t.Logf or log.Printf).
	Logf func(format string, args ...any)
}

// Subjects returns the initial fleet-wide subject count.
func (p *Profile) Subjects() int { return p.Cells * p.SubjectsPerCell }

// Objects returns the fleet-wide object count.
func (p *Profile) Objects() int { return p.Cells * p.ObjectsPerCell }

// ObjectLevel returns the visibility level of the fleet's i-th object (cell
// c's k-th is c·ObjectsPerCell + k): Levels repeats in creation order, and an
// empty pattern is all Level 2.
func (p *Profile) ObjectLevel(i int) backend.Level {
	if len(p.Levels) == 0 {
		return backend.L2
	}
	return p.Levels[i%len(p.Levels)]
}

// quiesceDeadline bounds the wait for the fleet's session tables to empty:
// the session TTL (the engines' 8 s default when the policy leaves it unset)
// plus slack.
func (p *Profile) quiesceDeadline() time.Duration {
	ttl := p.Retry.SessionTTL
	if ttl <= 0 {
		ttl = 8 * time.Second
	}
	return ttl + 3*time.Second
}

func (p *Profile) logf(format string, args ...any) {
	if p.Logf != nil {
		p.Logf(format, args...)
	}
}

// withDefaults fills zero fields with workable values.
func (p Profile) withDefaults() Profile {
	if p.Transport == "" {
		p.Transport = TransportMesh
	}
	if p.Cells <= 0 {
		p.Cells = 1
	}
	if p.SubjectsPerCell <= 0 {
		p.SubjectsPerCell = 1
	}
	if p.ObjectsPerCell <= 0 {
		p.ObjectsPerCell = 1
	}
	if p.Waves <= 0 {
		p.Waves = 1
	}
	if !p.Retry.Enabled() {
		p.Retry = core.RetryPolicy{
			Que1Retries: 2, Que2Retries: 3,
			Timeout: 2 * time.Second, SessionTTL: 5 * time.Second,
		}
	}
	if p.DrainTimeout <= 0 {
		p.DrainTimeout = 60 * time.Second
	}
	if p.SleepyFrac > 0 {
		if p.SleepPeriod <= 0 {
			p.SleepPeriod = 260 * time.Millisecond
		}
		if p.SleepAwake <= 0 {
			p.SleepAwake = 150 * time.Millisecond
		}
	}
	return p
}

// sleepyPerCell is how many of a cell's objects the profile duty-cycles.
func (p *Profile) sleepyPerCell() int {
	if p.SleepyFrac <= 0 {
		return 0
	}
	return int(p.SleepyFrac * float64(p.ObjectsPerCell))
}

// replayIndices picks which of cell ci's objects are wiretapped and replayed:
// secure only (public objects take no QUE2) and never sleepy (a duty-cycled
// radio may miss injected frames, which would falsify the exact
// injected-vs-counted accounting, not the defense). Targets are taken from
// the end of the cell so the sleepy prefix never collides.
func (p *Profile) replayIndices(ci int) (map[int]bool, error) {
	out := make(map[int]bool, p.ReplayTargets)
	if p.ReplayTargets <= 0 {
		return out, nil
	}
	need := p.ReplayTargets
	for k := p.ObjectsPerCell - 1; k >= p.sleepyPerCell() && need > 0; k-- {
		if p.ObjectLevel(ci*p.ObjectsPerCell+k) == backend.L1 {
			continue
		}
		out[k] = true
		need--
	}
	if need > 0 {
		return nil, fmt.Errorf("load: cell %d has only %d secure awake objects, need %d replay targets",
			ci, p.ReplayTargets-need, p.ReplayTargets)
	}
	return out, nil
}

// dutyCycleCovered proves that a retransmission schedule always reaches a
// duty-cycled receiver regardless of phase: the awake windows anchored at
// each transmission offset (mod period) must cover the whole circle, which
// holds iff the largest circular gap between consecutive offsets is smaller
// than the awake window.
func dutyCycleCovered(offsets []time.Duration, period, awake time.Duration) bool {
	mods := make([]time.Duration, len(offsets))
	for i, o := range offsets {
		mods[i] = o % period
	}
	sort.Slice(mods, func(i, j int) bool { return mods[i] < mods[j] })
	maxGap := period - mods[len(mods)-1] + mods[0] // wraparound gap
	for i := 1; i < len(mods); i++ {
		if g := mods[i] - mods[i-1]; g > maxGap {
			maxGap = g
		}
	}
	return maxGap < awake
}

// validate rejects shapes the engines cannot serve losslessly.
func (p *Profile) validate() error {
	switch p.Transport {
	case TransportMesh, TransportUDP:
	default:
		return fmt.Errorf("load: unknown transport %q", p.Transport)
	}
	// An object keeps one session per subject round until SessionTTL; the
	// engine refuses new handshakes past its session-table cap (256). Bound
	// the per-object session pressure so refusals — which would surface as
	// lost completions — cannot happen by construction.
	if p.SubjectsPerCell > 64 {
		return fmt.Errorf("load: SubjectsPerCell %d > 64 would risk the object session-table cap; add cells instead", p.SubjectsPerCell)
	}
	if p.Rate > 0 && (p.RevokeFrac > 0 || p.AddFrac > 0) {
		return fmt.Errorf("load: churn is a closed-loop feature (Rate must be 0)")
	}
	if p.CrashFrac < 0 || p.CrashFrac > 1 {
		return fmt.Errorf("load: CrashFrac %v outside [0,1]", p.CrashFrac)
	}
	if p.CrashFrac > 0 && p.RevokeFrac <= 0 {
		return fmt.Errorf("load: CrashFrac needs revocation churn to park (RevokeFrac > 0)")
	}
	if p.Faults.Active() && !p.Retry.Enabled() {
		return fmt.Errorf("load: fault injection requires an enabled retry policy")
	}
	for _, l := range p.Levels {
		if !l.Valid() {
			return fmt.Errorf("load: invalid level %d in Levels", int(l))
		}
	}

	churn := p.RevokeFrac > 0 || p.AddFrac > 0 || p.CrashFrac > 0
	if p.RoamFrac < 0 || p.RoamFrac > 1 {
		return fmt.Errorf("load: RoamFrac %v outside [0,1]", p.RoamFrac)
	}
	if p.RoamFrac > 0 {
		if p.Rate > 0 {
			return fmt.Errorf("load: roaming is a closed-loop feature (Rate must be 0)")
		}
		if p.Cells < 2 || p.Waves < 2 {
			return fmt.Errorf("load: roaming needs Cells >= 2 and Waves >= 2 (got %d cells, %d waves)", p.Cells, p.Waves)
		}
		if churn {
			return fmt.Errorf("load: roaming cannot be combined with churn (the expectation arithmetic would entangle)")
		}
	}

	if p.SleepyFrac < 0 || p.SleepyFrac > 1 {
		return fmt.Errorf("load: SleepyFrac %v outside [0,1]", p.SleepyFrac)
	}
	if p.SleepyFrac > 0 {
		if !p.Retry.Enabled() || p.Retry.Que1Retries == 0 || p.Retry.Que2Retries == 0 {
			return fmt.Errorf("load: sleepy objects need retransmission on both legs (Que1Retries and Que2Retries > 0)")
		}
		if churn {
			return fmt.Errorf("load: sleepy objects would sleep through update pushes; no churn")
		}
		if p.SleepAwake <= 0 || p.SleepAwake >= p.SleepPeriod {
			return fmt.Errorf("load: need 0 < SleepAwake (%v) < SleepPeriod (%v)", p.SleepAwake, p.SleepPeriod)
		}
		// Losslessness proof: every sleep phase must be covered by some
		// transmission of each leg, and the session must outlive the
		// worst-case two-leg recovery. QUE2 retransmissions are timed from
		// the QUE2 itself, so that leg's schedule starts at offset 0. QUE1
		// rebroadcasts are timed from the round's last activity (an awake
		// neighbour's answer defers them), not from the broadcast, so only
		// the rebroadcast offsets count — and a subject sends them in two
		// cases only, which between them are every round a sleepy object is
		// owed here. (1) The object is an expected peer — it answered one of
		// the subject's last eight rounds — and silent: the chain runs until
		// its discovery is recorded. (2) The round is blind: a subject's
		// first, in which the whole fleet meets its cells, runs the chain
		// whoever answers. A roamer is case 1 by proxy: its ledger still
		// expects the cell it left, and that silence keeps the chain running
		// in the cell it entered. Both legs hold while the subject's
		// round-trip horizon SRTT + 4·RTTVAR stays at or under Timeout: a
		// larger horizon stretches the offsets the proof reasons over.
		q1 := p.Retry.Schedule(p.Retry.Que1Retries)
		q2 := p.Retry.Schedule(p.Retry.Que2Retries)
		if !dutyCycleCovered(q1[1:], p.SleepPeriod, p.SleepAwake) {
			return fmt.Errorf("load: QUE1 rebroadcast schedule %v does not cover a %v/%v duty cycle; a sleepy object could miss every broadcast",
				q1[1:], p.SleepAwake, p.SleepPeriod)
		}
		if !dutyCycleCovered(q2, p.SleepPeriod, p.SleepAwake) {
			return fmt.Errorf("load: QUE2 schedule %v does not cover a %v/%v duty cycle; a sleepy object could miss every QUE2",
				q2, p.SleepAwake, p.SleepPeriod)
		}
		ttl := p.Retry.SessionTTL
		if ttl <= 0 {
			ttl = 8 * time.Second
		}
		if tail := q1[len(q1)-1] + q2[len(q2)-1]; ttl <= tail {
			return fmt.Errorf("load: SessionTTL %v does not outlive the worst-case sleepy recovery tail %v", ttl, tail)
		}
	}

	if p.ReplayTargets > 0 || p.SybilRounds > 0 {
		if p.Rate > 0 {
			return fmt.Errorf("load: adversary personas are a closed-loop feature (Rate must be 0)")
		}
		if p.Faults.Active() {
			return fmt.Errorf("load: adversary personas need a fault-free transport (their accounting is exact)")
		}
	}
	for ci := 0; ci < p.Cells; ci++ {
		if _, err := p.replayIndices(ci); err != nil {
			return err
		}
	}

	if p.Observer || p.BreakScoping {
		if p.Fellow {
			return fmt.Errorf("load: observer and broken-scoping runs need Fellow false (every L3 answer must be a cover-up)")
		}
	}
	if p.Observer {
		var hasL2, hasL3 bool
		for _, l := range p.Levels {
			hasL2 = hasL2 || l == backend.L2
			hasL3 = hasL3 || l == backend.L3
		}
		if !hasL2 || !hasL3 {
			return fmt.Errorf("load: the observer compares L2 against L3 populations; Levels must contain both")
		}
	}
	return nil
}

// Profiles returns the built-in profile registry keyed by name, each
// profile's SLO block filled from slo.Profiles (where argus-ops reads it
// too). The returned map is freshly built; callers may mutate their copy.
func Profiles() map[string]Profile {
	quickRetry := core.RetryPolicy{
		Que1Retries: 3, Que2Retries: 3,
		Timeout: 100 * time.Millisecond, SessionTTL: time.Second,
	}
	ps := []Profile{
		{
			Name:        "ci-soak",
			Description: "deterministic short soak for CI under -race: 96 subjects × 24 objects over Mesh, 3 waves (cold → warm → post-churn), revocation + live-add churn with a crash-windowed DLQ redelivery",
			Transport:   TransportMesh,
			Cells:       12, SubjectsPerCell: 8, ObjectsPerCell: 2,
			Levels: []backend.Level{backend.L1, backend.L2, backend.L3, backend.L2},
			Fellow: true,
			Waves:  3, ThinkTime: 50 * time.Millisecond,
			RevokeFrac: 0.25, AddFrac: 0.25,
			CrashFrac:    0.5, // one of each cell's two objects rides the DLQ
			Retry:        quickRetry,
			Seed:         1,
			DrainTimeout: 30 * time.Second,
		},
		{
			Name:        "standard",
			Description: "the headline Mesh soak: 10,000 subjects × 1,000 objects (500 cells), 20,000 concurrent sessions per wave, 3 waves with 10% revocation + 5% live-add churn",
			Transport:   TransportMesh,
			Cells:       500, SubjectsPerCell: 20, ObjectsPerCell: 2,
			Levels: []backend.Level{backend.L1, backend.L2, backend.L3, backend.L2},
			Fellow: true,
			Waves:  3, ThinkTime: 100 * time.Millisecond,
			// A 20k-session wave is ~12s of handshake crypto on one core;
			// pacing round starts across 12s keeps every session's compute
			// queue wait far inside the 10s SessionTTL (an instantaneous
			// burst pushes the tail past it, forcing expiry/restart churn).
			ArmWindow:  12 * time.Second,
			RevokeFrac: 0.10, AddFrac: 0.05,
			Retry: core.RetryPolicy{
				Que1Retries: 2, Que2Retries: 3,
				// SessionTTL must exceed the worst-case handshake completion
				// time or healthy sessions expire mid-handshake and churn
				// through expiry/restart recovery: a cold 20k-session wave is
				// ~12s of ECDSA on one core, so a 10s TTL sits inside the
				// compute backlog. The 4s Timeout keeps the initial RTO, which
				// no sample has stretched yet, clear of the same backlog.
				Timeout: 4 * time.Second, SessionTTL: 20 * time.Second,
			},
			Seed:         1,
			DrainTimeout: 180 * time.Second,
		},
		{
			Name:        "udp-smoke",
			Description: "small fleet over real UDP loopback sockets: 20 subjects × 8 objects in 4 cells, 2 waves",
			Transport:   TransportUDP,
			Cells:       4, SubjectsPerCell: 5, ObjectsPerCell: 2,
			Levels: []backend.Level{backend.L1, backend.L2, backend.L3, backend.L2},
			Fellow: true,
			Waves:  2, ThinkTime: 50 * time.Millisecond,
			Retry: core.RetryPolicy{
				Que1Retries: 3, Que2Retries: 3,
				Timeout: 250 * time.Millisecond, SessionTTL: 2 * time.Second,
			},
			Seed:         1,
			DrainTimeout: 30 * time.Second,
		},
		{
			Name:        "open-loop",
			Description: "Poisson arrivals at 400 rounds/s over 500 subjects × 100 objects for 5 s — queueing from offered load, skipped arrivals reported",
			Transport:   TransportMesh,
			Cells:       50, SubjectsPerCell: 10, ObjectsPerCell: 2,
			Levels: []backend.Level{backend.L1, backend.L2, backend.L3, backend.L2},
			Fellow: true,
			Rate:   400, Duration: 5 * time.Second,
			Retry:        quickRetry,
			Seed:         1,
			DrainTimeout: 30 * time.Second,
		},
		{
			Name:        "soak-faulty",
			Description: "400 subjects × 80 objects over Mesh with 5% loss, 5% duplication and 20 ms jitter injected at the transport seam; retransmission keeps the run complete",
			Transport:   TransportMesh,
			Cells:       40, SubjectsPerCell: 10, ObjectsPerCell: 2,
			Levels: []backend.Level{backend.L1, backend.L2, backend.L3, backend.L2},
			Fellow: true,
			Waves:  2, ThinkTime: 100 * time.Millisecond,
			Faults: netsim.FaultModel{
				Loss: 0.05, Duplicate: 0.05, ReorderJitter: 20 * time.Millisecond,
			},
			FaultSeed:    7,
			Retry:        core.DefaultRetry(),
			Seed:         1,
			DrainTimeout: 60 * time.Second,
		},
		{
			Name:        "adversary-soak",
			Description: "hostile-scenario soak: 36 roaming subjects × 24 objects (one sleepy per cell) over Mesh, 3 waves, then transcript replay + Sybil floods against every cell with exact-delta accounting",
			Transport:   TransportMesh,
			Cells:       6, SubjectsPerCell: 6, ObjectsPerCell: 4,
			Levels: []backend.Level{backend.L1, backend.L2, backend.L3, backend.L2},
			Fellow: true,
			Waves:  3, ThinkTime: 30 * time.Millisecond,
			RoamFrac:   0.34, // 2 of 6 subjects per cell migrate at each of 2 boundaries
			SleepyFrac: 0.25, // the L1 object of each cell duty-cycles its radio
			// QUE1 rebroadcasts at {100, 300, 700} ms mod 260 = {100, 40, 180}: max
			// circular gap 120ms < 150ms awake; the QUE2 leg adds offset 0
			// (gap 80ms). Every sleep phase is covered (see validate).
			Retry: core.RetryPolicy{
				Que1Retries: 3, Que2Retries: 3,
				Timeout: 100 * time.Millisecond, SessionTTL: 4 * time.Second,
			},
			ReplayTargets: 1, SybilRounds: 1,
			Seed:         1,
			DrainTimeout: 30 * time.Second,
		},
		{
			Name:        "covert-observer",
			Description: "Case-7 covertness at load: 36 non-fellow subjects × 24 objects (half L2, half L3 answering with cover-ups) over Mesh, a passive crowd observer sampling timing and length, indistinguishability gated at alpha 1e-3",
			Transport:   TransportMesh,
			Cells:       6, SubjectsPerCell: 6, ObjectsPerCell: 4,
			Levels: []backend.Level{backend.L2, backend.L3},
			Fellow: false,
			Waves:  3, ThinkTime: 30 * time.Millisecond,
			Observer:           true,
			ObserverMinSamples: 150, // 216 QUE2→RES2 pairs per population over 3 waves
			ObserverMaxSamples: 400,
			Retry: core.RetryPolicy{
				Que1Retries: 3, Que2Retries: 3,
				Timeout: 100 * time.Millisecond, SessionTTL: 2 * time.Second,
			},
			Seed:         1,
			DrainTimeout: 30 * time.Second,
		},
	}
	slos := slo.Profiles()
	m := make(map[string]Profile, len(ps))
	for _, p := range ps {
		p.SLO = slos[p.Name]
		m[p.Name] = p
	}
	return m
}
