package slo

import (
	"encoding/json"
	"io"
	"strconv"

	"argus/internal/obs"
)

// Report is the machine-readable result of one load run — the payload of
// BENCH_5.json. Every number is either harness ground truth (the
// expectation ledger) or pulled from the run's obs snapshot, so the report
// double-checks the telemetry pipeline against independent accounting.
type Report struct {
	Profile     string `json:"profile"`
	Description string `json:"description,omitempty"`
	Transport   string `json:"transport"`
	Seed        int64  `json:"seed"`

	Fleet  FleetStats  `json:"fleet"`
	Waves  []WaveStats `json:"waves,omitempty"`
	Totals Totals      `json:"totals"`

	// Latency maps level ("1".."3") to end-to-end handshake quantiles in
	// seconds (phase=total of argus_discovery_phase_seconds).
	Latency map[string]Quantiles `json:"latency"`

	// RedeliveryLag summarizes how long parked notifications waited in the
	// dead-letter queue before redelivery (crash-window churn only).
	RedeliveryLag *Quantiles `json:"redelivery_lag,omitempty"`

	// Counters summarizes the obs counter families the SLOs reference.
	Counters map[string]int64 `json:"counters"`

	// PredictedSubjectExpiries is the ledger's expected subject-side session
	// expiry count (revoked subjects' silently refused handshakes).
	PredictedSubjectExpiries int64 `json:"predicted_subject_expiries"`

	// Adversary ledgers the injected-vs-counted accounting of the replay and
	// Sybil personas (profiles with ReplayTargets/SybilRounds only).
	Adversary *AdversaryReport `json:"adversary,omitempty"`

	// Covertness is the passive crowd observer's statistical verdict
	// (profiles with Observer only).
	Covertness *Covertness `json:"covertness,omitempty"`

	SLO SLOResult `json:"slo"`
}

// AdversaryReport pairs what the adversarial personas injected with how the
// object-side outcome counters moved while they ran. Under strict accounting
// the deltas must equal the injections exactly: every orphan replay one
// orphan, every duplicate one cached resend, every stale or forged QUE2 one
// rejection — nothing more, nothing unexplained.
type AdversaryReport struct {
	Replay *ReplayStats `json:"replay,omitempty"`
	Sybil  *SybilStats  `json:"sybil,omitempty"`

	// Counter movements observed at the objects over the adversary phase.
	OrphanDelta    int64 `json:"orphan_delta"`
	DuplicateDelta int64 `json:"duplicate_delta"`
	RejectedDelta  int64 `json:"rejected_delta"`
}

// FleetStats describes the run's population.
type FleetStats struct {
	Cells           int `json:"cells"`
	SubjectsPerCell int `json:"subjects_per_cell"`
	ObjectsPerCell  int `json:"objects_per_cell"`
	Subjects        int `json:"subjects"`
	Objects         int `json:"objects"`
	Revoked         int `json:"revoked,omitempty"`
	Added           int `json:"added,omitempty"`
	Crashed         int `json:"crashed,omitempty"`
	Roamed          int `json:"roamed,omitempty"`
	Sleepy          int `json:"sleepy,omitempty"`
}

// WaveStats is one closed-loop wave's summary.
type WaveStats struct {
	Index           int     `json:"index"`
	Subjects        int     `json:"subjects"`
	Armed           int64   `json:"armed"`
	Lost            int64   `json:"lost"`
	Seconds         float64 `json:"seconds"`
	VCacheHits      int64   `json:"vcache_hits"`
	VCacheMisses    int64   `json:"vcache_misses"`
	Retransmissions int64   `json:"retransmissions"` // cause="timeout" only
}

// Totals aggregates the whole run.
type Totals struct {
	Armed             int64   `json:"armed"`
	Completed         int64   `json:"completed"`
	Lost              int64   `json:"lost"`
	Unexpected        int64   `json:"unexpected"`
	Late              int64   `json:"late"`
	LevelMismatch     int64   `json:"level_mismatch"`
	SkippedArrivals   int64   `json:"skipped_arrivals,omitempty"`
	PeakInflight      int64   `json:"peak_inflight"`
	PeakOpenHandshake int64   `json:"peak_open_handshakes"`
	LeakedSessions    int64   `json:"leaked_sessions"`
	WallSeconds       float64 `json:"wall_seconds"`
	SessionsPerSecond float64 `json:"sessions_per_second"`
	HeapAllocMB       float64 `json:"heap_alloc_mb"`
}

// Quantiles is one level's latency summary in seconds. Overflow counts
// sessions beyond the last histogram bucket, where quantile estimates
// saturate.
type Quantiles struct {
	Count    uint64  `json:"count"`
	P50      float64 `json:"p50"`
	P95      float64 `json:"p95"`
	P99      float64 `json:"p99"`
	Overflow int64   `json:"overflow"`
}

// WriteJSON writes the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// SumFamily totals a counter family across every label set matching the
// given labels.
func SumFamily(snap *obs.Snapshot, name string, labels ...obs.Label) int64 {
	var total int64
	for i := range snap.Metrics {
		m := &snap.Metrics[i]
		if m.Name != name {
			continue
		}
		match := true
		for _, l := range labels {
			if m.Labels[l.Key] != l.Value {
				match = false
				break
			}
		}
		if match {
			total += int64(m.Value)
		}
	}
	return total
}

// quantilesOf lifts one snapshot histogram into the report's summary form.
func quantilesOf(m *obs.Metric) Quantiles {
	return Quantiles{Count: m.Count, P50: m.P50, P95: m.P95, P99: m.P99, Overflow: int64(m.Overflow)}
}

// fillLatency populates the per-level end-to-end quantiles and the DLQ
// redelivery lag from one snapshot.
func fillLatency(rep *Report, snap *obs.Snapshot) {
	for lvl := 1; lvl <= 3; lvl++ {
		key := strconv.Itoa(lvl)
		m := snap.Get(obs.MDiscoveryPhaseSeconds, obs.L("level", key), obs.L("phase", obs.PhaseAll))
		if m == nil || m.Count == 0 {
			continue
		}
		rep.Latency[key] = quantilesOf(m)
	}
	if m := snap.Get(obs.MUpdateRedeliveryLag); m != nil && m.Count > 0 {
		q := quantilesOf(m)
		rep.RedeliveryLag = &q
	}
}

// fillCounters populates the counter families the SLOs and the ops tail
// reference from one snapshot.
func fillCounters(rep *Report, snap *obs.Snapshot) {
	rep.Counters["discoveries"] = SumFamily(snap, obs.MDiscoveries)
	rep.Counters["mailbox_drops"] = SumFamily(snap, obs.MTransportMailboxDrops)
	rep.Counters["malformed_drops"] = SumFamily(snap, obs.MMalformedDrops)
	// The sum, and the part every gate and the attribution read: a resend for
	// a peer that was expected and silent. The rest are blind-round probes,
	// which a lossless, idle fleet sends too.
	rep.Counters["retransmissions"] = SumFamily(snap, obs.MRetransmissions)
	rep.Counters["retransmissions_timeout"] = SumFamily(snap, obs.MRetransmissions, obs.L("cause", obs.CauseTimeout))
	rep.Counters["subject_sessions_expired"] = SumFamily(snap, obs.MSessionsExpired, obs.L("role", "subject"))
	rep.Counters["object_sessions_expired"] = SumFamily(snap, obs.MSessionsExpired, obs.L("role", "object"))
	rep.Counters["vcache_hits"] = SumFamily(snap, obs.MVerifyCacheEvents, obs.L("result", "hit"))
	rep.Counters["vcache_misses"] = SumFamily(snap, obs.MVerifyCacheEvents, obs.L("result", "miss"))
	rep.Counters["updates_applied"] = SumFamily(snap, obs.MUpdateApplied)
	rep.Counters["updates_rejected"] = SumFamily(snap, obs.MUpdateRejected)
	rep.Counters["update_sent"] = SumFamily(snap, obs.MUpdateSent)
	rep.Counters["update_undeliverable"] = SumFamily(snap, obs.MUpdateUndeliverable)
	rep.Counters["update_redelivered"] = SumFamily(snap, obs.MUpdateRedelivered)
	rep.Counters["dlq_evictions"] = SumFamily(snap, obs.MUpdateDLQEvictions)
	rep.Counters["dlq_depth"] = SumFamily(snap, obs.MUpdateDLQDepth)
	rep.Counters["faults_lost"] = SumFamily(snap, obs.MNetFaultLost)
	rep.Counters["faults_corrupted"] = SumFamily(snap, obs.MNetFaultCorrupted)
	rep.Counters["faults_duplicated"] = SumFamily(snap, obs.MNetFaultDuplicated)
	rep.Counters["roams"] = SumFamily(snap, obs.MLoadRoams)
	rep.Counters["sleepy_drops"] = SumFamily(snap, obs.MLoadSleepyDrops)
	rep.Counters["adversary_injected"] = SumFamily(snap, obs.MAdversaryInjected)
	rep.Counters["observer_samples"] = SumFamily(snap, obs.MAdversarySamples)
	rep.Counters["que2_orphans"] = SumFamily(snap, obs.MObjectQue2, obs.L("result", "orphan"))
	rep.Counters["que2_rejected"] = SumFamily(snap, obs.MObjectQue2, obs.L("result", "rejected"))
	// Covertness p-value gauges (ppm). -1 = observer present but not yet
	// evaluated; absent gauges (no observer) also read -1.
	rep.Counters["covert_timing_p_ppm"] = gaugeOr(snap, obs.MAdversaryCovertPpm, -1, obs.L("channel", "timing"))
	rep.Counters["covert_length_p_ppm"] = gaugeOr(snap, obs.MAdversaryCovertPpm, -1, obs.L("channel", "length"))
}

// gaugeOr reads one gauge from the snapshot, or def when it is absent.
func gaugeOr(snap *obs.Snapshot, name string, def int64, labels ...obs.Label) int64 {
	if m := snap.Get(name, labels...); m != nil {
		return int64(m.Value)
	}
	return def
}

// SnapshotReport derives the snapshot-computable slice of a Report from one
// obs snapshot: latency quantiles, redelivery lag, counter families, and the
// load totals the driver's families expose. argus-ops evaluates the
// streaming SLO gates against this, and a finished run's report starts from
// it, so a live tail and the finished report share one set of definitions.
// Ledger-only fields (late, level mismatch, open-handshake peak, wave stats,
// predictions) are zero.
func SnapshotReport(snap *obs.Snapshot) *Report {
	rep := &Report{Latency: map[string]Quantiles{}, Counters: map[string]int64{}}
	fillLatency(rep, snap)
	fillCounters(rep, snap)
	rep.Totals.Armed = SumFamily(snap, obs.MLoadRoundsArmed)
	rep.Totals.Completed = SumFamily(snap, obs.MLoadCompletions)
	rep.Totals.Lost = SumFamily(snap, obs.MLoadLost)
	rep.Totals.Unexpected = SumFamily(snap, obs.MLoadUnexpected)
	rep.Totals.PeakInflight = SumFamily(snap, obs.MLoadPeakInflight)
	rep.Totals.SkippedArrivals = SumFamily(snap, obs.MLoadSkipped)
	return rep
}
