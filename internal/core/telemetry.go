package core

import (
	"fmt"
	"strconv"
	"time"

	"argus/internal/obs"
	"argus/internal/transport"
	"argus/internal/wire"
)

// Telemetry for the discovery engines. Metric handles are resolved once per
// registry (obs.Shared) and the block is shared by every engine bound to it,
// so the per-message cost is a few atomic operations and a fleet holds one
// copy of the handles, not one per engine; every
// helper is a no-op on a nil receiver, so an uninstrumented engine executes
// the exact same event sequence (fixed-seed runs stay byte-identical — see
// internal/exp's determinism test).

// Phase indices of subjectTelemetry.phases, in wire order; phaseNames holds
// their label values.
const (
	phaseQUE1 = iota
	phaseRES1
	phaseQUE2
	phaseRES2
	phaseAll
	nPhases
)

var phaseNames = [nPhases]string{obs.PhaseQUE1, obs.PhaseRES1, obs.PhaseQUE2, obs.PhaseRES2, obs.PhaseAll}

// Message label values of obs.MRetransmissions: which message a role resent.
const (
	msgQUE1 = "que1"
	msgQUE2 = "que2"
	msgRES1 = "res1"
	msgRES2 = "res2"
)

// Result label values of obs.MResumptions, with resultRefused: the object
// declined a ticket — with the empty RES2, or by upgrading the session of a
// short RES1 in place — and the full handshake follows.
const (
	resultResumed = "resumed" // a session completed on a ticket (and ratcheted it)
	resultMinted  = "minted"  // a full handshake completed and filed a ticket
)

// robustness is the per-role retransmission/expiry/malformed counter block
// shared by both engines (satellite of the fault-injection work: malformed
// traffic used to vanish without a trace), plus the resumption outcomes.
type robustness struct {
	retrans   map[string]*obs.Counter // cause="timeout", by msg label
	expired   *obs.Counter
	malformed *obs.Counter
	// Resumption outcomes. Fields, not a map like retrans: an idle engine's
	// heap is a benchmark metric, and a three-entry map is 300 B of it.
	resumed, refused, minted *obs.Counter
}

func newRobustness(reg *obs.Registry, role string, msgs []string) robustness {
	r := robustness{
		retrans: make(map[string]*obs.Counter, len(msgs)),
		expired: reg.Counter(obs.MSessionsExpired,
			"Handshake sessions garbage-collected at SessionTTL without completing.",
			obs.L("role", role)),
		malformed: reg.Counter(obs.MMalformedDrops,
			"Received payloads dropped because wire decoding failed (corruption or noise).",
			obs.L("role", role)),
	}
	for _, m := range msgs {
		r.retrans[m] = retransCounter(reg, role, m, obs.CauseTimeout)
	}
	res := func(result string) *obs.Counter {
		return reg.Counter(obs.MResumptions,
			"Session resumption outcomes: sessions completed on a ticket, tickets refused, tickets minted by a full handshake.",
			obs.L("side", role), obs.L("result", result))
	}
	r.resumed, r.refused, r.minted = res(resultResumed), res(resultRefused), res(resultMinted)
	return r
}

// retransCounter registers one argus_retransmissions_total series.
func retransCounter(reg *obs.Registry, role, msg, cause string) *obs.Counter {
	return reg.Counter(obs.MRetransmissions,
		"Protocol messages retransmitted, by cause: timeout (for a silent expected peer, or a duplicate-query resend) or probe (a blind round's QUE1 with nobody missing).",
		obs.L("role", role), obs.L("msg", msg), obs.L("cause", cause))
}

// resumption returns the counter of one resumption outcome.
func (r *robustness) resumption(result string) *obs.Counter {
	switch result {
	case resultResumed:
		return r.resumed
	case resultRefused:
		return r.refused
	}
	return r.minted
}

// subjectTelemetry instruments the subject engine. It is read-only once
// built, so every subject bound to one registry, tracer and version shares
// one block (subjectTelemetryFor).
type subjectTelemetry struct {
	tracer      *obs.Tracer
	rounds      *obs.Counter
	probes      *obs.Counter               // blind-round QUE1 rebroadcasts with nobody silent
	knownDrops  *obs.Counter               // Level 1 known answers matching no verified profile
	discoveries [4]*obs.Counter            // indexed by Level (1..3)
	phases      [4][nPhases]*obs.Histogram // [level][phase index]
	ops         cryptoOps
	rob         robustness
}

// subjectTelemetryKey names a subject block in its registry's memo.
type subjectTelemetryKey struct {
	tracer  *obs.Tracer
	version wire.Version
}

// subjectTelemetryFor returns the block shared by the subjects bound to reg
// with tracer tr that speak version.
func subjectTelemetryFor(reg *obs.Registry, tr *obs.Tracer, version wire.Version) *subjectTelemetry {
	return obs.Shared(reg, subjectTelemetryKey{tr, version}, func() *subjectTelemetry {
		return newSubjectTelemetry(reg, tr, version)
	})
}

func newSubjectTelemetry(reg *obs.Registry, tr *obs.Tracer, version wire.Version) *subjectTelemetry {
	t := &subjectTelemetry{
		tracer: tr,
		rounds: reg.Counter(obs.MDiscoveryRounds, "Discovery rounds started (QUE1 broadcasts)."),
		probes: retransCounter(reg, "subject", msgQUE1, obs.CauseProbe),
		knownDrops: reg.Counter(obs.MKnownAnswerDrops,
			"Level 1 known answers dropped: no verified profile on file from the sender matches the digest inside its window."),
		ops: newCryptoOps(reg, "subject"),
		rob: newRobustness(reg, "subject", []string{msgQUE1, msgQUE2}),
	}
	ver := "v" + strconv.Itoa(int(version))
	for level := L1; level <= L3; level++ {
		lv := obs.L("level", strconv.Itoa(int(level)))
		t.discoveries[level] = reg.Counter(obs.MDiscoveries,
			"Verified discoveries, by perceived visibility level.", lv)
		for i, ph := range phaseNames {
			t.phases[level][i] = reg.Histogram(obs.MDiscoveryPhaseSeconds,
				"Virtual time spent per discovery protocol phase.",
				obs.LatencyBuckets(), lv, obs.L("phase", ph), obs.L("version", ver))
		}
	}
	return t
}

func (t *subjectTelemetry) roundStarted() {
	if t == nil {
		return
	}
	t.rounds.Inc()
}

// phaseStamps are the virtual times a session crossed each protocol
// boundary. Zero res1/que2 times mean the Level 1 short path (no phase 2).
type phaseStamps struct {
	session uint64
	secure  bool          // phase-2 handshake ran (Level 2/3 path)
	que1At  time.Duration // QUE1 broadcast
	res1At  time.Duration // RES1 arrival
	que2At  time.Duration // QUE2 on the air
	res2At  time.Duration // RES2 arrival
}

// sessionDone records the per-phase histograms and tracer spans of one
// completed discovery at doneAt. Only phases the session actually crossed
// are emitted (Level 1 skips phase 2 entirely). The span detail is formatted
// only when a tracer is attached.
func (t *subjectTelemetry) sessionDone(st phaseStamps, level Level, peer transport.Addr, version wire.Version, doneAt time.Duration) {
	if t == nil || !level.Valid() {
		return
	}
	t.discoveries[level].Inc()
	type phaseSpan struct {
		phase    int
		from, to time.Duration
	}
	var buf [nPhases]phaseSpan
	spans := append(buf[:0], phaseSpan{phaseQUE1, st.que1At, st.res1At})
	if st.secure {
		spans = append(spans,
			phaseSpan{phaseRES1, st.res1At, st.que2At},
			phaseSpan{phaseQUE2, st.que2At, st.res2At},
			phaseSpan{phaseRES2, st.res2At, doneAt})
	} else {
		// Level 1: RES1 arrival → verified is the whole tail.
		spans = append(spans, phaseSpan{phaseRES2, st.res1At, doneAt})
	}
	spans = append(spans, phaseSpan{phaseAll, st.que1At, doneAt})
	for _, sp := range spans {
		t.phases[level][sp.phase].ObserveDuration(sp.to - sp.from)
	}
	if t.tracer == nil {
		return
	}
	detail := fmt.Sprintf("%v peer=%s", version, peer)
	for _, sp := range spans {
		t.tracer.Record(obs.Span{
			Session: st.session, Name: "discover", Phase: phaseNames[sp.phase],
			Level: int(level), Detail: detail, Start: sp.from, End: sp.to,
		})
	}
}

// session allocates a tracer session ID (0 when tracing is off).
func (t *subjectTelemetry) session() uint64 {
	if t == nil {
		return 0
	}
	return t.tracer.NewSession()
}

func (t *subjectTelemetry) retransmit(msg string) {
	if t == nil {
		return
	}
	t.rob.retrans[msg].Inc()
}

func (t *subjectTelemetry) probe() {
	if t == nil {
		return
	}
	t.probes.Inc()
}

func (t *subjectTelemetry) knownDrop() {
	if t == nil {
		return
	}
	t.knownDrops.Inc()
}

func (t *subjectTelemetry) resumption(result string) {
	if t == nil {
		return
	}
	t.rob.resumption(result).Inc()
}

func (t *subjectTelemetry) sessionExpired() {
	if t == nil {
		return
	}
	t.rob.expired.Inc()
}

func (t *subjectTelemetry) malformedDrop() {
	if t == nil {
		return
	}
	t.rob.malformed.Inc()
}

// objectTelemetry instruments the object engine. Read-only once built: the
// objects bound to one registry share one block (objectTelemetryFor).
type objectTelemetry struct {
	que1      map[string]*obs.Counter
	que2      map[string]*obs.Counter
	compute   *obs.Histogram
	res2Bytes *obs.Histogram
	ops       cryptoOps
	rob       robustness
}

// QUE1/QUE2 outcome label values.
const (
	resultPublic    = "public"    // Level 1 plaintext profile returned
	resultKnown     = "known"     // Level 1 known answer: the digest of the profile the subject verified
	resultHandshake = "handshake" // secure RES1 sent, awaiting QUE2
	resultResume    = "resume"    // hint matched a ticket: short RES1 sent, awaiting QUE2
	resultDuplicate = "duplicate" // flooded QUE1 seen via another path
	resultRefused   = "refused"   // session table full
	resultFellow    = "fellow"    // RES2 under K3 (Level 3 face)
	resultL2        = "l2"        // RES2 under K2 (Level 2 face)
	resultRejected  = "rejected"  // authentication/verification failed, or a revoked subject's hint
	resultSilent    = "silent"    // no policy admits the subject
	resultOrphan    = "orphan"    // QUE2 with no live session (replay or late arrival)
)

// objectTelemetryKey names the object block in its registry's memo.
type objectTelemetryKey struct{}

// objectTelemetryFor returns the block shared by the objects bound to reg.
func objectTelemetryFor(reg *obs.Registry) *objectTelemetry {
	return obs.Shared(reg, objectTelemetryKey{}, func() *objectTelemetry { return newObjectTelemetry(reg) })
}

func newObjectTelemetry(reg *obs.Registry) *objectTelemetry {
	t := &objectTelemetry{
		que1: make(map[string]*obs.Counter),
		que2: make(map[string]*obs.Counter),
		compute: reg.Histogram(obs.MObjectComputeSeconds,
			"Equalized object response compute time charged per QUE2 (§VI-B timing countermeasure).",
			obs.LatencyBuckets()),
		res2Bytes: reg.Histogram(obs.MObjectRes2Bytes,
			"RES2 ciphertext length — constant across levels in v3.0 (padding proof).",
			obs.SizeBuckets()),
		ops: newCryptoOps(reg, "object"),
		rob: newRobustness(reg, "object", []string{msgRES1, msgRES2}),
	}
	for _, r := range []string{resultPublic, resultKnown, resultHandshake, resultResume, resultDuplicate, resultRefused, resultRejected} {
		t.que1[r] = reg.Counter(obs.MObjectQue1, "QUE1 messages handled, by outcome.", obs.L("result", r))
	}
	for _, r := range []string{resultFellow, resultL2, resultRejected, resultSilent, resultOrphan} {
		t.que2[r] = reg.Counter(obs.MObjectQue2, "QUE2 messages handled, by outcome.", obs.L("result", r))
	}
	return t
}

func (t *objectTelemetry) que1Result(r string) {
	if t == nil {
		return
	}
	t.que1[r].Inc()
}

func (t *objectTelemetry) que2Result(r string) {
	if t == nil {
		return
	}
	t.que2[r].Inc()
}

func (t *objectTelemetry) response(cost time.Duration, ciphertextLen int) {
	if t == nil {
		return
	}
	t.compute.ObserveDuration(cost)
	t.res2Bytes.Observe(float64(ciphertextLen))
}

func (t *objectTelemetry) retransmit(msg string) {
	if t == nil {
		return
	}
	t.rob.retrans[msg].Inc()
}

func (t *objectTelemetry) resumption(result string) {
	if t == nil {
		return
	}
	t.rob.resumption(result).Inc()
}

func (t *objectTelemetry) sessionExpired() {
	if t == nil {
		return
	}
	t.rob.expired.Inc()
}

func (t *objectTelemetry) malformedDrop() {
	if t == nil {
		return
	}
	t.rob.malformed.Inc()
}
