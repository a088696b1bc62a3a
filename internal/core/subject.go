package core

import (
	"bytes"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"argus/internal/backend"
	"argus/internal/cert"
	"argus/internal/groups"
	"argus/internal/obs"
	"argus/internal/suite"
	"argus/internal/transport"
	"argus/internal/wire"
)

// errUnbound is returned by Discover on an engine with no endpoint.
var errUnbound = errors.New("core: engine not bound to a transport endpoint")

// Subject is the subject-side discovery engine (the user's device). It
// implements transport.Handler: broadcast QUE1, collect RES1s, run the
// phase-2 handshake with every Level 2/3 responder, and report verified
// discoveries.
type Subject struct {
	prov    *backend.SubjectProvision
	version wire.Version
	costs   Costs
	ep      transport.Endpoint

	// activeGroup indexes prov.Memberships: the group key used for
	// MAC_{S,3} this round. Devices rotate keys across rounds (§VI-C).
	activeGroup int
	round       int
	rs          []byte
	que1Enc     []byte
	que1At      time.Duration // transport time of the current round's broadcast

	sessions map[sessionKey]*subjSession

	// results is the one piece of engine state external goroutines read while
	// the event loop runs (see the concurrency contract in core.go), so it is
	// mutex-guarded; pendingN mirrors len(sessions) for the same reason.
	resMu    sync.Mutex
	results  []Discovery
	pendingN atomic.Int64

	// vcache, when non-nil, memoizes CERT/PROF credential verifications (see
	// WithVerifyCache). All call sites go through it; a nil cache verifies.
	vcache *cert.VerifyCache

	// retry drives retransmission and session expiry under lossy networks;
	// the zero value keeps the one-shot seed behavior (see RetryPolicy).
	retry   RetryPolicy
	lastTTL int // hop TTL of the current round, for QUE1 rebroadcasts

	// wheel holds every retry and expiry deadline of an enabled policy; nil
	// under the zero policy, which arms no timers. rtt feeds its deadlines
	// with the observed handshake round-trip, and que1Timer is the current
	// round's pending rebroadcast (deferred while responses keep arriving).
	wheel     *timerWheel
	rtt       rttEstimator
	que1Timer *wheelEntry
	// que1Attempt is the probe-chain position the pending rebroadcast will
	// fire at. Round activity resets it to 1: Que1Retries bounds CONSECUTIVE
	// silent probes, not total probes per round, so a round stalled behind a
	// long compute backlog (every probe in the budget fired unanswered, then
	// late responses finally arrived) gets its recovery chain back instead of
	// being stranded with expired sessions and an exhausted budget.
	que1Attempt int
	// probed is set once the current round rebroadcast QUE1: from then on a
	// RES1 cannot be matched to one transmission and is no RTT sample.
	probed bool
	// completedRound is the last round a harness declared done via
	// CompleteRound: handshake traffic still processes normally, but no new
	// retry deadlines are armed for it (a responder answering after the
	// declared quota — e.g. an object silently refusing a revoked subject —
	// must not leave a retransmission timer ticking toward a misfire).
	completedRound int

	// answered is the answer ledger: object address → the last round a
	// discovery from it was recorded (rounds start at 1, so the zero value
	// never collides). It is the round's duplicate check — a plaintext RES1
	// delivered twice has no session to anchor on, and a restart RES1 arriving
	// after its handshake completed would double-credit the round (secure
	// discoveries are entered under an enabled policy only: the zero policy
	// never rebroadcasts) — and it is the population the QUE1 rebroadcast
	// decision reads (armQue1). It holds addresses and rounds, never a level.
	// silent counts its entries the current round has not recorded yet; blind
	// marks a round whose rebroadcast chain runs whoever answers.
	answered map[transport.Addr]int
	silent   int
	blind    bool

	// tickets holds one resumption ticket per object address (resume.go).
	tickets ticketTable

	tel *subjectTelemetry

	// OnDiscovery, if set, is invoked for every verified discovery, on the
	// engine's event loop.
	OnDiscovery func(Discovery)
}

type subjSession struct {
	objAddr transport.Addr
	ro      []byte // object nonce (borrowed from RES1), distinguishes RES1 resends from restarts
	k2      []byte
	k3      []byte
	group   groups.ID
	ts      wire.Transcript // subject-cut transcript
	que2    *wire.QUE2
	que2Enc []byte // cached encoding, resent verbatim on timeout/duplicate RES1
	round   int
	stamps  phaseStamps

	// Wheel entries for the pending retransmission and the TTL expiry, the
	// transport time of the last QUE2 (re)send the RTO horizon is measured
	// from, and whether QUE2 was ever resent (then RES2 is no RTT sample).
	// All nil/zero under the zero policy.
	que2Timer *wheelEntry
	expiry    *wheelEntry
	sentAt    time.Duration
	resent    bool

	// Resumption state, enabled policies only. next is the binding of the
	// ticket a verified RES2 will mint: a draft after a full QUE2, the ticket
	// in use after a short one — and then res1 keeps the RES1 the short QUE2
	// answered, so that a refusal can still be turned into the full handshake.
	// short marks a short RES1, which has nothing to finish from: its refusal
	// is the signed RES1 itself.
	next    ticket
	resumed bool
	short   bool
	res1    []byte
	tsHash  [32]byte // hash of ts, the cut both finished MACs and the next ticket bind
}

// NewSubject creates an engine from a backend provision, applying any
// construction options (see Option).
func NewSubject(prov *backend.SubjectProvision, version wire.Version, costs Costs, opts ...Option) *Subject {
	s := &Subject{
		prov:     prov,
		version:  version,
		costs:    costs,
		sessions: make(map[sessionKey]*subjSession),
		answered: make(map[transport.Addr]int),
	}
	eo := applyOptions(opts)
	if eo.hasRetry {
		s.retry = eo.retry
	}
	if eo.hasTel {
		s.instrument(eo.reg, eo.tracer)
	}
	s.vcache = eo.vcache
	if eo.ep != nil {
		s.Bind(eo.ep)
	}
	return s
}

// Bind attaches the engine to a transport endpoint and installs it as the
// endpoint's inbound handler. Call once, before the first Discover; engines
// constructed with WithEndpoint are already bound.
func (s *Subject) Bind(ep transport.Endpoint) {
	s.ep = ep
	if s.retry.Enabled() {
		s.wheel = newTimerWheel(ep)
	}
	ep.Bind(s)
}

// PendingSessions returns the number of in-progress phase-2 handshakes —
// the leak the chaos tests assert returns to zero after SessionTTL. Safe to
// call from any goroutine (it reads a mirror the event loop maintains).
func (s *Subject) PendingSessions() int { return int(s.pendingN.Load()) }

// syncPending republishes len(sessions) after a mutation; event-loop only.
func (s *Subject) syncPending() { s.pendingN.Store(int64(len(s.sessions))) }

// Tickets returns the number of resumption tickets held, one per object the
// subject can resume with. Safe to call from any goroutine.
func (s *Subject) Tickets() int { return s.tickets.size() }

// instrument attaches a metrics registry and an optional span tracer.
// Telemetry is purely observational — it consumes no randomness and
// schedules no events, so instrumented and uninstrumented runs of the same
// seed are identical.
func (s *Subject) instrument(reg *obs.Registry, tr *obs.Tracer) {
	if reg == nil && tr == nil {
		s.tel = nil
		return
	}
	s.tel = newSubjectTelemetry(reg, tr, s.version)
}

// ID returns the subject's registered identity.
func (s *Subject) ID() cert.ID { return s.prov.ID }

// Refresh applies a re-provision (new PROF, rotated group keys). A changed
// trust anchor (backend re-keying) flushes the verification cache: results
// proven against the old anchor say nothing about the new one. Resumption
// tickets go either way: the objects hold the PROF_S each was minted with.
func (s *Subject) Refresh(prov *backend.SubjectProvision) {
	if !bytes.Equal(s.prov.CACert, prov.CACert) {
		s.vcache.Flush()
	}
	s.tickets.flush()
	s.prov = prov
	if s.activeGroup >= len(prov.Memberships) {
		s.activeGroup = 0
	}
}

// Results returns all verified discoveries so far. Safe to call from any
// goroutine while the engine runs (see the contract in core.go).
func (s *Subject) Results() []Discovery {
	s.resMu.Lock()
	defer s.resMu.Unlock()
	return append([]Discovery(nil), s.results...)
}

// GroupCount returns how many group keys (incl. cover-up) the device holds.
func (s *Subject) GroupCount() int { return len(s.prov.Memberships) }

// NextGroup advances to the next group key for the following round (§VI-C:
// "her device can automatically use her group keys in turns"). It reports
// whether it wrapped around.
func (s *Subject) NextGroup() (wrapped bool) {
	if len(s.prov.Memberships) == 0 {
		return true
	}
	s.activeGroup++
	if s.activeGroup >= len(s.prov.Memberships) {
		s.activeGroup = 0
		return true
	}
	return false
}

// Discover starts one discovery round: broadcast QUE1 with a fresh R_S
// within ttl hops. Results accumulate as the transport delivers responses.
// Sessions left incomplete two or more rounds ago are pruned — their objects
// are out of range or declined to answer.
//
// Like every state-mutating engine method, Discover must run on the engine's
// event loop: call it inline when driving the simulator, or through
// Endpoint.Do on a concurrent transport.
func (s *Subject) Discover(ttl int) error {
	if s.ep == nil {
		return errUnbound
	}
	rs, err := suite.NewNonce(nil)
	if err != nil {
		return err
	}
	s.round++
	for k, sess := range s.sessions {
		if sess.round < s.round-1 {
			s.dropSessionTimers(sess)
			delete(s.sessions, k)
		}
	}
	s.que1Timer.cancel()
	s.que1Timer = nil
	s.syncPending()
	s.rs = rs
	s.que1At = s.ep.Now()
	s.probed = false
	s.lastTTL = ttl
	s.expect()
	s.tel.roundStarted()
	q := &wire.QUE1{Version: s.version, RS: rs}
	if s.retry.Enabled() {
		q.Hints = s.hints(rs)
	}
	s.que1Enc = q.Encode()
	s.ep.Broadcast(s.que1Enc, ttl)
	if s.retry.Enabled() && s.retry.Que1Retries > 0 {
		s.armQue1(1)
	}
	return nil
}

// hints returns the QUE1 hint block of a round: one tag under each of the
// most recently filed tickets, at most HintSlots of them, and random bytes in
// every other slot. The block is as long, and as random to anyone without the
// secrets, whether the subject knows eight objects here or none; an object
// whose ticket did not make the block answers as to a stranger. The tags sit
// at uniformly permuted slots: the object that finds its own tag would
// otherwise read its recency rank — how many objects the subject met since —
// off the slot index. (Only the counters are charged: Discover has no modeled
// compute step to add to.)
func (s *Subject) hints(rs []byte) []byte {
	fill := make([]byte, wire.HintBlockSize+8)
	rand.Read(fill)
	block := fill[:wire.HintBlockSize:wire.HintBlockSize]
	// Fisher–Yates off the spare 64 bits: HintSlots! is far below 2^64.
	var slot [wire.HintSlots]int
	for i := range slot {
		slot[i] = i
	}
	v := binary.LittleEndian.Uint64(fill[wire.HintBlockSize:])
	for i := uint64(wire.HintSlots - 1); i > 0; i-- {
		j := v % (i + 1)
		v /= i + 1
		slot[i], slot[j] = slot[j], slot[i]
	}
	var buf [wire.HintSlots]*ticket
	known := s.tickets.recent(buf[:], time.Now())
	for i, t := range known {
		h := suite.Hint(t.secret, rs)
		copy(block[slot[i]*wire.HintSize:], h[:])
	}
	s.tel.count(opsHMAC, int64(len(known)))
	return block
}

// roundLifetimeTTLs bounds a round's recovery, in SessionTTLs from its QUE1:
// one TTL for the sessions the broadcast opened, one more so a round whose
// sessions all aged out (both sides, behind loss or a compute backlog) can
// still be probed into one restart. Past it the round arms and fires no
// rebroadcast and activity resets no chain; a restart is an object's answer to
// a rebroadcast, so every session of the round is gone within a third TTL.
// Without the bound a round under total RES2 loss never ends: the object
// collects its answered session at TTL/2, the next rebroadcast restarts the
// handshake, the fresh RES1 is round activity, and activity resets the chain.
const roundLifetimeTTLs = 2

// blindEvery is both horizons of the answer ledger, in rounds: a peer is
// expected while it answered any of the last blindEvery rounds, and every
// blindEvery-th round is blind. One number, because they are one promise: an
// object this subject has never heard — asleep or behind loss at each round's
// one QUE1 — meets the full chain within blindEvery rounds, and an object that
// left costs the full chain for blindEvery rounds and then nothing.
const blindEvery = 8

// expect opens the ledger for the round Discover just started: peers that
// answered none of the last blindEvery rounds are forgotten, everyone left is
// expected and silent. The engine's first round is blind, and every
// blindEvery-th after it at a phase taken from the subject's ID, so that a
// fleet started together does not rebroadcast together and a fixed-seed run
// repeats.
func (s *Subject) expect() {
	for a, last := range s.answered {
		if last < s.round-blindEvery {
			delete(s.answered, a)
		}
	}
	s.silent = len(s.answered)
	s.blind = s.round == 1 || s.round%blindEvery == int(s.prov.ID[len(s.prov.ID)-1])%blindEvery
}

// credit enters this round's discovery from an object into the ledger (the
// callers have checked it is the round's first from there). When the last
// expected peer is heard the round has nothing left to ask for, and the
// pending rebroadcast goes; a blind round keeps it, for the peers no ledger
// shows.
func (s *Subject) credit(from transport.Addr) {
	if _, known := s.answered[from]; known {
		s.silent--
	}
	s.answered[from] = s.round
	if !s.probing() {
		s.que1Timer.cancel()
		s.que1Timer = nil
	}
}

// probing reports whether the current round may still arm, fire or defer
// QUE1 rebroadcasts: never under the zero policy, not after CompleteRound,
// not past the round's lifetime, and only while an expected peer is silent or
// the round is blind.
func (s *Subject) probing() bool {
	return s.retry.Enabled() && s.completedRound != s.round &&
		(s.silent > 0 || s.blind) &&
		s.ep.Now()-s.que1At < roundLifetimeTTLs*s.retry.ttl()
}

// armQue1 arms the attempt-th QUE1 rebroadcast on the timer wheel. A subject
// cannot know which objects exist, but it knows which ones answered lately
// (the answer ledger), and the rebroadcast is conditional on exactly that:
// while an expected peer is silent — its discovery for this round not yet
// recorded, a live session included, since the rebroadcast is the only
// recovery once the object lost its half — the deadline is a response timeout
// for that peer; every response handled this round defers it to now + RTO
// (see noteActivity), and the discovery of the last silent peer cancels it
// (credit). A round that has heard everyone it expected sends nothing more.
// What the ledger cannot show — an object never heard — gets every round's
// first QUE1 and, in a blind round, the whole chain regardless of who
// answered. Either way a rebroadcast is cheap for whoever did answer: objects
// suppress the duplicate via R_S, and objects with a stalled handshake use it
// as a cue to resend RES1. The decision reads (address, answered) only: a
// Level 3 object answers as a Level 2 one on the air, so when a subject
// rebroadcasts tells an observer nothing the answers did not (§VII Case 7).
//
// The fire reads s.que1Attempt rather than its captured attempt so that
// noteActivity's chain reset takes effect on an already-armed rebroadcast.
func (s *Subject) armQue1(attempt int) {
	if !s.probing() {
		return
	}
	s.que1Attempt = attempt
	round := s.round
	s.que1Timer = s.wheel.schedule(s.retry.delay(attempt), func() {
		s.que1Timer = nil
		if s.round != round || !s.probing() {
			return // superseded by a newer round, or past its lifetime
		}
		s.probed = true
		if s.silent > 0 {
			s.tel.retransmit(msgQUE1)
		} else {
			s.tel.probe()
		}
		s.ep.Broadcast(s.que1Enc, s.lastTTL)
		if s.que1Attempt < s.retry.Que1Retries {
			s.armQue1(s.que1Attempt + 1)
		}
	})
}

// noteActivity records that current-round discovery traffic is still
// arriving: the pending QUE1 rebroadcast is pushed out to now + RTO, and the
// chain is reset to attempt 1 — activity is proof the round is live, so the
// retry budget guards consecutive silence, not a round's total. If the budget
// was already exhausted while the network (or a compute backlog) sat on the
// responses, the chain is re-armed: late traffic revives recovery for whatever
// sessions expired during the stall. The configured schedule remains the floor
// — deferTo never moves a deadline earlier. None of it happens in a round
// with nobody left to hear (probing).
func (s *Subject) noteActivity() {
	if !s.probing() {
		return
	}
	s.que1Attempt = 1
	switch {
	case s.que1Timer != nil:
		s.wheel.deferTo(s.que1Timer, s.ep.Now()+s.rtt.rto(s.retry.Timeout))
	case s.retry.Que1Retries > 0:
		s.armQue1(1)
	}
}

// noteRES1 is noteActivity for a first-seen RES1, which also times the
// QUE1→RES1 leg unless a probe made the sample ambiguous (Karn's rule).
func (s *Subject) noteRES1() {
	if !s.probed {
		s.rtt.observe(s.ep.Now() - s.que1At)
	}
	s.noteActivity()
}

// dropSessionTimers cancels a session's pending wheel entries.
func (s *Subject) dropSessionTimers(sess *subjSession) {
	sess.que2Timer.cancel()
	sess.que2Timer = nil
	sess.expiry.cancel()
	sess.expiry = nil
}

// CompleteRound tells the engine the caller knows the current round is done
// — every expected responder answered — so its pending retransmission
// deadlines (the QUE1 rebroadcast and per-session QUE2 retries) are
// dropped before they can fire, and no new retry deadline is armed for the
// rest of the round: a handshake that progresses after the declaration (an
// object silently refusing a revoked subject, a straggler RES1) completes
// or expires without ever retransmitting. Only a harness that tracks expected
// response counts can know this: the engine ends the chain by itself once
// everyone its ledger expects has answered, but not in a blind round, and not
// while it expects a peer that will never answer (an object that left, or
// that refuses this subject since a revocation). Sessions and their TTL
// expiries are untouched: completion accounting and GC semantics stay exactly
// as without the call. Event-loop only, like every state-mutating method.
func (s *Subject) CompleteRound() {
	s.completedRound = s.round
	s.que1Timer.cancel()
	s.que1Timer = nil
	for _, sess := range s.sessions {
		if sess.round == s.round {
			sess.que2Timer.cancel()
			sess.que2Timer = nil
		}
	}
}

// DiscoverAll runs one round per held group key, rotating keys between
// rounds, so every authorized covert service is found (§VI-C). settle is
// called between rounds to let in-flight traffic drain: pass a closure
// running the simulator's event loop (func() { net.Run(0) }), or a bounded
// wall-clock wait on a real transport. A nil settle starts rounds
// back-to-back.
func (s *Subject) DiscoverAll(ttl int, settle func()) error {
	for i := 0; i < max(1, len(s.prov.Memberships)); i++ {
		if err := s.Discover(ttl); err != nil {
			return err
		}
		if settle != nil {
			settle()
		}
		s.NextGroup()
	}
	return nil
}

// Handle implements transport.Handler.
func (s *Subject) Handle(from transport.Addr, payload []byte) {
	if len(payload) > 0 && payload[0] != byte(wire.TRES1) && payload[0] != byte(wire.TRES2) {
		return // an overheard QUE1 or QUE2: not worth a decode
	}
	msg, err := wire.Decode(payload)
	if err != nil {
		s.tel.malformedDrop()
		return
	}
	switch m := msg.(type) {
	case *wire.RES1:
		s.handleRES1(from, m, payload)
	case *wire.RES2:
		s.handleRES2(from, m)
	}
}

func (s *Subject) handleRES1(from transport.Addr, m *wire.RES1, raw []byte) {
	switch m.Mode {
	case wire.ModePublic:
		s.handlePublicRES1(from, m)
	case wire.ModeSecure:
		s.handleSecureRES1(from, m, raw)
	case wire.ModeResume:
		if s.retry.Enabled() { // the zero policy sends no hint to answer
			s.handleSecureRES1(from, m, raw)
		}
	}
}

// handlePublicRES1 processes a Level 1 response: verify the admin signature
// on the plaintext profile (the subject's only compute-intensive operation in
// Level 1, Fig 6b).
func (s *Subject) handlePublicRES1(from transport.Addr, m *wire.RES1) {
	if s.answered[from] == s.round {
		// Duplicate delivery of this round's plaintext RES1 (every
		// rebroadcast draws one). Tested before the verification it would
		// otherwise pay for nothing; the entry is only ever made after one
		// succeeded.
		return
	}
	prof, err := s.vcache.DecodeProfile(m.Prof, s.prov.CACert, s.prov.AdminPub, time.Now())
	if err != nil || prof.Kind != cert.RoleObject {
		return
	}
	s.credit(from)
	s.noteRES1()
	st := phaseStamps{session: s.tel.session(), que1At: s.que1At, res1At: s.ep.Now()}
	s.tel.count(opsVerify, 1)
	s.ep.Compute(s.costs.Verify, func() {
		s.tel.sessionDone(st, L1, from, s.version, s.ep.Now())
		s.record(Discovery{
			Object:  prof.Entity,
			Node:    from,
			Level:   L1,
			Profile: prof,
			At:      s.ep.Now(),
			Round:   s.round,
		})
	})
}

// handleSecureRES1 runs the subject side of phase 2: authenticate the
// object, establish K2 (and K3 from the active group key), and send QUE2.
func (s *Subject) handleSecureRES1(from transport.Addr, m *wire.RES1, raw []byte) {
	if s.rs == nil {
		return // no discovery in progress
	}
	if s.answered[from] == s.round {
		return // already credited this object this round: stale restart echo
	}
	old, live := s.sessions[mkSessionKey(from, s.rs)]
	if live && (!s.retry.Enabled() || bytes.Equal(old.ro, m.RO)) {
		// Duplicate RES1 for a live handshake (link-layer duplication, or
		// the object resent it after a QUE1 rebroadcast). Deriving a fresh
		// KEX here would desync K2 with an object that already consumed
		// our QUE2, deadlocking the session until expiry — so never
		// re-handshake. Nor is QUE2 resent here: the session's own RTO
		// timer owns that, and answering every duplicate too turns one
		// congested-start rebroadcast into a QUE1→RES1→QUE2→RES2 echo
		// storm across the whole fleet. The duplicate is recorded as
		// round activity and nothing more.
		s.noteActivity()
		return
	}
	// Otherwise, over a live session, this is a fresh R_O under the same R_S:
	// the object restarted the handshake after its session aged out, or
	// refused a short QUE2. The state the cached QUE2 covers no longer exists
	// — resending it can only be rejected — so the QUE2 answering this RES1
	// supersedes the doomed session (sendQUE2).
	s.noteRES1()
	switch {
	case m.Mode == wire.ModeResume:
		t := s.tickets.get(from)
		if t == nil || !t.valid(time.Now()) {
			t = decoyTicket()
		}
		s.resumedQUE2(from, m, raw, t)
	case live && old.short:
		// The signed RES1 is the object's refusal of the short QUE2 that
		// answered its short RES1 (Object.resumeQUE2). Once SIG_O shows it is
		// the object's, the ticket goes.
		if s.fullQUE2(from, m, raw) {
			s.tel.resumption(resultRefused)
			s.dropTicket(old)
		}
	default:
		if t := s.ticketFor(from, m.CertO); t != nil {
			s.resumedQUE2(from, m, raw, t)
		} else {
			s.fullQUE2(from, m, raw)
		}
	}
}

// ticketFor returns the subject's ticket for the object at from, if it was
// minted under the CERT_O this RES1 presents and its window is still open.
// A ticket that does not fit is left alone: the full handshake that follows
// replaces it if it completes, and a forged RES1 must not be able to cost the
// subject a good ticket.
func (s *Subject) ticketFor(from transport.Addr, certO []byte) *ticket {
	t := s.tickets.get(from)
	if t == nil || t.certO != sha256.Sum256(certO) || !t.valid(time.Now()) {
		return nil
	}
	return t
}

// fullQUE2 answers a secure RES1 with the full QUE2: authenticate the object
// (CERT_O, SIG_O), run the ephemeral ECDH, sign the transcript. It reports
// whether the RES1 was the object's and the QUE2 went out.
func (s *Subject) fullQUE2(from transport.Addr, m *wire.RES1, raw []byte) bool {
	info, err := s.vcache.VerifyCert(s.prov.CACert, m.CertO, s.prov.Strength)
	if err != nil || info.Role != cert.RoleObject {
		return false
	}
	signed := m.AppendSignedPart(wire.GetScratch(), s.rs)
	sigOK := info.Public.Verify(signed, m.Sig)
	wire.PutScratch(signed)
	if !sigOK {
		return false // forged or replayed RES1
	}
	kex, err := suite.NewKeyExchange(s.prov.Strength, nil)
	if err != nil {
		return false
	}
	preK, err := kex.Shared(m.KEXMO)
	if err != nil {
		return false
	}

	q := &wire.QUE2{
		Version: s.version,
		RS:      s.rs,
		ProfS:   s.prov.Profile.Encode(),
		CertS:   s.prov.CertDER,
		KEXMS:   kex.Public(),
	}
	// The QUE2 signature input doubles as the transcript prefix: build it
	// once in pooled scratch, sign it, hash it into the session's transcript.
	sess := &subjSession{k2: suite.SessionKey2(preK, s.rs, m.RO)}
	sigIn := wire.AppendSigInputQUE2(wire.GetScratch(), s.que1Enc, raw, q)
	sig, err := s.prov.Key.Sign(sigIn)
	sess.ts.Add(sigIn, sig)
	wire.PutScratch(sigIn)
	if err != nil {
		return false
	}
	q.Sig = sig
	if s.retry.Enabled() {
		sess.next = ticket{certO: sha256.Sum256(m.CertO), notBefore: info.NotBefore, notAfter: info.NotAfter}
	}
	// Fig 6b subject cost in Level 2/3: 1 signing, 3 verifications (CERT_O,
	// KEXM_O signature, and later PROF_O), 2 ECDH operations. The PROF_O
	// verification and decryption are charged at RES2 time.
	if s.tel != nil {
		s.tel.count(opsVerify, 2)
		s.tel.count(opsKexGen, 1)
		s.tel.count(opsKexShared, 1)
		s.tel.count(opsSign, 1)
	}
	s.sendQUE2(from, m.RO, q, sess, 2*s.costs.Verify+s.costs.KexGen+s.costs.KexShared+s.costs.Sign)
	return true
}

// resumedQUE2 answers a RES1 — signed or short — from an object the subject
// holds a ticket for with the short QUE2: no CERT_O or SIG_O check, no key
// generation, no ECDH, no signature. K2′ comes from the ticket's secret and
// the two fresh nonces, and only an object holding the same secret can produce
// the MAC_O that completes the session — until then nothing the RES1 claimed
// is believed, and nothing but HMACs was spent on it.
func (s *Subject) resumedQUE2(from transport.Addr, m *wire.RES1, raw []byte, t *ticket) {
	q := &wire.QUE2{Version: s.version, RS: s.rs, Ticket: t.id[:]}
	sess := &subjSession{k2: suite.SessionKey2(t.secret, s.rs, m.RO), next: *t, resumed: true, res1: raw,
		short: m.Mode == wire.ModeResume}
	in := wire.AppendSigInputQUE2(wire.GetScratch(), s.que1Enc, raw, q)
	sess.ts.Add(in)
	wire.PutScratch(in)
	s.sendQUE2(from, m.RO, q, sess, 0)
}

// sendQUE2 is the subject's phase 2 downstream of K2, the same for a full and
// a resumed session: the finished MACs over the transcript cut (K3 from the
// round's active group key), the session and its expiry, and — after the
// modeled compute time — the frame and its retransmission deadline. cost is
// what establishing K2 took; the key derivation and the MACs are added here.
func (s *Subject) sendQUE2(from transport.Addr, ro []byte, q *wire.QUE2, sess *subjSession, cost time.Duration) {
	tsHash := sess.ts.Hash()
	sess.tsHash = tsHash
	q.MACS2 = suite.FinishedMAC(sess.k2, suite.LabelSubjectFinished, tsHash)
	sess.objAddr, sess.ro, sess.round, sess.que2 = from, ro, s.round, q
	sess.stamps = phaseStamps{session: s.tel.session(), secure: true, que1At: s.que1At, res1At: s.ep.Now()}
	hmacs := 2 // K2 derivation + MAC_{S,2}
	if s.version != wire.V10 && len(s.prov.Memberships) > 0 {
		// v2.0: MAC_{S,3} is attached only when performing Level 3 discovery,
		// i.e. when the subject actually holds a real group key — the
		// composition leak §VI-B describes. v3.0: always attached; subjects
		// without sensitive attributes use their cover-up key, so every QUE2
		// looks the same.
		mem := s.prov.Memberships[s.activeGroup%len(s.prov.Memberships)]
		if s.version == wire.V30 || !mem.CoverUp {
			sess.k3 = suite.SessionKey3(sess.k2, mem.Key, s.rs, ro)
			q.MACS3 = suite.FinishedMAC(sess.k3, suite.LabelSubjectFinished, tsHash)
			sess.group = mem.Group
			hmacs += 2 // K3 derivation + MAC_{S,3}
		}
	}
	key := mkSessionKey(from, s.rs)
	if old, ok := s.sessions[key]; ok {
		s.dropSessionTimers(old) // superseded (handleSecureRES1)
	}
	s.sessions[key] = sess
	s.syncPending()
	if s.retry.Enabled() {
		s.scheduleExpiry(key, sess)
	}
	s.tel.count(opsHMAC, int64(hmacs))
	s.ep.Compute(cost+time.Duration(hmacs)*s.costs.HMAC, func() {
		sess.stamps.que2At = s.ep.Now()
		enc := q.Encode()
		sess.que2Enc = enc
		sess.sentAt = s.ep.Now()
		s.ep.Send(from, enc)
		if s.retry.Enabled() && s.retry.Que2Retries > 0 {
			s.armQue2(key, sess, 1, s.rtt.rto(s.retry.delay(1)))
		}
	})
}

// armQue2 arms a QUE2 retransmission deadline on the wheel. The wait starts
// at the configured backoff but never undercuts the observed round-trip
// horizon, and a deadline that fires early (the estimator grew after arming)
// re-arms for the remainder instead of retransmitting — on a lossless
// network the verified RES2 cancels the entry first and the wire never sees
// a duplicate QUE2.
func (s *Subject) armQue2(key sessionKey, sess *subjSession, attempt int, wait time.Duration) {
	if s.completedRound == s.round && sess.round == s.round {
		return // round declared done: the answer is either in flight or refused
	}
	sess.que2Timer = s.wheel.schedule(wait, func() {
		sess.que2Timer = nil
		if cur, ok := s.sessions[key]; !ok || cur != sess || sess.que2Enc == nil {
			return
		}
		horizon := s.rtt.rto(s.retry.delay(attempt))
		if due := sess.sentAt + horizon; due > s.ep.Now() {
			s.armQue2(key, sess, attempt, due-s.ep.Now())
			return
		}
		s.tel.retransmit(msgQUE2)
		s.ep.Send(sess.objAddr, sess.que2Enc)
		sess.sentAt = s.ep.Now()
		sess.resent = true
		if attempt < s.retry.Que2Retries {
			next := attempt + 1
			s.armQue2(key, sess, next, s.rtt.rto(s.retry.delay(next)))
		}
	})
}

// scheduleExpiry garbage-collects the session at SessionTTL if it has not
// completed: under total loss nothing else would ever delete it, and a
// leaked session both holds memory and blocks the object's duplicate
// suppression from converging. The pointer comparison protects a newer
// session that reused the key (same peer, same R_S — only possible across
// rounds with a nonce collision, but cheap to be exact about).
//
// The expiry is a heap entry, not a live transport timer, and completion
// cancels it — 20k concurrent sessions hold one armed timer instead of 20k.
// Expiries are never deferred.
func (s *Subject) scheduleExpiry(key sessionKey, sess *subjSession) {
	sess.expiry = s.wheel.schedule(s.retry.ttl(), func() {
		if cur, ok := s.sessions[key]; ok && cur == sess {
			s.dropSessionTimers(sess)
			delete(s.sessions, key)
			s.syncPending()
			s.tel.sessionExpired()
		}
	})
}

// handleRES2 completes the handshake: determine which key the object used
// (K2 → Level 2 face, K3 → Level 3 fellow), verify, decrypt, and verify the
// admin signature on the received PROF variant.
func (s *Subject) handleRES2(from transport.Addr, m *wire.RES2) {
	// RES2 carries no R_S echo, so locate the pending session by peer,
	// preferring the most recent round if several are outstanding.
	var key sessionKey
	var sess *subjSession
	for k, c := range s.sessions {
		if c.objAddr == from && (sess == nil || c.round > sess.round) {
			key, sess = k, c
		}
	}
	if sess == nil {
		// Orphaned RES2: our session expired before the answer arrived. The
		// payload is unusable, but it is still live round traffic — let it
		// defer (or revive) the QUE1 rebroadcast so the chain restarts the
		// handshake instead of stranding the round.
		s.noteActivity()
		return
	}
	if sess.resumed && !sess.short && m.Refusal() {
		s.refused(key, sess)
		return
	}
	if !s.retry.Enabled() {
		delete(s.sessions, key)
		s.syncPending()
	}
	sess.stamps.res2At = s.ep.Now()
	s.noteActivity()

	toHash := transcriptOHash(sess.ts, sess.que2, m.Ciphertext)

	var level Level
	var sk []byte
	var group groups.ID
	switch {
	// "S first tries to verify it with K2 ... Otherwise she uses K3" (§VI-A).
	case suite.VerifyMAC(sess.k2, suite.LabelObjectFinished, toHash, m.MACO):
		level, sk = L2, sess.k2
	case sess.k3 != nil && suite.VerifyMAC(sess.k3, suite.LabelObjectFinished, toHash, m.MACO):
		level, sk, group = L3, sess.k3, sess.group
	default:
		// Neither key verifies: corrupted or not for us. Under retry the
		// session stays pending — a QUE2 retransmission will fetch a clean
		// copy; the MAC guarantees any verified RES2 is byte-authentic.
		return
	}
	// An authenticated RES2 completes the session; a later duplicate finds
	// no session and is dropped, making delivery effectively exactly-once.
	if s.retry.Enabled() {
		if !sess.resent { // Karn's rule, as for RES1
			s.rtt.observe(sess.stamps.res2At - sess.stamps.que2At)
		}
		if sess.round == s.round {
			s.credit(from)
		}
	}
	s.dropSessionTimers(sess)
	delete(s.sessions, key)
	s.syncPending()

	plain, err := suite.DecryptProfile(sk, m.Ciphertext)
	if err != nil {
		return
	}
	prof, err := s.vcache.DecodeProfile(plain, s.prov.CACert, s.prov.AdminPub, time.Now())
	if err != nil || prof.Kind != cert.RoleObject {
		return // service information is admin-signed end to end
	}

	hmacs := 2
	if s.retry.Enabled() {
		// The handshake is complete and everything it carried is verified:
		// file the ticket for the next one. After a resumed session this is
		// the ratchet step — the ticket just used is overwritten.
		next := sess.next.minted(sess.k2, sess.tsHash)
		next.narrowTo(prof.Window())
		s.tickets.put(from, next)
		if sess.resumed {
			s.tel.resumption(resultResumed)
		} else {
			s.tel.resumption(resultMinted)
		}
		hmacs++
	}
	cost := time.Duration(hmacs)*s.costs.HMAC + s.costs.Cipher + s.costs.Verify
	if s.tel != nil {
		s.tel.count(opsHMAC, int64(hmacs))
		s.tel.count(opsCipher, 1)
		s.tel.count(opsVerify, 1)
	}
	s.ep.Compute(cost, func() {
		s.tel.sessionDone(sess.stamps, level, from, s.version, s.ep.Now())
		s.record(Discovery{
			Object:  prof.Entity,
			Node:    from,
			Level:   level,
			Group:   uint64(group),
			Profile: prof,
			At:      s.ep.Now(),
			Round:   sess.round,
		})
	})
}

// refused handles the empty RES2 by which an object declines the ticket of a
// resumed session (evicted, flushed, expired, or a ratchet step ahead after a
// lost RES2): forget the ticket and finish the full handshake from the RES1
// the session kept. The object left its half of the session pending for
// exactly this, so the round loses one round trip and waits for no timer. A
// forged refusal buys an attacker nothing more than that full handshake.
func (s *Subject) refused(key sessionKey, sess *subjSession) {
	s.tel.resumption(resultRefused)
	s.dropTicket(sess)
	s.dropSessionTimers(sess)
	delete(s.sessions, key)
	s.syncPending()
	s.noteActivity()
	if sess.round != s.round {
		return // R_S has moved on; the new round handshakes for itself
	}
	m, _ := wire.Decode(sess.res1)
	if res1, ok := m.(*wire.RES1); ok {
		s.fullQUE2(sess.objAddr, res1, sess.res1)
	}
}

// dropTicket forgets the ticket a refused session presented, unless a newer
// one has replaced it since.
func (s *Subject) dropTicket(sess *subjSession) {
	if t := s.tickets.get(sess.objAddr); t != nil && t.id == sess.next.id {
		s.tickets.drop(sess.objAddr)
	}
}

func (s *Subject) record(d Discovery) {
	s.resMu.Lock()
	s.results = append(s.results, d)
	s.resMu.Unlock()
	if s.OnDiscovery != nil {
		s.OnDiscovery(d)
	}
}
