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
	rs      [suite.NonceSize]byte // the current round's R_S
	ledger                        // ep, the cost table and the op counters

	// activeGroup indexes prov.Memberships: the group key used for
	// MAC_{S,3} this round. Devices rotate keys across rounds (§VI-C).
	activeGroup int
	round       int // 0 until the first Discover
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
	// round's pending rebroadcast (deferred while responses keep arriving),
	// whose task is the Subject (due): Discover cancels it for the next round.
	wheel     *timerWheel
	rtt       rttEstimator
	que1Timer wheelEntry
	// que1Attempt is the probe-chain position the pending rebroadcast will
	// fire at. Round activity resets it to 1: Que1Retries bounds CONSECUTIVE
	// silent probes, not total probes per round, so a round stalled behind a
	// long compute backlog (every probe in the budget fired unanswered, then
	// late responses finally arrived) gets its recovery chain back instead of
	// being stranded with expired sessions and an exhausted budget.
	que1Attempt int
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
	// silent counts its entries the current round has not recorded yet, and
	// silentFull those of them whose answer is a full leg; blind marks a round
	// whose rebroadcast chain runs whoever answers.
	answered   map[transport.Addr]answer
	silent     int
	silentFull int
	blind      bool
	// probed is set once the current round rebroadcast QUE1: from then on a
	// RES1 cannot be matched to one transmission and is no RTT sample. (Beside
	// blind, it shares blind's word.)
	probed bool

	// tickets holds one resumption ticket per object address (resume.go), and
	// known the Level 1 profiles verified, by object address.
	tickets ticketTable
	known   knownTable

	// The records no session and no Level 1 answer references any more, for
	// the next one to reuse (freeList).
	sessFree freeList[subjSession]
	l1Free   freeList[l1Answer]

	// frames carves the frames the subject sends (transport.Slab).
	frames transport.Slab

	tel *subjectTelemetry

	// OnDiscovery, if set, is invoked for every verified discovery, on the
	// engine's event loop.
	OnDiscovery func(Discovery)
}

// answer is one entry of the answer ledger (Subject.answered).
type answer struct {
	round int  // the last round a discovery from the peer was recorded
	light bool // the current round hinted it: its answer is a short RES1 (expect)
}

// l1Answer is a verified Level 1 answer waiting out its modeled verification
// (handlePublicRES1), and the task that records it. A record is taken from the
// subject's free list and goes back to it when it runs, so a discovery hands
// Compute a pointer and allocates nothing where a closure per discovery would.
type l1Answer struct {
	s    *Subject
	st   phaseStamps
	from transport.Addr
	prof *cert.Profile
}

// Run implements transport.Task.
func (a *l1Answer) Run() {
	s, st, from, prof := a.s, a.st, a.from, a.prof
	s.l1Free.put(a)
	s.tel.sessionDone(st, L1, from, s.version, s.ep.Now())
	s.record(Discovery{
		Object:  prof.Entity,
		Node:    from,
		Level:   L1,
		Profile: prof,
		At:      s.ep.Now(),
		Round:   s.round,
	})
}

// subjSession is the subject's record of one phase-2 handshake. It is the
// task of the handshake's two compute steps (Run): it owes the object its QUE2,
// and once RES2 verified, the discovery its record. The record comes from the
// subject's free list and goes back to it (release) once it is gone from the
// table, its wheel entries are canceled and no compute step is pending.
type subjSession struct {
	s       *Subject
	gone    bool       // out of the table for good, or never filed
	pending int        // compute steps handed to Compute whose Run has not run yet
	key     sessionKey // the object's address and the round's R_S, which que2.RS views
	ro      []byte     // object nonce (borrowed from RES1), distinguishes RES1 resends from restarts
	group   groups.ID
	ts      wire.Transcript // subject-cut transcript
	que2    wire.QUE2
	que2Enc []byte // cached encoding, resent verbatim on timeout/duplicate RES1
	round   int
	stamps  phaseStamps

	// What a verified RES2 found: the level it verified at and the decoded
	// PROF_O. Set, the session owes its record rather than its QUE2.
	level Level
	prof  *cert.Profile

	// The session keys, prepared (K3 zero when QUE2 carries no MAC_{S,3}),
	// and the finished MACs QUE2 carries, which q.MACS2 and q.MACS3 view.
	// Wiped when the session leaves the table (wipe).
	k2, k3       suite.Key
	macS2, macS3 [suite.MACSize]byte

	// Wheel entries for the pending retransmission and the TTL expiry (the
	// session is their task: due), the attempt the retransmission fires as,
	// the transport time of the last QUE2 (re)send the RTO horizon is measured
	// from, and whether QUE2 was ever resent (then RES2 is no RTT sample).
	// Never scheduled under the zero policy.
	que2Timer   wheelEntry
	expiry      wheelEntry
	que2Attempt int
	sentAt      time.Duration
	resent      bool

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
		ledger:   ledger{costs: costs},
		sessions: make(map[sessionKey]*subjSession),
		answered: make(map[transport.Addr]answer),
	}
	eo := applyOptions(opts)
	s.retry = eo.retry
	if eo.reg != nil || eo.tracer != nil {
		s.tel = subjectTelemetryFor(eo.reg, eo.tracer, s.version)
		s.tally = &s.tel.ops
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

// ID returns the subject's registered identity.
func (s *Subject) ID() cert.ID { return s.prov.ID }

// Refresh applies a re-provision (new PROF, rotated group keys). A changed
// trust anchor (backend re-keying) flushes the verification cache and the
// Level 1 profiles verified: results proven against the old anchor say
// nothing about the new one. Resumption tickets go either way: the objects
// hold the PROF_S each was minted with.
func (s *Subject) Refresh(prov *backend.SubjectProvision) {
	if !bytes.Equal(s.prov.CACert, prov.CACert) {
		s.vcache.Flush()
		s.known.flush()
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
	if err := suite.FillNonce(&s.rs, nil); err != nil {
		return err
	}
	s.round++
	for _, sess := range s.sessions {
		if sess.round < s.round-1 {
			s.dropSession(sess)
		}
	}
	s.wheel.cancel(&s.que1Timer)
	s.que1At = s.ep.Now()
	s.probed = false
	s.lastTTL = ttl
	s.tel.roundStarted()
	q := wire.QUE1{Version: s.version, RS: s.rs[:]}
	var hints [wire.HintBlockSize + 8]byte
	if s.retry.Enabled() {
		q.Hints = s.hints(&hints)
	}
	s.expect()
	s.que1Enc = q.AppendTo(s.frames.Take(q.EncodedSize()))
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
// off the slot index. The block is built in fill, whose last 8 bytes are the
// permutation's randomness. Each ticket that made the block is marked with
// the round: its peer's answer is a short RES1 (expect).
func (s *Subject) hints(fill *[wire.HintBlockSize + 8]byte) []byte {
	rand.Read(fill[:])
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
	known := s.tickets.recent(buf[:], s.now())
	for i, t := range known {
		h := t.secret.Hint(s.rs[:])
		copy(block[slot[i]*wire.HintSize:], h[:])
		t.hinted = s.round
	}
	s.spend(ops{hmac: len(known)}, nop{})
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
// expected and silent. An expected peer whose ticket made this round's hint
// block is expected on a light leg: its answer, a short RES1, costs it no
// public-key operation. The engine's first round is blind, and every
// blindEvery-th after it at a phase taken from the subject's ID, so that a
// fleet started together does not rebroadcast together and a fixed-seed run
// repeats.
func (s *Subject) expect() {
	s.silentFull = 0
	for a, e := range s.answered {
		if e.round < s.round-blindEvery {
			delete(s.answered, a)
			continue
		}
		t := s.tickets.get(a)
		if light := t != nil && t.hinted == s.round; light != e.light {
			e.light = light
			s.answered[a] = e
		}
		if !e.light {
			s.silentFull++
		}
	}
	s.silent = len(s.answered)
	s.blind = s.round == 1 || s.round%blindEvery == int(s.prov.ID[len(s.prov.ID)-1])%blindEvery
}

// credit enters this round's discovery from an object into the ledger (the
// callers have checked it is the round's first from there). When the last
// expected peer is heard the round has nothing left to ask for, and the
// pending rebroadcast goes; a blind round keeps it, for the peers no ledger
// shows. Otherwise the discovery is round activity, and it may have changed
// which horizon the rebroadcast waits at.
func (s *Subject) credit(from transport.Addr) {
	e, known := s.answered[from]
	if known {
		s.silent--
		if !e.light {
			s.silentFull--
		}
	}
	s.answered[from] = answer{round: s.round, light: e.light}
	if s.probing() {
		s.noteActivity()
	} else {
		s.wheel.cancel(&s.que1Timer)
	}
}

// heard reports whether a discovery from the object at from is recorded for
// the current round.
func (s *Subject) heard(from transport.Addr) bool { return s.answered[from].round == s.round }

// probing reports whether the current round may still arm, fire or defer
// QUE1 rebroadcasts: never under the zero policy, not after CompleteRound,
// not past the round's lifetime, and only while an expected peer is silent or
// the round is blind.
func (s *Subject) probing() bool {
	return s.retry.Enabled() && s.completedRound != s.round &&
		(s.silent > 0 || s.blind) &&
		s.ep.Now()-s.que1At < roundLifetimeTTLs*s.retry.ttl()
}

// que1Wait returns how long the attempt-th QUE1 rebroadcast waits: the light
// horizon while every silent expected peer was hinted, the policy's schedule
// otherwise — in a round where an unhinted or a Level 1 peer is silent, and
// for a blind round's probes once everyone expected has answered.
func (s *Subject) que1Wait(attempt int) time.Duration {
	if s.que1Light() {
		return s.rtt.light(attempt)
	}
	return s.retry.delay(attempt)
}

// que1Light reports whether the round's rebroadcast waits at the light
// horizon: an expected peer is silent, every silent one answers on a light
// leg, and the estimator holds a sample.
func (s *Subject) que1Light() bool {
	return s.silent > 0 && s.silentFull == 0 && s.rtt.valid
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
// The wait is the light horizon while every silent peer was hinted, and the
// policy's schedule otherwise (que1Wait).
// What the ledger cannot show — an object never heard — gets every round's
// first QUE1 and, in a blind round, the whole chain regardless of who
// answered. Either way a rebroadcast is cheap for whoever did answer: objects
// suppress the duplicate via R_S, and objects with a stalled handshake use it
// as a cue to resend RES1. The decision reads (address, answered) only, and
// its timing whether a silent peer was hinted: a Level 3 object answers as a
// Level 2 one on the air and holds a ticket as one does, so when a subject
// rebroadcasts tells an observer nothing the answers did not (§VII Case 7).
//
// The fire reads s.que1Attempt rather than the attempt it was armed with, so
// that noteActivity's chain reset takes effect on an already-armed
// rebroadcast.
func (s *Subject) armQue1(attempt int) {
	if !s.probing() {
		return
	}
	s.que1Attempt = attempt
	s.wheel.scheduleIn(&s.que1Timer, s.que1Wait(attempt), s)
}

// due is the rebroadcast armQue1 armed falling due.
func (s *Subject) due(*wheelEntry) {
	if !s.probing() {
		return // past the round's lifetime
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
}

// noteActivity records that current-round discovery traffic is still
// arriving: the pending QUE1 rebroadcast is pushed out to now + RTO, and the
// chain is reset to attempt 1 — activity is proof the round is live, so the
// retry budget guards consecutive silence, not a round's total. If the budget
// was already exhausted while the network (or a compute backlog) sat on the
// responses, the chain is re-armed: late traffic revives recovery for whatever
// sessions expired during the stall. On a full leg the configured schedule
// remains the floor — deferTo never moves a deadline earlier; on a light one
// the deadline is now + the light horizon, earlier than before if the peer
// that was holding it at the full horizon has just answered. None of it
// happens in a round with nobody left to hear (probing).
func (s *Subject) noteActivity() {
	if !s.probing() {
		return
	}
	s.que1Attempt = 1
	switch {
	case s.que1Timer.live && !s.que1Light():
		s.wheel.deferTo(&s.que1Timer, s.ep.Now()+s.rtt.rto(s.retry.Timeout))
	case s.que1Timer.live || s.retry.Que1Retries > 0:
		s.armQue1(1)
	}
}

// noteEcho is noteActivity for a RES1 an object resent for a live session —
// what a rebroadcast draws from a peer that kept its half. On a full leg it is
// activity like any other. On a light leg it moves the pending rebroadcast to
// now + the horizon of the chain's current attempt, and neither resets nor
// revives the chain: the peer's handshake is stalled past QUE1, where the
// QUE2 retransmission owns recovery, and a peer that echoes every rebroadcast
// — one that refuses this subject since a revocation — would otherwise draw
// one a light horizon for the round's whole lifetime.
func (s *Subject) noteEcho() {
	switch {
	case !s.que1Light():
		s.noteActivity()
	case s.probing() && s.que1Timer.live:
		s.armQue1(s.que1Attempt)
	}
}

// sampleRES1 times the QUE1→RES1 leg of a first-seen RES1, unless a probe
// made the sample ambiguous (Karn's rule).
func (s *Subject) sampleRES1() {
	if !s.probed {
		s.rtt.observe(s.ep.Now() - s.que1At)
	}
}

// dropSessionTimers cancels a session's pending wheel entries.
func (s *Subject) dropSessionTimers(sess *subjSession) {
	s.wheel.cancel(&sess.que2Timer)
	s.wheel.cancel(&sess.expiry)
}

// dropSession takes sess out of the table for good: its deadlines go, its
// keys are wiped, and the record is released. The caller reads nothing of it
// afterwards.
func (s *Subject) dropSession(sess *subjSession) {
	s.unfile(sess)
	s.discard(sess)
}

// unfile takes sess out of the table for good, with its deadlines; the record
// and its keys stay the caller's.
func (s *Subject) unfile(sess *subjSession) {
	s.dropSessionTimers(sess)
	delete(s.sessions, sess.key)
	s.syncPending()
	sess.gone = true
}

// discard wipes the keys of a session that is gone and releases its record.
func (s *Subject) discard(sess *subjSession) {
	sess.wipe()
	s.release(sess)
}

// release returns sess to the free list if nothing references it any more:
// it is out of the table, neither wheel entry is live and no compute step is
// pending (the simulator runs a step's Run later). A record already released
// is zero, not gone, and is left alone.
func (s *Subject) release(sess *subjSession) {
	if sess.gone && sess.pending == 0 && !sess.que2Timer.live && !sess.expiry.live {
		s.sessFree.put(sess)
	}
}

// wipe zeroes the session keys.
func (sess *subjSession) wipe() {
	sess.k2.Wipe()
	sess.k3.Wipe()
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
	s.wheel.cancel(&s.que1Timer)
	for _, sess := range s.sessions {
		if sess.round == s.round {
			s.wheel.cancel(&sess.que2Timer)
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

// Handle implements transport.Handler. The message is decoded into a value on
// the stack; its byte fields are windows on payload.
func (s *Subject) Handle(from transport.Addr, payload []byte) {
	switch {
	case len(payload) == 0:
	case payload[0] == byte(wire.TRES1):
		var m wire.RES1
		if m.DecodeFrom(payload) == nil {
			s.handleRES1(from, &m, payload)
			return
		}
	case payload[0] == byte(wire.TRES2):
		var m wire.RES2
		if m.DecodeFrom(payload) == nil {
			s.handleRES2(from, &m)
			return
		}
	default:
		return // an overheard QUE1 or QUE2: not worth a decode
	}
	s.tel.malformedDrop()
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
	case wire.ModePublicKnown:
		if s.retry.Enabled() {
			s.handleKnownRES1(from, m)
		}
	}
}

// handlePublicRES1 processes a Level 1 response: verify the admin signature
// on the plaintext profile (the subject's only compute-intensive operation in
// Level 1, Fig 6b). Under an enabled policy the verified profile is filed for
// the object's known answers.
func (s *Subject) handlePublicRES1(from transport.Addr, m *wire.RES1) {
	if s.heard(from) {
		// Duplicate delivery of this round's plaintext RES1 (every
		// rebroadcast draws one). Tested before the verification it would
		// otherwise pay for nothing; the entry is only ever made after one
		// succeeded.
		return
	}
	prof, err := s.vcache.DecodeProfile(m.Prof, s.prov.CACert, s.prov.AdminPub, s.now())
	if err != nil || prof.Kind != cert.RoleObject {
		return
	}
	if s.retry.Enabled() {
		s.known.file(from, m.Prof, prof, s.round)
	}
	s.discoverL1(from, prof, ops{verify: 1})
}

// handleKnownRES1 processes a Level 1 known answer (DESIGN.md §15): the
// digest of a profile this subject verified from the same address is the
// round's discovery of it, inside the profile's window, with no verification.
// Anything else is dropped and counted; the peer stays silent, and the
// round's rebroadcast draws the full RES1, which the object gives every
// duplicate.
func (s *Subject) handleKnownRES1(from transport.Addr, m *wire.RES1) {
	if s.heard(from) {
		return
	}
	prof := s.known.lookup(from, m.ProfDigest, s.now(), s.round)
	if prof == nil {
		s.tel.knownDrop()
		return
	}
	s.discoverL1(from, prof, ops{})
}

// discoverL1 credits the round's Level 1 discovery of prof from the object at
// from and records it once spent, what checking the answer took, has passed.
func (s *Subject) discoverL1(from transport.Addr, prof *cert.Profile, spent ops) {
	s.sampleRES1()
	s.credit(from)
	a := s.l1Free.get()
	a.s, a.from, a.prof = s, from, prof
	a.st = phaseStamps{session: s.tel.session(), que1At: s.que1At, res1At: s.ep.Now()}
	s.spend(spent, a)
}

// handleSecureRES1 runs the subject side of phase 2: authenticate the
// object, establish K2 (and K3 from the active group key), and send QUE2.
func (s *Subject) handleSecureRES1(from transport.Addr, m *wire.RES1, raw []byte) {
	if s.round == 0 {
		return // no discovery in progress
	}
	if s.heard(from) {
		return // already credited this object this round: stale restart echo
	}
	old, live := s.sessions[mkSessionKey(from, s.rs[:])]
	if live && (!s.retry.Enabled() || bytes.Equal(old.ro, m.RO)) {
		// Duplicate RES1 for a live handshake (link-layer duplication, or
		// the object resent it after a QUE1 rebroadcast). Deriving a fresh
		// KEX here would desync K2 with an object that already consumed
		// our QUE2, deadlocking the session until expiry — so never
		// re-handshake. Nor is QUE2 resent here: the session's own RTO
		// timer owns that, and answering every duplicate too turns one
		// congested-start rebroadcast into a QUE1→RES1→QUE2→RES2 echo
		// storm across the whole fleet. The duplicate is recorded as
		// round activity and nothing more (noteEcho).
		s.noteEcho()
		return
	}
	// Otherwise, over a live session, this is a fresh R_O under the same R_S:
	// the object restarted the handshake after its session aged out, or
	// refused a short QUE2. The state the cached QUE2 covers no longer exists
	// — resending it can only be rejected — so the QUE2 answering this RES1
	// supersedes the doomed session (sendQUE2).
	s.sampleRES1()
	s.noteActivity()
	switch {
	case m.Mode == wire.ModeResume:
		t := s.tickets.get(from)
		if t == nil || !t.valid(s.now()) {
			t = decoyTicket()
		}
		s.resumedQUE2(from, m, raw, t)
	case live && old.short:
		// The signed RES1 is the object's refusal of the short QUE2 that
		// answered its short RES1 (Object.resumeQUE2). Once SIG_O shows it is
		// the object's, the ticket goes. (The QUE2 supersedes old, whose
		// record may be reused from then on: its ticket is read first.)
		id := old.next.id
		if s.fullQUE2(from, m, raw) {
			s.tel.resumption(resultRefused)
			s.dropTicket(from, id)
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
	if t == nil || t.certO != sha256.Sum256(certO) || !t.valid(s.now()) {
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
	signed := m.AppendSignedPart(wire.GetScratch(), s.rs[:])
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

	sess := s.newSession(from)
	q := &sess.que2
	q.ProfS, q.CertS, q.KEXMS = s.prov.Profile.Encode(), s.prov.CertDER, kex.Public()
	// The QUE2 signature input doubles as the transcript prefix: build it
	// once in pooled scratch, sign it, hash it into the session's transcript.
	var k2 [suite.KeySize]byte
	suite.SessionKey2To(&k2, preK, s.rs[:], m.RO)
	sigIn := wire.AppendSigInputQUE2(wire.GetScratch(), s.que1Enc, raw, q)
	sig, err := s.prov.Key.Sign(sigIn)
	sess.ts.Add(sigIn, sig)
	wire.PutScratch(sigIn)
	if err != nil {
		sess.gone = true // never filed
		s.discard(sess)
		return false
	}
	q.Sig = sig
	if s.retry.Enabled() {
		sess.next = ticket{certO: sha256.Sum256(m.CertO), notBefore: info.NotBefore, notAfter: info.NotAfter}
	}
	// Fig 6b subject cost in Level 2/3: 1 signing, 3 verifications (CERT_O,
	// KEXM_O signature, and later PROF_O), 2 ECDH operations. The PROF_O
	// verification and decryption are charged at RES2 time.
	s.sendQUE2(sess, m.RO, &k2, ops{sign: 1, verify: 2, kexGen: 1, kexShared: 1})
	return true
}

// newSession starts the record of a handshake with the object at from in the
// current round, on a record from the free list. Its QUE2 echoes R_S from the
// record's own key, which outlives the round's.
func (s *Subject) newSession(from transport.Addr) *subjSession {
	sess := s.sessFree.get()
	sess.s, sess.key, sess.round = s, mkSessionKey(from, s.rs[:]), s.round
	sess.que2 = wire.QUE2{Version: s.version, RS: sess.key.rs[:]}
	return sess
}

// resumedQUE2 answers a RES1 — signed or short — from an object the subject
// holds a ticket for with the short QUE2: no CERT_O or SIG_O check, no key
// generation, no ECDH, no signature. K2′ comes from the ticket's secret and
// the two fresh nonces, and only an object holding the same secret can produce
// the MAC_O that completes the session — until then nothing the RES1 claimed
// is believed, and nothing but HMACs was spent on it.
func (s *Subject) resumedQUE2(from transport.Addr, m *wire.RES1, raw []byte, t *ticket) {
	sess := s.newSession(from)
	sess.next, sess.resumed, sess.res1, sess.short = t.binding(), true, raw, m.Mode == wire.ModeResume
	sess.que2.Ticket = sess.next.id[:]
	var k2 [suite.KeySize]byte
	t.secret.SessionKey2(&k2, s.rs[:], m.RO)
	in := wire.AppendSigInputQUE2(wire.GetScratch(), s.que1Enc, raw, &sess.que2)
	sess.ts.Add(in)
	wire.PutScratch(in)
	s.sendQUE2(sess, m.RO, &k2, ops{})
}

// sendQUE2 is the subject's phase 2 downstream of K2, the same for a full and
// a resumed session: the finished MACs over the transcript cut (K3 from the
// round's active group key), the session and its expiry, and — after the
// modeled compute time — the frame and its retransmission deadline. spent is
// what establishing K2 took; the key derivation and the MACs are added here.
// k2 is the raw K2, which K3 is derived from; sendQUE2 wipes it.
func (s *Subject) sendQUE2(sess *subjSession, ro []byte, k2 *[suite.KeySize]byte, spent ops) {
	q := &sess.que2
	tsHash := sess.ts.Hash()
	sess.tsHash = tsHash
	sess.k2.Set(k2[:])
	sess.k2.FinishedMAC(&sess.macS2, suite.LabelSubjectFinished, tsHash)
	q.MACS2 = sess.macS2[:]
	sess.ro = ro
	sess.stamps = phaseStamps{session: s.tel.session(), secure: true, que1At: s.que1At, res1At: s.ep.Now()}
	spent[hmac] += 2 // K2 derivation + MAC_{S,2}
	if s.version != wire.V10 && len(s.prov.Memberships) > 0 {
		// v2.0: MAC_{S,3} is attached only when performing Level 3 discovery,
		// i.e. when the subject actually holds a real group key — the
		// composition leak §VI-B describes. v3.0: always attached; subjects
		// without sensitive attributes use their cover-up key, so every QUE2
		// looks the same.
		mem := s.prov.Memberships[s.activeGroup%len(s.prov.Memberships)]
		if s.version == wire.V30 || !mem.CoverUp {
			var k3 [suite.KeySize]byte
			suite.SessionKey3To(&k3, k2[:], mem.Key, s.rs[:], ro)
			sess.k3.Set(k3[:])
			sess.k3.FinishedMAC(&sess.macS3, suite.LabelSubjectFinished, tsHash)
			q.MACS3 = sess.macS3[:]
			sess.group = mem.Group
			spent[hmac] += 2 // K3 derivation + MAC_{S,3}
		}
	}
	*k2 = [suite.KeySize]byte{}
	if old, ok := s.sessions[sess.key]; ok {
		s.dropSession(old) // superseded (handleSecureRES1)
	}
	s.sessions[sess.key] = sess
	s.syncPending()
	if s.retry.Enabled() {
		s.wheel.scheduleIn(&sess.expiry, s.retry.ttl(), sess)
	}
	s.spend(spent, sess)
}

// Run is the session's continuation once a compute step's modeled time has
// passed: after sendQUE2 it sends the QUE2 and arms its retransmission, after
// a verified RES2 (handleRES2) it records the discovery. A session dropped
// while the step was pending still sends its QUE2, but arms nothing: no
// retransmission of it could be answered. The record is released once the
// last step of a session out of the table has run.
func (sess *subjSession) Run() {
	s := sess.s
	sess.pending--
	if sess.prof != nil {
		s.tel.sessionDone(sess.stamps, sess.level, sess.key.peer, s.version, s.ep.Now())
		d := Discovery{
			Object:  sess.prof.Entity,
			Node:    sess.key.peer,
			Level:   sess.level,
			Profile: sess.prof,
			At:      s.ep.Now(),
			Round:   sess.round,
		}
		if sess.level == L3 {
			d.Group = uint64(sess.group)
		}
		s.release(sess)
		s.record(d)
		return
	}
	sess.stamps.que2At = s.ep.Now()
	enc := sess.que2.AppendTo(s.frames.Take(sess.que2.EncodedSize()))
	sess.que2Enc = enc
	sess.sentAt = s.ep.Now()
	s.ep.Send(sess.key.peer, enc)
	if !sess.gone && s.retry.Enabled() && s.retry.Que2Retries > 0 {
		s.armQue2(sess, 1, s.que2Wait(sess, 1))
	}
	s.release(sess)
}

// que2Wait returns how long the attempt-th QUE2 retransmission of sess
// waits. A resumed session's RES2 costs the object HMACs and one cipher pass,
// so once a round trip has been measured it waits the light horizon. A full
// one keeps the configured backoff as its floor, stretched to the observed
// round-trip horizon.
func (s *Subject) que2Wait(sess *subjSession, attempt int) time.Duration {
	if sess.resumed && s.rtt.valid {
		return s.rtt.light(attempt)
	}
	return s.rtt.rto(s.retry.delay(attempt))
}

// armQue2 arms a QUE2 retransmission deadline on the wheel (que2Wait). A
// deadline that fires early (the estimator grew after arming) re-arms for the
// remainder instead of retransmitting — on a lossless network the verified
// RES2 cancels the entry first and the wire never sees a duplicate QUE2.
func (s *Subject) armQue2(sess *subjSession, attempt int, wait time.Duration) {
	if s.completedRound == s.round && sess.round == s.round {
		return // round declared done: the answer is either in flight or refused
	}
	sess.que2Attempt = attempt
	s.wheel.scheduleIn(&sess.que2Timer, wait, sess)
}

// due runs whichever of the session's deadlines fell due.
func (sess *subjSession) due(e *wheelEntry) {
	if e == &sess.expiry {
		sess.s.expire(sess)
	} else {
		sess.s.que2Due(sess)
	}
}

// que2Due is the QUE2 retransmission deadline armQue2 armed.
func (s *Subject) que2Due(sess *subjSession) {
	if cur, ok := s.sessions[sess.key]; !ok || cur != sess || sess.que2Enc == nil {
		return
	}
	attempt := sess.que2Attempt
	if due := sess.sentAt + s.que2Wait(sess, attempt); due > s.ep.Now() {
		s.armQue2(sess, attempt, due-s.ep.Now())
		return
	}
	s.tel.retransmit(msgQUE2)
	s.ep.Send(sess.key.peer, sess.que2Enc)
	sess.sentAt = s.ep.Now()
	sess.resent = true
	if attempt < s.retry.Que2Retries {
		s.armQue2(sess, attempt+1, s.que2Wait(sess, attempt+1))
	}
}

// expire garbage-collects the session at SessionTTL (armed in sendQUE2) if it
// has not completed: under total loss nothing else would ever delete it, and a
// leaked session both holds memory and blocks the object's duplicate
// suppression from converging. The pointer comparison protects a newer
// session that reused the key (same peer, same R_S — only possible across
// rounds with a nonce collision, but cheap to be exact about).
//
// The expiry is a heap entry, not a live transport timer, and completion
// cancels it — 20k concurrent sessions hold one armed timer instead of 20k.
// Expiries are never deferred.
func (s *Subject) expire(sess *subjSession) {
	if cur, ok := s.sessions[sess.key]; ok && cur == sess {
		s.dropSession(sess)
		s.tel.sessionExpired()
	}
}

// handleRES2 completes the handshake: determine which key the object used
// (K2 → Level 2 face, K3 → Level 3 fellow), verify, decrypt, and verify the
// admin signature on the received PROF variant — unless a resumed session
// received the very bytes its ticket was minted on (ticket.boundProfile).
func (s *Subject) handleRES2(from transport.Addr, m *wire.RES2) {
	// RES2 carries no R_S echo, so locate the pending session by peer,
	// preferring the most recent round if several are outstanding.
	var sess *subjSession
	for _, c := range s.sessions {
		if c.key.peer == from && (sess == nil || c.round > sess.round) {
			sess = c
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
		s.refused(sess)
		return
	}
	if !s.retry.Enabled() {
		// The zero policy consumes the session with its first RES2.
		s.unfile(sess)
	}
	sess.stamps.res2At = s.ep.Now()
	s.noteActivity()

	toHash := transcriptOHash(sess.ts, &sess.que2, m.Ciphertext)

	var level Level
	var sk *suite.Key
	switch {
	// "S first tries to verify it with K2 ... Otherwise she uses K3" (§VI-A).
	case sess.k2.VerifyMAC(suite.LabelObjectFinished, toHash, m.MACO):
		level, sk = L2, &sess.k2
	case sess.que2.MACS3 != nil && sess.k3.VerifyMAC(suite.LabelObjectFinished, toHash, m.MACO):
		level, sk = L3, &sess.k3
	default:
		// Neither key verifies: corrupted or not for us. Under retry the
		// session stays pending — a QUE2 retransmission will fetch a clean
		// copy; the MAC guarantees any verified RES2 is byte-authentic.
		if sess.gone {
			s.discard(sess)
		}
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
		s.unfile(sess)
	}
	// The keys are wiped when the session's last use of them, the next
	// ticket, is done.

	// The plaintext lives in pooled scratch: what is kept of it is its hash
	// and the decoded profile, which copies.
	plain, err := sk.DecryptProfile(wire.GetScratch(), m.Ciphertext)
	if err != nil {
		s.discard(sess)
		return
	}
	// Service information is admin-signed end to end. A resumed session whose
	// plaintext is the PROF_O its ticket was minted on carries bytes whose
	// signature was checked then; anything else is verified now.
	now := s.now()
	var digest [32]byte
	var prof *cert.Profile
	if s.retry.Enabled() {
		digest = sha256.Sum256(plain)
		prof = sess.next.boundProfile(digest, now)
	}
	spent := ops{hmac: 2, cipher: 1}
	if prof == nil {
		prof, err = s.vcache.DecodeProfile(plain, s.prov.CACert, s.prov.AdminPub, now)
		spent[verify] = 1
	}
	wire.PutScratch(plain)
	if err != nil || prof.Kind != cert.RoleObject {
		s.discard(sess)
		return
	}

	if s.retry.Enabled() {
		// The handshake is complete and everything it carried is verified:
		// file the ticket for the next one. After a resumed session this is
		// the ratchet step — the ticket just used is overwritten in place. A
		// reused profile narrowed the window when it was bound.
		next := s.tickets.mint(from, &sess.next, &sess.k2, sess.tsHash)
		if spent[verify] > 0 {
			next.narrowTo(prof.Window())
			next.profO, next.prof = digest, prof
		}
		if sess.resumed {
			s.tel.resumption(resultResumed)
		} else {
			s.tel.resumption(resultMinted)
		}
		spent[hmac]++
	}
	sess.wipe()
	sess.level, sess.prof = level, prof
	s.spend(spent, sess)
}

// refused handles the empty RES2 by which an object declines the ticket of a
// resumed session (evicted, flushed, expired, or a ratchet step ahead after a
// lost RES2): forget the ticket and finish the full handshake from the RES1
// the session kept. The object left its half of the session pending for
// exactly this, so the round loses one round trip and waits for no timer. A
// forged refusal buys an attacker nothing more than that full handshake.
func (s *Subject) refused(sess *subjSession) {
	s.tel.resumption(resultRefused)
	peer, round, raw := sess.key.peer, sess.round, sess.res1
	s.dropTicket(peer, sess.next.id)
	s.dropSession(sess)
	s.noteActivity()
	if round != s.round {
		return // R_S has moved on; the new round handshakes for itself
	}
	var res1 wire.RES1
	if res1.DecodeFrom(raw) == nil {
		s.fullQUE2(peer, &res1, raw)
	}
}

// dropTicket forgets the ticket with the given id a refused session presented
// to the object at peer, unless a newer one has replaced it since.
func (s *Subject) dropTicket(peer transport.Addr, id ticketID) {
	if t := s.tickets.get(peer); t != nil && t.id == id {
		s.tickets.drop(peer)
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
