package core

import (
	"bytes"
	"encoding/binary"
	"sync/atomic"
	"time"

	"argus/internal/attr"
	"argus/internal/backend"
	"argus/internal/cert"
	"argus/internal/suite"
	"argus/internal/transport"
	"argus/internal/wire"
)

// Object is the object-side discovery engine: one per IoT device on the
// ground network. It implements transport.Handler and answers QUE1/QUE2 per
// its level and protocol version.
type Object struct {
	prov    *backend.ObjectProvision
	version wire.Version
	ledger  // ep, the cost table and the op counters

	sessions map[sessionKey]*objSession // the Level 2/3 handshakes awaiting their QUE2
	seen     map[sessionKey]bool        // duplicate-query suppression via R_S (§IV-B), zero policy; nil until used
	revoked  map[cert.ID]bool
	retry    RetryPolicy // zero value: one-shot seed behavior (see RetryPolicy)
	tel      *objectTelemetry

	// wheel coalesces session expiries onto one armed timer; nil under the
	// zero policy, which arms none.
	wheel *timerWheel

	// pendingN mirrors len(sessions)+len(answers) for cross-goroutine reads
	// (core.go contract); vcache memoizes credential verifications
	// (WithVerifyCache).
	pendingN atomic.Int64
	vcache   *cert.VerifyCache

	// tickets holds the resumption tickets minted for subjects, by subject
	// address (resume.go).
	tickets ticketTable

	// The resend cache, under an enabled policy: the answers kept for a
	// duplicate query (Level 1's RES1, an answered handshake's RES2) by query,
	// and their deadlines oldest first (order). They expire in the order they
	// were cached, so the head is always the next to go and one wheel entry,
	// armed for the head, serves them all: cacheTimer, whose task is the
	// Object (due). A cached answer is a value, not a session: a handshake's
	// record leaves the table when it is answered.
	answers    map[sessionKey]cachedAnswer
	order      cacheRing
	cacheTimer wheelEntry

	// free holds the session records nothing references any more, for the
	// next session to reuse (freeList).
	free freeList[objSession]

	// frames carves the frames the object sends (transport.Slab).
	frames transport.Slab

	// publicRES1 and variantEnc are the wire encodings of a Level 1 object's
	// one answer and of each prov.Variants[i].Profile, made when the provision
	// arrives, not per answer; knownRES1 is the known answer that stands for
	// publicRES1 (wire.ModePublicKnown), of fixed length.
	publicRES1 []byte
	knownRES1  *[wire.KnownRES1Size]byte
	variantEnc [][]byte

	// known holds, by address, the subjects a Level 1 object sent publicRES1
	// in answer to a hinted QUE1, each with the R_S tag of the last QUE1 it
	// answered from there (knownAnswer). Nil until the first; Refresh empties
	// it, since what its members verified is the old publicRES1.
	known map[transport.Addr]uint64
}

// Resource bounds. DoS resistance is a non-goal of the paper (§III), but an
// unbounded session table would let any broadcaster exhaust object memory;
// constrained objects cap pending handshakes and periodically forget old
// duplicate-detection state.
//
// maxPendingSessions bounds the handshakes awaiting their QUE2 — the sessions
// that hold key material and that a flood of QUE1s opens. maxResendCache
// bounds the answers kept for duplicates, separately: they live TTL/2 whatever
// the object does, so counted against the first bound they capped an object at
// 64 sessions/s. Past it the oldest answer is shed; its subject, should it
// still be asking, restarts the handshake with its next probe.
const (
	maxPendingSessions = 256
	maxResendCache     = 256
	maxSeenQueries     = 4096
)

// objSession is the object's record of one Level 2/3 handshake, from its QUE1
// to the RES2 answering its QUE2. It is the task of the handshake's compute
// steps (Run) and of its expiry (due). The record comes from the object's free
// list and goes back to it (release) once it is gone from the table, its
// expiry canceled and no compute step pending.
type objSession struct {
	o       *Object
	pending int // compute steps handed to Compute whose Run has not run yet
	key     sessionKey
	rs      []byte
	ro      [suite.NonceSize]byte
	kex     *suite.KeyExchange
	que1Enc []byte
	res1Enc []byte
	// owed is the RES1 or RES2 the session sends once the modeled compute time
	// of building it has passed; the session is that continuation's task (Run).
	owed []byte

	// short marks a session whose RES1 was the short form, answering a QUE1
	// hint under the ticket of subject. It has no kex until a short QUE2 the
	// object cannot honour upgrades it in place (resumeQUE2).
	short   bool
	subject cert.ID

	answered bool // QUE2 consumed; the handshake outcome is fixed
	gone     bool // removed from the table

	// expiry collects the session if no QUE2 answers it within the TTL;
	// canceled when one does, or when the session is removed. What has left
	// the table is referenced by nothing.
	expiry wheelEntry
}

// due collects a session no QUE2 answered within the TTL (scheduleGC).
func (sess *objSession) due(*wheelEntry) {
	o := sess.o
	o.remove(sess)
	o.tel.sessionExpired()
	o.release(sess)
}

// Run sends the frame the session owes: its RES1 while the handshake waits for
// QUE2, its RES2 once answered. From then on the frame is the copy a
// duplicate query is answered with: the session's RES1, the resend cache's
// RES2. A session removed while the step was pending still sends it; its
// record is released once its last step has run.
func (sess *objSession) Run() {
	o := sess.o
	sess.pending--
	// out is nil when a second RES1 for the session superseded this one, and
	// went.
	if out := sess.owed; out != nil {
		sess.owed = nil
		if !sess.answered {
			sess.res1Enc = out
		} else if a, ok := o.answers[sess.key]; ok && a.sess == sess {
			a.enc, a.sess = out, nil
			o.answers[sess.key] = a
		}
		o.ep.Send(sess.key.peer, out)
	}
	o.release(sess)
}

// newSession returns a record from the free list for the QUE1 of key.
func (o *Object) newSession(key sessionKey) *objSession {
	sess := o.free.get()
	sess.o, sess.key = o, key
	return sess
}

// release returns sess to the free list if nothing references it any more:
// it is out of the table, its expiry is canceled and no compute step is
// pending (the simulator runs a step's Run later; a cached answer refers to
// its session only until then). A record already released is zero, not gone,
// and is left alone.
func (o *Object) release(sess *objSession) {
	if sess.gone && sess.pending == 0 && !sess.expiry.live {
		o.free.put(sess)
	}
}

// NewObject creates an engine from a backend provision, applying any
// construction options (see Option). version selects the protocol iteration
// (v3.0 for the full system).
func NewObject(prov *backend.ObjectProvision, version wire.Version, costs Costs, opts ...Option) *Object {
	o := &Object{
		prov:     prov,
		version:  version,
		ledger:   ledger{costs: costs},
		sessions: make(map[sessionKey]*objSession),
		revoked:  make(map[cert.ID]bool),
	}
	for _, id := range prov.Revoked {
		o.revoked[id] = true
	}
	o.encodeProfiles()
	eo := applyOptions(opts)
	o.retry = eo.retry
	if eo.reg != nil {
		o.tel = objectTelemetryFor(eo.reg)
		o.tally = &o.tel.ops
	}
	o.vcache = eo.vcache
	if eo.ep != nil {
		o.Bind(eo.ep)
	}
	return o
}

// Bind attaches the engine to a transport endpoint and installs it as the
// endpoint's inbound handler. Call once, before traffic flows; engines
// constructed with WithEndpoint are already bound.
func (o *Object) Bind(ep transport.Endpoint) {
	o.ep = ep
	if o.retry.Enabled() {
		o.wheel = newTimerWheel(ep)
	}
	ep.Bind(o)
}

// encodeProfiles fills publicRES1, knownRES1 and variantEnc from the current
// provision.
func (o *Object) encodeProfiles() {
	res := &wire.RES1{Version: o.version, Mode: wire.ModePublic}
	if p := o.prov.PublicProfile; p != nil {
		res.Prof = p.Encode()
	}
	digest := wire.ProfileDigest(res.Prof)
	known := &wire.RES1{Version: o.version, Mode: wire.ModePublicKnown, ProfDigest: digest[:]}
	o.publicRES1, o.knownRES1 = res.Encode(), new([wire.KnownRES1Size]byte)
	known.AppendTo(o.knownRES1[:0])
	o.variantEnc = make([][]byte, 0, len(o.prov.Variants))
	for _, v := range o.prov.Variants {
		o.variantEnc = append(o.variantEnc, v.Profile.Encode())
	}
}

// PendingSessions returns the number of sessions held: the handshakes
// pending, and the answers cached for duplicates. Safe to call from any
// goroutine (it reads a mirror the event loop maintains).
func (o *Object) PendingSessions() int { return int(o.pendingN.Load()) }

// syncPending republishes len(sessions)+len(answers) after a mutation;
// event-loop only.
func (o *Object) syncPending() { o.pendingN.Store(int64(len(o.sessions) + len(o.answers))) }

// Tickets returns the number of resumption tickets held for subjects. Safe to
// call from any goroutine.
func (o *Object) Tickets() int { return o.tickets.size() }

// ID returns the object's registered identity.
func (o *Object) ID() cert.ID { return o.prov.ID }

// Name returns the object's registered name.
func (o *Object) Name() string { return o.prov.Name }

// Level returns the object's secrecy level. The object keeps this to itself
// (§IV-A); it is exposed here for experiment bookkeeping only.
func (o *Object) Level() Level { return o.prov.Level }

// Refresh applies a re-provision (after backend churn: policy changes, group
// re-keying, revocation notifications). Cache hygiene: a changed trust anchor
// flushes the verification cache wholesale, and every subject revoked in the
// new provision is individually invalidated, so a blacklisted peer's warm
// credentials can never satisfy the next handshake. Resumption tickets are
// dropped wholesale: what they vouch for was checked against the old
// provision, and every subject pays one full handshake against the new one.
// So does every Level 1 known answer: the next answer to each subject is the
// full RES1 of the new provision.
func (o *Object) Refresh(prov *backend.ObjectProvision) {
	if !bytes.Equal(o.prov.CACert, prov.CACert) {
		o.vcache.Flush()
	}
	o.tickets.flush()
	o.known = nil
	o.prov = prov
	o.encodeProfiles()
	o.revoked = make(map[cert.ID]bool, len(prov.Revoked))
	for _, id := range prov.Revoked {
		o.revoked[id] = true
		o.vcache.InvalidateEntity(id)
	}
}

// Revoke adds a subject to the object's local blacklist (a backend
// notification arriving on the ground, §VIII) and drops the subject's cached
// credential verifications. Its resumption tickets stay on file until they
// expire, are evicted or Refresh flushes them: a hint under one is how the
// object recognises the subject's QUE1 and leaves it unanswered, for one HMAC.
func (o *Object) Revoke(subject cert.ID) {
	o.revoked[subject] = true
	o.vcache.InvalidateEntity(subject)
}

// Handle implements transport.Handler. The message is decoded into a value on
// the stack; its byte fields are windows on payload.
func (o *Object) Handle(from transport.Addr, payload []byte) {
	switch {
	case len(payload) == 0:
	case payload[0] == byte(wire.TQUE1):
		var m wire.QUE1
		if m.DecodeFrom(payload) == nil {
			o.handleQUE1(from, &m, payload)
			return
		}
	case payload[0] == byte(wire.TQUE2):
		var m wire.QUE2
		if m.DecodeFrom(payload) == nil {
			o.handleQUE2(from, &m)
			return
		}
	default:
		return // an overheard RES1 or RES2: not worth a decode
	}
	// Malformed traffic (noise, or fault-injected corruption) is dropped, but
	// not silently: the counter makes corruption storms visible.
	o.tel.malformedDrop()
}

func (o *Object) handleQUE1(from transport.Addr, m *wire.QUE1, raw []byte) {
	if len(m.RS) != suite.NonceSize {
		return
	}
	key := mkSessionKey(from, m.RS)
	if o.retry.Enabled() {
		// The session table is the duplicate detection: it holds every QUE1
		// answered within the last TTL/2 at least. A duplicate for a session
		// still awaiting its QUE2 means the subject likely lost our RES1 —
		// resend the cached bytes. One whose session already aged out is a
		// restart cue, not a flood echo: the subject is still rebroadcasting
		// past a full SessionTTL, so suppressing it would strand the round
		// forever (both sides expired, nothing left to resend); it runs the
		// full fresh-QUE1 path, with QUE2 signature freshness as the real
		// replay guard. The same serves a QUE1 that was refused at a full
		// session table once the table has room. A Level 1 object keeps no
		// session, only its answer.
		if a, ok := o.answers[key]; ok {
			o.tel.que1Result(resultDuplicate)
			if a.public {
				o.tel.retransmit(msgRES1)
				o.ep.Send(from, a.enc)
			}
			return
		}
		if sess, ok := o.sessions[key]; ok {
			o.tel.que1Result(resultDuplicate)
			if sess.res1Enc != nil {
				o.tel.retransmit(msgRES1)
				o.ep.Send(from, sess.res1Enc)
			}
			return
		}
	} else {
		// The zero policy consumes a session with its first QUE2 and never
		// rebroadcasts: a flooded QUE1 arriving via another path is ignored,
		// the seed's absolute suppression.
		if o.seen[key] {
			o.tel.que1Result(resultDuplicate)
			return
		}
		if o.seen == nil || len(o.seen) >= maxSeenQueries {
			// Made on first use, reset coarsely: old R_S values have long
			// completed or timed out; signature freshness catches replays.
			o.seen = make(map[sessionKey]bool)
		}
		o.seen[key] = true
	}
	if len(o.sessions) >= maxPendingSessions {
		o.tel.que1Result(resultRefused)
		return // refuse new handshakes until pending ones complete
	}

	if o.prov.Level == L1 {
		// Level 1: return the signed profile in plaintext. No
		// compute-intensive operation on the object (Fig 6b), and the same
		// bytes to every subject.
		enc, result := o.publicRES1, resultPublic
		if o.retry.Enabled() {
			// Cache the answer so a duplicate QUE1 can resend it (the
			// public path has no QUE2 to drive retransmission otherwise); it
			// goes at TTL/2, which bounds the resend window. handleQUE2
			// ignores a QUE2 that finds it. What goes out first may be the
			// known answer; a duplicate always gets the full one.
			o.cache(key, cachedAnswer{enc: enc, public: true})
			if len(m.Hints) > 0 && o.knownSubject(from, m.RS) {
				enc, result = o.knownRES1[:], resultKnown
			}
		}
		o.tel.que1Result(result)
		o.ep.Send(from, enc)
		return
	}

	// Level 2/3: respond with a nonce, and with handshake material unless the
	// subject holds a ticket, and await QUE2 — or, to a revoked subject the
	// hint names, not at all: the silence its QUE2 would meet, for one HMAC.
	t, spent := o.hintedTicket(from, m)
	if t != nil && o.revoked[t.subject] {
		o.tel.que1Result(resultRejected)
		o.spend(spent, nop{})
		return
	}
	sess := o.newSession(key)
	sess.rs, sess.que1Enc = m.RS, raw // windows on raw, like every decoded field
	o.open(sess)
	o.scheduleGC(sess)
	if t == nil {
		if !o.signRES1(sess, spent) {
			o.drop(sess)
			return
		}
		o.tel.que1Result(resultHandshake)
		return
	}
	if err := suite.FillNonce(&sess.ro, nil); err != nil {
		o.drop(sess)
		return
	}
	sess.short, sess.subject = true, t.subject
	o.tel.que1Result(resultResume)
	res := wire.RES1{Version: o.version, Mode: wire.ModeResume, RO: sess.ro[:]}
	sess.owed = res.AppendTo(o.frames.Take(res.EncodedSize()))
	o.spend(spent, sess)
}

// hintedTicket returns the ticket held for the subject at from if the QUE1
// carries its hint — the subject still holds it too, a ratchet step neither
// ahead nor behind — and what finding out took: one HMAC when there is a
// ticket on file for the address, nothing for a stranger, a Level 1 object or
// the zero policy, which files no tickets and is sent no hints. The ticket of a
// revoked subject is returned like any other; the caller answers it silence.
func (o *Object) hintedTicket(from transport.Addr, m *wire.QUE1) (*ticket, ops) {
	t := o.tickets.get(from)
	if t == nil || len(m.Hints) == 0 {
		return nil, ops{}
	}
	if !m.HasHint(t.secret.Hint(m.RS)) || !t.valid(o.now()) {
		t = nil
	}
	return t, ops{hmac: 1}
}

// knownSubject reports whether a Level 1 object answers the first copy of a
// hinted QUE1 with R_S rs from the subject at from with the known answer
// (DESIGN.md §15): whether it sent that subject its current publicRES1 before,
// for another QUE1. Either way the subject is known from here on. The tag of
// rs kept per subject tells a duplicate the resend cache no longer holds from
// a new round's QUE1, so every duplicate gets the full answer. The set is
// bounded like seen: past maxSeenQueries subjects it starts over, and each
// subject it forgot gets the full answer once more.
func (o *Object) knownSubject(from transport.Addr, rs []byte) bool {
	tag := binary.LittleEndian.Uint64(rs)
	last, member := o.known[from]
	if !member && len(o.known) >= maxSeenQueries {
		o.known = nil
	}
	if o.known == nil {
		o.known = make(map[transport.Addr]uint64)
	}
	o.known[from] = tag
	return member && last != tag
}

// signRES1 gives sess a fresh R_O and ephemeral key and sends the RES1 that
// carries them under the object's signature (§V): the answer to a QUE1 from a
// subject the object holds no ticket with, and the refusal of a short QUE2 it
// cannot honour. It becomes the session's res1Enc once the modeled compute
// time — spent plus one key generation and one signature — has passed.
func (o *Object) signRES1(sess *objSession, spent ops) bool {
	if err := suite.FillNonce(&sess.ro, nil); err != nil {
		return false
	}
	kex, err := suite.NewKeyExchange(o.prov.Strength, nil)
	if err != nil {
		return false
	}
	res := wire.RES1{
		Version: o.version,
		Mode:    wire.ModeSecure,
		RO:      sess.ro[:],
		CertO:   o.prov.CertDER,
		KEXMO:   kex.Public(),
	}
	signed := res.AppendSignedPart(wire.GetScratch(), sess.rs)
	sig, err := o.prov.Key.Sign(signed)
	wire.PutScratch(signed)
	if err != nil {
		return false
	}
	res.Sig = sig
	sess.kex, sess.res1Enc = kex, nil
	sess.owed = res.AppendTo(o.frames.Take(res.EncodedSize()))
	spent[kexGen]++
	spent[sign]++
	o.spend(spent, sess)
	return true
}

// open files sess in the session table, over whatever the key held.
func (o *Object) open(sess *objSession) {
	if old, ok := o.sessions[sess.key]; ok {
		o.drop(old)
	}
	o.sessions[sess.key] = sess
	o.syncPending()
}

// drop removes sess and releases its record. The caller reads nothing of it
// afterwards.
func (o *Object) drop(sess *objSession) {
	o.remove(sess)
	o.release(sess)
}

// remove takes sess out of the session table; the record stays the caller's.
func (o *Object) remove(sess *objSession) {
	delete(o.sessions, sess.key)
	o.syncPending()
	sess.gone = true
	o.wheel.cancel(&sess.expiry)
}

// cachedAnswer is a reply kept in the resend cache and resent verbatim to a
// duplicate query — a duplicate means the subject lost it. Resends must be
// byte-identical or MACs over the transcript would break, and re-running the
// response path would leak through timing.
type cachedAnswer struct {
	// enc is the frame: a Level 1 RES1 (public), or a RES2 — nil for a
	// remembered silence, and while sess, whose compute step sends it, has not
	// run.
	enc    []byte
	sess   *objSession
	public bool
}

// cache keeps a as the answer to the query of key for half a TTL, shedding the
// oldest answer if the cache is full.
func (o *Object) cache(key sessionKey, a cachedAnswer) {
	if o.answers == nil {
		o.answers = make(map[sessionKey]cachedAnswer)
	}
	if o.order.n == maxResendCache {
		o.dropOldest()
	}
	o.answers[key] = a
	o.order.push(cacheSlot{key: key, until: o.ep.Now() + o.retry.ttl()/2})
	o.syncPending()
	o.armCache()
}

// dropOldest takes the oldest answer out of the resend cache.
func (o *Object) dropOldest() {
	delete(o.answers, o.order.pop().key)
	o.syncPending()
}

// armCache keeps one wheel entry armed for the oldest cached answer. An entry
// armed for an answer that was shed meanwhile fires early, finds nothing due
// and re-arms. An answer leaving the cache is no session expiry: only the
// handshakes that never got their QUE2 count as one (scheduleGC).
func (o *Object) armCache() {
	if o.cacheTimer.live || o.order.n == 0 {
		return
	}
	o.wheel.scheduleIn(&o.cacheTimer, o.order.head().until-o.ep.Now(), o)
}

// due drops the cached answers whose time is up (armCache).
func (o *Object) due(*wheelEntry) {
	for now := o.ep.Now(); o.order.n > 0 && o.order.head().until <= now; {
		o.dropOldest()
	}
	o.armCache()
}

// cacheRing is the resend cache's order: the queries of the cached answers and
// when each is dropped, oldest first, in a ring that doubles when it is full.
// The cache sheds its oldest answer at maxResendCache, so the ring never
// grows past that.
type cacheRing struct {
	slots []cacheSlot
	first int // the oldest slot
	n     int
}

type cacheSlot struct {
	key   sessionKey
	until time.Duration
}

func (r *cacheRing) push(s cacheSlot) {
	if r.n == len(r.slots) {
		slots := make([]cacheSlot, max(8, 2*len(r.slots)))
		for i := 0; i < r.n; i++ {
			slots[i] = r.slots[(r.first+i)%len(r.slots)]
		}
		r.slots, r.first = slots, 0
	}
	r.slots[(r.first+r.n)%len(r.slots)] = s
	r.n++
}

// head returns the oldest slot; the ring must not be empty.
func (r *cacheRing) head() *cacheSlot { return &r.slots[r.first] }

// pop removes and returns the oldest slot; the ring must not be empty.
func (r *cacheRing) pop() cacheSlot {
	s := r.slots[r.first]
	r.slots[r.first] = cacheSlot{}
	r.first = (r.first + 1) % len(r.slots)
	r.n--
	return s
}

func (o *Object) handleQUE2(from transport.Addr, m *wire.QUE2) {
	key := mkSessionKey(from, m.RS)
	if a, ok := o.answers[key]; ok {
		// Duplicate QUE2: our RES2 was lost (or is still in flight). The
		// outcome is already fixed — resend the cached bytes verbatim; a
		// remembered silence stays silent, and a Level 1 object has no QUE2
		// to answer. Never re-run the response path: fresh crypto would
		// desync the transcript MACs, and a second compute charge would be a
		// timing tell.
		if a.enc != nil && !a.public {
			o.tel.retransmit(msgRES2)
			o.ep.Send(from, a.enc)
		}
		return
	}
	sess, ok := o.sessions[key]
	if !ok {
		// No live session for (peer, R_S): a replayed transcript, or a QUE2
		// retransmission that outlived the session TTL. Silence either way —
		// answering would confirm the service exists — but count it so replay
		// storms are visible to the adversary harness.
		o.tel.que2Result(resultOrphan)
		return
	}
	var a que2Auth
	defer a.wipe()
	// The session may leave the table below (the zero policy consumes it,
	// an answer moves it to the resend cache); whatever becomes of the QUE2,
	// the record is released once no compute step is pending.
	defer o.release(sess)
	if len(m.Ticket) > 0 {
		ok = o.resumeQUE2(from, sess, m, &a)
	} else {
		if !o.retry.Enabled() {
			// One-shot mode: the session is consumed by its first QUE2. Under
			// retry it instead stays pending on verification failure (the
			// QUE2 may have been corrupted in flight — a clean retransmission
			// must still be able to complete) and is marked answered on
			// success.
			o.remove(sess)
		}
		ok = o.authenticateQUE2(from, sess, m, &a)
	}
	if ok {
		o.answerQUE2(from, sess, m, &a)
	}
}

// que2Auth is what authenticating a QUE2 — in full, or by ticket — fills in
// for the response path: K2, the subject's transcript cut, and who the subject
// is. It lives on the stack of handleQUE2, which wipes the keys when it
// returns: an object session holds none.
type que2Auth struct {
	k2     suite.Key
	k2raw  [suite.KeySize]byte // for K3 = PRF(K2 ‖ K_grp, …)
	k3     suite.Key           // the fellow's, or the last trial's
	ts     wire.Transcript
	tsHash [32]byte
	// next binds the ticket the answer will mint: the subject's address,
	// verified identity and PROF_S attributes, and their validity window. After a short
	// QUE2 it is the ticket that was presented.
	next    ticket
	resumed bool
}

// authenticateQUE2 is the full path: CERT_S chains to the admin, SIG_S covers
// the whole transcript (the freshness of R_O defeats replay), PROF_S is
// admin-signed and the subject's own, and MAC_{S,2} proves the ECDH key.
func (o *Object) authenticateQUE2(from transport.Addr, sess *objSession, m *wire.QUE2, a *que2Auth) bool {
	reject := func() bool {
		o.tel.que2Result(resultRejected)
		return false
	}
	if sess.kex == nil {
		return reject() // a short RES1 offered no KEXM_O to answer
	}
	info, err := o.vcache.VerifyCert(o.prov.CACert, m.CertS, o.prov.Strength)
	if err != nil || info.Role != cert.RoleSubject {
		return reject()
	}
	if o.revoked[info.ID] {
		return reject() // de-authorized subjects stop seeing services (§VIII)
	}
	// The signature input doubles as the transcript prefix (§V): build it
	// once in pooled scratch, for the verification and for the transcript cut.
	sigInput := wire.AppendSigInputQUE2(wire.GetScratch(), sess.que1Enc, sess.res1Enc, m)
	sigOK := info.Public.Verify(sigInput, m.Sig)
	a.ts.Add(sigInput, m.Sig)
	wire.PutScratch(sigInput)
	if !sigOK {
		return reject()
	}

	prof, err := cert.DecodeProfile(m.ProfS)
	if err != nil || prof.Kind != cert.RoleSubject || prof.Entity != info.ID {
		return reject()
	}
	if err := o.vcache.VerifyProfileAnchored(prof, m.ProfS, o.prov.CACert, o.prov.AdminPub, o.now()); err != nil {
		return reject() // PROF must be admin-signed: attributes cannot be self-claimed
	}

	// Key establishment.
	preK, err := sess.kex.Shared(m.KEXMS)
	if err != nil {
		return reject()
	}
	suite.SessionKey2To(&a.k2raw, preK, sess.rs, sess.ro[:])
	a.k2.Set(a.k2raw[:])
	a.tsHash = a.ts.Hash()
	if !a.k2.VerifyMAC(suite.LabelSubjectFinished, a.tsHash, m.MACS2) {
		return reject() // handshake failure
	}
	if o.retry.Enabled() {
		a.next = ticket{subject: info.ID, attrs: prof.Attrs, notBefore: info.NotBefore, notAfter: info.NotAfter}
		a.next.narrowTo(prof.Window())
	} else {
		a.next.attrs = prof.Attrs
	}
	return true
}

// resumeQUE2 is the short path: the ticket names the secret this object holds
// for this subject address, and MAC_{S,2} under K2′ = PRF(secret, R_S‖R_O)
// proves the sender holds it — fresh R_O, so a replayed short QUE2 proves
// nothing. CERT_S, PROF_S and SIG_S were checked when the ticket's chain
// began; what can change since is checked now: the validity window, the
// blacklist, and (in answerQUE2) the policies of the current provision.
//
// A ticket the object cannot honour — none on file for the address (evicted,
// flushed), another one (a ratchet step apart), or expired — is refused, and
// the refusal is never a dead end: it hands the subject what it needs to
// finish the full handshake in the same round, with no timer. After a signed
// RES1 the subject holds that already, and the refusal is the empty RES2.
// After a short RES1 it holds nothing, so the session is upgraded in place —
// fresh R_O, KEXM_O and SIG_O — and the signed RES1 is the refusal, resent
// verbatim to a duplicate short QUE2 like to a duplicate QUE1. Either way the
// session stays pending for the full QUE2, and an observer learns only what
// the RES1 already showed.
func (o *Object) resumeQUE2(from transport.Addr, sess *objSession, m *wire.QUE2, a *que2Auth) bool {
	t := o.tickets.get(from)
	if t != nil && !bytes.Equal(m.Ticket, t.id[:]) {
		t = nil
	}
	if t != nil && !t.valid(o.now()) {
		o.tickets.drop(from)
		t = nil
	}
	if t == nil {
		o.refuseQUE2(from, sess)
		return false
	}
	if o.revoked[t.subject] {
		o.tel.que2Result(resultRejected)
		return false // silence, as for the full QUE2 of a revoked subject
	}
	a.next, a.resumed = t.binding(), true
	t.secret.SessionKey2(&a.k2raw, sess.rs, sess.ro[:])
	a.k2.Set(a.k2raw[:])
	in := wire.AppendSigInputQUE2(wire.GetScratch(), sess.que1Enc, sess.res1Enc, m)
	a.ts.Add(in)
	wire.PutScratch(in)
	a.tsHash = a.ts.Hash()
	if !a.k2.VerifyMAC(suite.LabelSubjectFinished, a.tsHash, m.MACS2) {
		o.tel.que2Result(resultRejected)
		return false // corrupted, or not the ticket's holder: stay pending
	}
	return true
}

// refuseQUE2 answers a short QUE2 whose ticket the object cannot honour.
func (o *Object) refuseQUE2(from transport.Addr, sess *objSession) {
	switch {
	case sess.short && o.revoked[sess.subject]:
		// The ticket went (a flush, an eviction) after the short RES1 to a
		// subject revoked since: silence, as above.
		o.tel.que2Result(resultRejected)
	case !sess.short:
		o.tel.resumption(resultRefused)
		refusal := wire.RES2{Version: o.version}
		o.ep.Send(from, refusal.AppendTo(o.frames.Take(refusal.EncodedSize())))
	case sess.kex == nil:
		o.tel.resumption(resultRefused)
		o.signRES1(sess, ops{})
	case sess.res1Enc != nil:
		// A duplicate: the session was upgraded by the first copy.
		o.tel.retransmit(msgRES1)
		o.ep.Send(from, sess.res1Enc)
	}
}

// answerQUE2 is everything downstream of K2, the same for a full and a
// resumed session: the fellowship trial, the double-faced RES2 at constant
// length, the equalised compute charge — and, under an enabled policy, the
// ticket for the next session.
func (o *Object) answerQUE2(from transport.Addr, sess *objSession, m *wire.QUE2, a *que2Auth) {
	// Level 3: test fellowship by verifying MAC_{S,3} against each group
	// key the object serves (§VI-A, §VI-C). Every trial prepares its
	// candidate K3 and verifies under it; the fellow's is the RES2's key.
	fellow := -1 // index of the covert variant whose group key the subject holds
	trials := 0
	switch {
	case len(m.MACS3) == 0 || o.version == wire.V10:
	case o.prov.Level == L3:
		trials = o.covertVariantCount()
		for i := range o.prov.Variants {
			v := &o.prov.Variants[i]
			if !v.IsCovert() {
				continue
			}
			a.setK3(v.GroupKey, sess)
			if a.k3.VerifyMAC(suite.LabelSubjectFinished, a.tsHash, m.MACS3) {
				fellow = i
				break
			}
		}
	case a.resumed:
		// A Level 2 object has no group to try — but on a resumed session
		// nothing else hides that: the signature checks and the ECDH whose
		// jitter buried a two-HMAC trial are gone, and a crowd observer
		// (internal/adversary) tells the levels apart by turnaround alone. So
		// it runs the one trial a Level 3 object serving one group runs, under
		// a key nobody holds, and fails it.
		trials = 1
		a.setK3(a.k2raw[:], sess)
		a.k3.VerifyMAC(suite.LabelSubjectFinished, a.tsHash, m.MACS3)
	}

	// Build the response. The virtual compute cost is charged identically on
	// every path — the paper's "constant response time" countermeasure to
	// timing attacks (§VI-B): verification work that a path skips is waited
	// out instead. Full and resumed sessions differ — a resumed one skipped
	// the three verifications and the ECDH, and is charged and counted for
	// what it did — but which of the two a session is shows in the length of
	// its QUE2 anyway, and says nothing about the object's level.
	spent := ops{hmac: 2, cipher: 1} // MAC_{S,2} verify + MAC_{O,X}; RES2 ciphertext
	if a.resumed {
		spent[hmac] += trials*2 + 1 // K3 derivations + MAC_{S,3} trials; K2′
	} else {
		spent[verify] = 3 // CERT_S, SIG_S, PROF_S admin signature
		spent[kexShared] = 1
		if o.version != wire.V10 && o.prov.Level == L3 {
			spent[hmac] += o.covertVariantCount() * 2
		}
	}
	if o.retry.Enabled() {
		spent[hmac]++ // the next ticket
	}

	// The face: Level 3 (MAC_{O,3} and PROF encrypted under K3) to a fellow,
	// Level 2 (under K2) to everyone else a policy admits — true Level 2
	// objects, and Level 3 objects answering non-fellows in v3.0 — and silence
	// to the rest. v2.0 Level 3 objects instead answer with their Level 3 face
	// unconditionally — the composition leak the paper describes (§VI-B) and
	// our attack tests exploit.
	key, variant, result := &a.k3, fellow, resultFellow
	switch {
	case fellow >= 0:
	case o.version == wire.V20 && o.prov.Level == L3:
		if variant = o.firstCovertVariant(); variant >= 0 {
			a.setK3(o.prov.Variants[variant].GroupKey, sess)
		}
	default:
		key, variant, result = &a.k2, o.matchVariant(a.next.attrs), resultL2
	}
	if variant < 0 {
		o.tel.que2Result(resultSilent)
		o.markAnswered(sess, nil) // remembered silence: duplicates stay silent
		o.spend(spent, nop{})
		return // no policy admits this subject: silence, not a hint
	}
	o.tel.que2Result(result)
	res := o.buildRES2(a.ts, m, key, variant)
	if res == nil {
		o.spend(spent, nop{})
		return
	}
	o.markAnswered(sess, res)
	if o.retry.Enabled() {
		// Ratchet: the presented ticket is spent — the next one replaces it —
		// whether or not RES2 arrives. If it does not, and the subject's
		// retransmissions (served from the cached RES2) all fail too, the
		// subject's next hint finds nothing, its short QUE2 is refused and it
		// pays one full handshake.
		if a.resumed {
			o.tel.resumption(resultResumed)
		} else {
			o.tel.resumption(resultMinted)
		}
		o.tickets.mint(from, &a.next, &a.k2, a.tsHash)
	}
	o.tel.response(o.spend(spent, sess), suite.CiphertextLen(len(o.variantEnc[variant])))
}

// markAnswered fixes the handshake outcome: res is the RES2 the session's next
// compute step sends, nil for a silence. Under an enabled policy the session
// leaves the table and its answer goes to the resend cache. An answer holds no
// handshake liveness — it exists solely to serve idempotent duplicate resends
// — so its retention is a resend-service window of half the TTL, not a
// liveness window; halving it halves how long the fleet's tables (and a drain
// barrier waiting on them) trail the last wave. The zero policy consumed the
// session with its QUE2.
func (o *Object) markAnswered(sess *objSession, res []byte) {
	sess.answered, sess.owed = true, res
	if !o.retry.Enabled() {
		return
	}
	o.remove(sess)
	a := cachedAnswer{}
	if res != nil {
		a.sess = sess // until its step has sent res (Run)
	}
	o.cache(sess.key, a)
}

// setK3 prepares a.k3 = PRF(K2 ‖ groupKey, "session key" ‖ R_S ‖ R_O).
func (a *que2Auth) setK3(groupKey []byte, sess *objSession) {
	var k3 [suite.KeySize]byte
	suite.SessionKey3To(&k3, a.k2raw[:], groupKey, sess.rs, sess.ro[:])
	a.k3.Set(k3[:])
}

// wipe zeroes the session keys.
func (a *que2Auth) wipe() {
	a.k2.Wipe()
	a.k3.Wipe()
	a.k2raw = [suite.KeySize]byte{}
}

// scheduleGC collects a session still awaiting its QUE2 a TTL after its QUE1.
// (An answered one can only age out too — the object never learns whether the
// subject received RES2 — but does so from the resend cache, half a TTL after
// its answer.) One armed wheel timer serves the whole session table, and
// expiries are never deferred — TTL semantics are exact. The zero policy arms
// nothing: its sessions are consumed by their first QUE2.
func (o *Object) scheduleGC(sess *objSession) {
	if !o.retry.Enabled() {
		return
	}
	o.wheel.scheduleIn(&sess.expiry, o.retry.ttl(), sess)
}

// buildRES2 returns the encoded RES2 answering with profile variant i:
// encrypted under the session key and MAC_{O,X} over the object-side
// transcript cut after it, both written straight into the frame.
func (o *Object) buildRES2(ts wire.Transcript, m *wire.QUE2, key *suite.Key, i int) []byte {
	plain := o.variantEnc[i]
	n := suite.CiphertextLen(len(plain))
	frame, ct, mac := wire.NewRES2Frame(o.frames.Take(wire.RES2Size(n, suite.MACSize)), o.version, n, suite.MACSize)
	if _, err := key.EncryptProfile(ct[:0], plain, nil); err != nil {
		return nil
	}
	key.FinishedMAC((*[suite.MACSize]byte)(mac), suite.LabelObjectFinished, transcriptOHash(ts, m, ct))
	return frame
}

// matchVariant returns the index of the first Level 2 variant whose predicate
// matches the subject's non-sensitive attributes (pred_i order fixed by the
// backend), or -1.
func (o *Object) matchVariant(attrs attr.Set) int {
	for i := range o.prov.Variants {
		v := &o.prov.Variants[i]
		if !v.IsCovert() && v.Pred.Eval(attrs) {
			return i
		}
	}
	return -1
}

// firstCovertVariant returns the index of the first covert variant, or -1.
func (o *Object) firstCovertVariant() int {
	for i := range o.prov.Variants {
		if o.prov.Variants[i].IsCovert() {
			return i
		}
	}
	return -1
}

func (o *Object) covertVariantCount() int {
	n := 0
	for i := range o.prov.Variants {
		if o.prov.Variants[i].IsCovert() {
			n++
		}
	}
	return n
}
