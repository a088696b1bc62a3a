package core

import (
	"bytes"
	"sync/atomic"
	"time"

	"argus/internal/attr"
	"argus/internal/backend"
	"argus/internal/cert"
	"argus/internal/obs"
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
	costs   Costs
	ep      transport.Endpoint

	sessions map[sessionKey]*objSession
	seen     map[sessionKey]bool // duplicate-query suppression via R_S (§IV-B), zero policy
	revoked  map[cert.ID]bool
	retry    RetryPolicy // zero value: one-shot seed behavior (see RetryPolicy)
	tel      *objectTelemetry

	// wheel coalesces session expiries onto one armed timer; nil under the
	// zero policy, which arms none.
	wheel *timerWheel

	// pendingN mirrors len(sessions) for cross-goroutine reads (core.go
	// contract); vcache memoizes credential verifications (WithVerifyCache).
	pendingN atomic.Int64
	vcache   *cert.VerifyCache

	// tickets holds the resumption tickets minted for subjects, by subject
	// address (resume.go).
	tickets ticketTable

	// The resend cache: sessions that only hold an answer for a duplicate
	// query (Level 1's RES1, an answered handshake's RES2), oldest first,
	// linked through objSession.next. They expire in the order they were
	// cached, so the head is always the next to go and one wheel entry, armed
	// for the head, serves them all.
	cached, cachedTail *objSession
	cachedN            int
	cacheArmed         bool

	// publicRES1 and variantEnc are the wire encodings of a Level 1 object's
	// one answer and of each prov.Variants[i].Profile, made when the provision
	// arrives, not per answer.
	publicRES1 []byte
	variantEnc [][]byte
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

type objSession struct {
	key     sessionKey
	rs      []byte
	ro      []byte
	kex     *suite.KeyExchange
	que1Enc []byte
	res1Enc []byte

	// short marks a session whose RES1 was the short form, answering a QUE1
	// hint under the ticket of subject. It has no kex until a short QUE2 the
	// object cannot honour upgrades it in place (resumeQUE2).
	short   bool
	subject cert.ID

	// Retry-mode state: a duplicate query means the subject lost our answer,
	// so the cached encoding is resent verbatim — resends must be
	// byte-identical or MACs over the transcript would break, and re-running
	// the response path would leak through timing.
	public   bool   // Level 1 session, cached only for RES1 resends
	answered bool   // QUE2 consumed; the handshake outcome is fixed
	res2Enc  []byte // cached RES2 (nil while pending, and for silent answers)

	gone  bool          // removed from the table; a stale link of the cache list
	next  *objSession   // resend-cache order
	until time.Duration // when the cached answer is dropped

	// expiry collects the session if no QUE2 answers it within the TTL;
	// canceled when one does, or when the session is removed. What has left
	// the table is referenced by nothing.
	expiry *wheelEntry
}

// NewObject creates an engine from a backend provision, applying any
// construction options (see Option). version selects the protocol iteration
// (v3.0 for the full system).
func NewObject(prov *backend.ObjectProvision, version wire.Version, costs Costs, opts ...Option) *Object {
	o := &Object{
		prov:     prov,
		version:  version,
		costs:    costs,
		sessions: make(map[sessionKey]*objSession),
		seen:     make(map[sessionKey]bool),
		revoked:  make(map[cert.ID]bool),
	}
	for _, id := range prov.Revoked {
		o.revoked[id] = true
	}
	o.encodeProfiles()
	eo := applyOptions(opts)
	if eo.hasRetry {
		o.retry = eo.retry
	}
	if eo.hasTel {
		o.instrument(eo.reg)
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

// encodeProfiles fills publicRES1 and variantEnc from the current provision.
func (o *Object) encodeProfiles() {
	res := &wire.RES1{Version: o.version, Mode: wire.ModePublic}
	if p := o.prov.PublicProfile; p != nil {
		res.Prof = p.Encode()
	}
	o.publicRES1, o.variantEnc = res.Encode(), make([][]byte, 0, len(o.prov.Variants))
	for _, v := range o.prov.Variants {
		o.variantEnc = append(o.variantEnc, v.Profile.Encode())
	}
}

// PendingSessions returns the number of sessions held (pending + answered).
// Safe to call from any goroutine (it reads a mirror the event loop
// maintains).
func (o *Object) PendingSessions() int { return int(o.pendingN.Load()) }

// syncPending republishes len(sessions) after a mutation; event-loop only.
func (o *Object) syncPending() { o.pendingN.Store(int64(len(o.sessions))) }

// Tickets returns the number of resumption tickets held for subjects. Safe to
// call from any goroutine.
func (o *Object) Tickets() int { return o.tickets.size() }

// instrument attaches a metrics registry. Like the subject's, object
// telemetry is purely observational and preserves fixed-seed runs.
func (o *Object) instrument(reg *obs.Registry) {
	if reg == nil {
		o.tel = nil
		return
	}
	o.tel = newObjectTelemetry(reg)
}

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
func (o *Object) Refresh(prov *backend.ObjectProvision) {
	if !bytes.Equal(o.prov.CACert, prov.CACert) {
		o.vcache.Flush()
	}
	o.tickets.flush()
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
// credential verifications and resumption tickets.
func (o *Object) Revoke(subject cert.ID) {
	o.revoked[subject] = true
	o.vcache.InvalidateEntity(subject)
	for peer, t := range o.tickets.m {
		if t.subject == subject {
			o.tickets.drop(peer)
		}
	}
}

// Handle implements transport.Handler.
func (o *Object) Handle(from transport.Addr, payload []byte) {
	if len(payload) > 0 && payload[0] != byte(wire.TQUE1) && payload[0] != byte(wire.TQUE2) {
		return // an overheard RES1 or RES2: not worth a decode
	}
	msg, err := wire.Decode(payload)
	if err != nil {
		// Malformed traffic (noise, or fault-injected corruption) is dropped,
		// but not silently: the counter makes corruption storms visible.
		o.tel.malformedDrop()
		return
	}
	switch m := msg.(type) {
	case *wire.QUE1:
		o.handleQUE1(from, m, payload)
	case *wire.QUE2:
		o.handleQUE2(from, m)
	}
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
		// session table once the table has room.
		if sess, ok := o.sessions[key]; ok {
			o.tel.que1Result(resultDuplicate)
			if !sess.answered && sess.res1Enc != nil {
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
		if len(o.seen) >= maxSeenQueries {
			// Coarse reset: old R_S values have long completed or timed out;
			// replays of them are still caught by the signature freshness check.
			o.seen = make(map[sessionKey]bool)
		}
		o.seen[key] = true
	}
	if len(o.sessions)-o.cachedN >= maxPendingSessions {
		o.tel.que1Result(resultRefused)
		return // refuse new handshakes until pending ones complete
	}

	if o.prov.Level == L1 {
		// Level 1: return the signed profile in plaintext. No
		// compute-intensive operation on the object (Fig 6b), and the same
		// bytes to every subject.
		o.tel.que1Result(resultPublic)
		enc := o.publicRES1
		if o.retry.Enabled() {
			// Cache the answer so a duplicate QUE1 can resend it (the
			// public path has no QUE2 to drive retransmission otherwise). It is
			// never marked answered — handleQUE2 ignores a public session — so
			// the collection armed here, at TTL/2, bounds the resend window.
			sess := &objSession{key: key, public: true, res1Enc: enc}
			o.open(sess)
			o.cache(sess)
		}
		o.ep.Send(from, enc)
		return
	}

	// Level 2/3: respond with a nonce, and with handshake material unless the
	// subject holds a ticket, and await QUE2.
	sess := &objSession{
		key:     key,
		rs:      m.RS, // a window on raw, like every decoded field
		que1Enc: raw,
	}
	o.open(sess)
	o.scheduleGC(sess)
	t, hmacs := o.hintedTicket(from, m)
	if t == nil {
		if !o.signRES1(sess, time.Duration(hmacs)*o.costs.HMAC) {
			o.remove(sess)
			return
		}
		o.tel.que1Result(resultHandshake)
		return
	}
	ro, err := suite.NewNonce(nil)
	if err != nil {
		o.remove(sess)
		return
	}
	sess.ro, sess.short, sess.subject = ro, true, t.subject
	o.tel.que1Result(resultResume)
	res := &wire.RES1{Version: o.version, Mode: wire.ModeResume, RO: ro}
	o.ep.Compute(o.costs.HMAC, func() {
		sess.res1Enc = res.Encode()
		o.ep.Send(from, sess.res1Enc)
	})
}

// hintedTicket returns the ticket held for the subject at from if the QUE1
// carries its hint — the subject still holds it too, a ratchet step neither
// ahead nor behind — and how many HMACs finding out took: one when there is a
// ticket on file for the address, none for a stranger, a Level 1 object or the
// zero policy, which files no tickets and is sent no hints.
func (o *Object) hintedTicket(from transport.Addr, m *wire.QUE1) (*ticket, int) {
	t := o.tickets.get(from)
	if t == nil || len(m.Hints) == 0 {
		return nil, 0
	}
	o.tel.count(opsHMAC, 1)
	if !m.HasHint(suite.Hint(t.secret, m.RS)) || !t.valid(time.Now()) || o.revoked[t.subject] {
		return nil, 1
	}
	return t, 1
}

// signRES1 gives sess a fresh R_O and ephemeral key and sends the RES1 that
// carries them under the object's signature (§V): the answer to a QUE1 from a
// subject the object holds no ticket with, and the refusal of a short QUE2 it
// cannot honour. It becomes the session's res1Enc once the modeled compute
// time — extra plus one key generation and one signature — has passed.
func (o *Object) signRES1(sess *objSession, extra time.Duration) bool {
	ro, err := suite.NewNonce(nil)
	if err != nil {
		return false
	}
	kex, err := suite.NewKeyExchange(o.prov.Strength, nil)
	if err != nil {
		return false
	}
	res := &wire.RES1{
		Version: o.version,
		Mode:    wire.ModeSecure,
		RO:      ro,
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
	sess.ro, sess.kex, sess.res1Enc = ro, kex, nil
	o.tel.count(opsKexGen, 1)
	o.tel.count(opsSign, 1)
	o.ep.Compute(extra+o.costs.KexGen+o.costs.Sign, func() {
		sess.res1Enc = res.Encode()
		o.ep.Send(sess.key.peer, sess.res1Enc)
	})
	return true
}

// open files sess in the session table, over whatever the key held.
func (o *Object) open(sess *objSession) {
	if old, ok := o.sessions[sess.key]; ok {
		o.remove(old)
	}
	o.sessions[sess.key] = sess
	o.syncPending()
}

// remove takes sess out of the session table.
func (o *Object) remove(sess *objSession) {
	delete(o.sessions, sess.key)
	o.syncPending()
	sess.gone = true
	sess.expiry.cancel()
	if sess.public || sess.answered {
		// In the resend cache: a session in the table is public or answered
		// exactly when cache took it (the zero policy, which caches nothing,
		// removes a session before it answers it).
		o.cachedN--
	}
	for o.cached != nil && o.cached.gone {
		o.cached = o.cached.next
	}
}

// cache moves sess, which from here on only holds an answer to resend, to the
// resend cache for half a TTL, shedding the oldest answer if the cache is
// full.
func (o *Object) cache(sess *objSession) {
	sess.expiry.cancel()
	sess.expiry = nil
	sess.until = o.ep.Now() + o.retry.ttl()/2
	o.cachedN++
	if o.cached == nil {
		o.cached = sess
	} else {
		o.cachedTail.next = sess
	}
	o.cachedTail = sess
	for o.cachedN > maxResendCache {
		o.remove(o.cached)
	}
	o.armCache()
}

// armCache keeps one wheel entry armed for the oldest cached answer. An entry
// armed for an answer that was shed meanwhile fires early, finds nothing due
// and re-arms.
func (o *Object) armCache() {
	if o.cacheArmed || o.cached == nil {
		return
	}
	o.cacheArmed = true
	o.wheel.schedule(o.cached.until-o.ep.Now(), func() {
		o.cacheArmed = false
		for now := o.ep.Now(); o.cached != nil && o.cached.until <= now; {
			o.remove(o.cached)
			o.tel.sessionExpired()
		}
		o.armCache()
	})
}

func (o *Object) handleQUE2(from transport.Addr, m *wire.QUE2) {
	key := mkSessionKey(from, m.RS)
	sess, ok := o.sessions[key]
	if !ok {
		// No live session for (peer, R_S): a replayed transcript, or a QUE2
		// retransmission that outlived the session TTL. Silence either way —
		// answering would confirm the service exists — but count it so replay
		// storms are visible to the adversary harness.
		o.tel.que2Result(resultOrphan)
		return
	}
	if o.prov.Level == L1 || sess.public {
		return
	}
	if sess.answered {
		// Duplicate QUE2: our RES2 was lost (or is still in flight). The
		// outcome is already fixed — resend the cached bytes verbatim; a
		// remembered silence stays silent. Never re-run the response path:
		// fresh crypto would desync the transcript MACs, and a second
		// compute charge would be a timing tell.
		if sess.res2Enc != nil {
			o.tel.retransmit(msgRES2)
			o.ep.Send(from, sess.res2Enc)
		}
		return
	}
	var a que2Auth
	if len(m.Ticket) > 0 {
		a, ok = o.resumeQUE2(from, sess, m)
	} else {
		if !o.retry.Enabled() {
			// One-shot mode: the session is consumed by its first QUE2. Under
			// retry it instead stays pending on verification failure (the
			// QUE2 may have been corrupted in flight — a clean retransmission
			// must still be able to complete) and is marked answered on
			// success.
			o.remove(sess)
		}
		a, ok = o.authenticateQUE2(from, sess, m)
	}
	if ok {
		o.answerQUE2(from, sess, m, a)
	}
}

// que2Auth is what authenticating a QUE2 — in full, or by ticket — hands to
// the response path: K2, the subject's transcript cut, and who the subject is.
type que2Auth struct {
	k2     []byte
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
func (o *Object) authenticateQUE2(from transport.Addr, sess *objSession, m *wire.QUE2) (que2Auth, bool) {
	reject := func() (que2Auth, bool) {
		o.tel.que2Result(resultRejected)
		return que2Auth{}, false
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
	var a que2Auth
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
	if err := o.vcache.VerifyProfileAnchored(prof, m.ProfS, o.prov.CACert, o.prov.AdminPub, time.Now()); err != nil {
		return reject() // PROF must be admin-signed: attributes cannot be self-claimed
	}

	// Key establishment.
	preK, err := sess.kex.Shared(m.KEXMS)
	if err != nil {
		return reject()
	}
	a.k2, a.tsHash = suite.SessionKey2(preK, sess.rs, sess.ro), a.ts.Hash()
	if !suite.VerifyMAC(a.k2, suite.LabelSubjectFinished, a.tsHash, m.MACS2) {
		return reject() // handshake failure
	}
	if o.retry.Enabled() {
		a.next = ticket{subject: info.ID, attrs: prof.Attrs, notBefore: info.NotBefore, notAfter: info.NotAfter}
		a.next.narrowTo(prof.Window())
	} else {
		a.next.attrs = prof.Attrs
	}
	return a, true
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
func (o *Object) resumeQUE2(from transport.Addr, sess *objSession, m *wire.QUE2) (que2Auth, bool) {
	t := o.tickets.get(from)
	if t != nil && !bytes.Equal(m.Ticket, t.id[:]) {
		t = nil
	}
	if t != nil && !t.valid(time.Now()) {
		o.tickets.drop(from)
		t = nil
	}
	if t == nil {
		o.refuseQUE2(from, sess)
		return que2Auth{}, false
	}
	if o.revoked[t.subject] {
		o.tickets.drop(from)
		o.tel.que2Result(resultRejected)
		return que2Auth{}, false // silence, as for the full QUE2 of a revoked subject
	}
	a := que2Auth{k2: suite.SessionKey2(t.secret, sess.rs, sess.ro), next: *t, resumed: true}
	in := wire.AppendSigInputQUE2(wire.GetScratch(), sess.que1Enc, sess.res1Enc, m)
	a.ts.Add(in)
	wire.PutScratch(in)
	a.tsHash = a.ts.Hash()
	if !suite.VerifyMAC(a.k2, suite.LabelSubjectFinished, a.tsHash, m.MACS2) {
		o.tel.que2Result(resultRejected)
		return que2Auth{}, false // corrupted, or not the ticket's holder: stay pending
	}
	return a, true
}

// refuseQUE2 answers a short QUE2 whose ticket the object cannot honour.
func (o *Object) refuseQUE2(from transport.Addr, sess *objSession) {
	switch {
	case sess.short && o.revoked[sess.subject]:
		// The revocation took the ticket after the short RES1 went out:
		// silence, as above.
		o.tel.que2Result(resultRejected)
	case !sess.short:
		o.tel.resumption(resultRefused)
		o.ep.Send(from, (&wire.RES2{Version: o.version}).Encode())
	case sess.kex == nil:
		o.tel.resumption(resultRefused)
		o.signRES1(sess, 0)
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
func (o *Object) answerQUE2(from transport.Addr, sess *objSession, m *wire.QUE2, a que2Auth) {
	k2, ts, tsHash := a.k2, a.ts, a.tsHash

	// Level 3: test fellowship by verifying MAC_{S,3} against each group
	// key the object serves (§VI-A, §VI-C).
	fellow := -1 // index of the covert variant whose group key the subject holds
	var k3 []byte
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
			cand := suite.SessionKey3(k2, v.GroupKey, sess.rs, sess.ro)
			if suite.VerifyMAC(cand, suite.LabelSubjectFinished, tsHash, m.MACS3) {
				fellow, k3 = i, cand
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
		suite.VerifyMAC(suite.SessionKey3(k2, k2, sess.rs, sess.ro), suite.LabelSubjectFinished, tsHash, m.MACS3)
	}

	// Build the response. The virtual compute cost is charged identically on
	// every path — the paper's "constant response time" countermeasure to
	// timing attacks (§VI-B): verification work that a path skips is waited
	// out instead. Full and resumed sessions differ — a resumed one skipped
	// the three verifications and the ECDH, and is charged and counted for
	// what it did — but which of the two a session is shows in the length of
	// its QUE2 anyway, and says nothing about the object's level.
	hmacs := 2 // MAC_{S,2} verify + MAC_{O,X}
	if a.resumed {
		hmacs += trials * 2 // K3 derivations + MAC_{S,3} trials
	} else if o.version != wire.V10 && o.prov.Level == L3 {
		hmacs += o.covertVariantCount() * 2
	}
	if o.retry.Enabled() {
		hmacs++ // the next ticket
	}
	cost := o.costs.Cipher // RES2 ciphertext
	if a.resumed {
		hmacs++ // K2′
	} else {
		cost += 2*o.costs.Verify + // CERT_S, SIG_S
			o.costs.Verify + // PROF_S admin signature
			o.costs.KexShared
		o.tel.count(opsVerify, 3)
		o.tel.count(opsKexShared, 1)
	}
	cost += time.Duration(hmacs) * o.costs.HMAC
	o.tel.count(opsHMAC, int64(hmacs))
	o.tel.count(opsCipher, 1)

	var res *wire.RES2
	switch {
	case fellow >= 0:
		// Level 3 face: MAC_{O,3} and PROF encrypted under K3.
		res = o.buildRES2(ts, m, k3, fellow)
		o.tel.que2Result(resultFellow)
	default:
		// Level 2 face (for true Level 2 objects and for Level 3 objects
		// answering non-fellows in v3.0). v2.0 Level 3 objects instead answer
		// with their Level 3 face unconditionally — the composition leak the
		// paper describes (§VI-B) and our attack tests exploit.
		if o.version == wire.V20 && o.prov.Level == L3 {
			first := o.firstCovertVariant()
			if first < 0 {
				o.tel.que2Result(resultSilent)
				o.markAnswered(sess) // remembered silence: duplicates stay silent
				return
			}
			kFirst := suite.SessionKey3(k2, o.prov.Variants[first].GroupKey, sess.rs, sess.ro)
			res = o.buildRES2(ts, m, kFirst, first)
			o.tel.que2Result(resultFellow)
			break
		}
		match := o.matchVariant(a.next.attrs)
		if match < 0 {
			o.tel.que2Result(resultSilent)
			o.markAnswered(sess) // remembered silence: duplicates stay silent
			return               // no policy admits this subject: silence, not a hint
		}
		res = o.buildRES2(ts, m, k2, match)
		o.tel.que2Result(resultL2)
	}
	if res == nil {
		return
	}
	o.markAnswered(sess)
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
		o.tickets.put(from, a.next.minted(k2, tsHash))
	}
	o.tel.response(cost, len(res.Ciphertext))
	o.ep.Compute(cost, func() {
		enc := res.Encode()
		sess.res2Enc = enc
		o.ep.Send(from, enc)
	})
}

// markAnswered fixes the handshake outcome and moves the session to the resend
// cache. An answered session holds no handshake liveness — it exists solely to
// serve idempotent duplicate resends — so its retention is a resend-service
// window of half the TTL, not a liveness window; halving it halves how long
// the fleet's session tables (and a drain barrier waiting on them) trail the
// last wave. The zero policy consumed the session with its QUE2.
func (o *Object) markAnswered(sess *objSession) {
	sess.answered = true
	// Only the cached RES2 is ever read again: let the handshake material go
	// now rather than hold it for the rest of the resend window.
	sess.rs, sess.ro, sess.kex, sess.que1Enc, sess.res1Enc = nil, nil, nil, nil, nil
	if o.retry.Enabled() {
		o.cache(sess)
	}
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
	sess.expiry = o.wheel.schedule(o.retry.ttl(), func() {
		o.remove(sess)
		o.tel.sessionExpired()
	})
}

// buildRES2 encrypts profile variant i under the session key and computes
// MAC_{O,X} over the object-side transcript cut.
func (o *Object) buildRES2(ts wire.Transcript, m *wire.QUE2, key []byte, i int) *wire.RES2 {
	ct, err := suite.EncryptProfile(key, o.variantEnc[i], nil)
	if err != nil {
		return nil
	}
	mac := suite.FinishedMAC(key, suite.LabelObjectFinished, transcriptOHash(ts, m, ct))
	return &wire.RES2{Version: o.version, Ciphertext: ct, MACO: mac}
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
