package core

// Session resumption (resume.go, DESIGN.md §15): what a resumed session
// costs, and every way a ticket must stop working.

import (
	"bytes"
	"crypto/rand"
	"crypto/sha256"
	"strconv"
	"testing"
	"time"

	"argus/internal/attr"
	"argus/internal/cert"
	"argus/internal/netsim"
	"argus/internal/obs"
	"argus/internal/suite"
	"argus/internal/transport"
	"argus/internal/wire"
)

// resumeFixture is one staff subject and n Level 2 devices under the default
// retry policy, with a shared registry and an air tap, after a first round in
// which every pairing handshook in full and minted its ticket.
type resumeFixture struct {
	*deployment
	reg *obs.Registry
	air *tap

	inRound int // discoveries of the round in flight
}

func newResumeFixture(t *testing.T, n int) *resumeFixture {
	t.Helper()
	return newResumeFixtureAt(t, n, L2, netsim.DefaultWiFi())
}

// newResumeFixtureAt is newResumeFixture with the devices at the given level —
// at Level 3 alice is a fellow of the group they serve — and on the given
// links.
func newResumeFixtureAt(t *testing.T, n int, level Level, link netsim.LinkModel) *resumeFixture {
	t.Helper()
	f := &resumeFixture{deployment: newDeployment(t), reg: obs.NewRegistry(), air: &tap{}}
	f.net = netsim.New(link, 1)
	f.air.install(f.net)
	f.b.AddPolicy(attr.MustParse("position=='staff'"), attr.MustParse("type=='device'"), []string{"use"})
	opts := []Option{WithRetry(DefaultRetry()), WithTelemetry(f.reg, nil)}
	sid, _, err := f.b.RegisterSubject("alice", attr.MustSet("position=staff"))
	if err != nil {
		t.Fatal(err)
	}
	grp, err := f.b.Groups.CreateGroup("fellows")
	if err != nil {
		t.Fatal(err)
	}
	if level == L3 {
		if err := f.b.AddSubjectToGroup(sid, grp.ID()); err != nil {
			t.Fatal(err)
		}
	}
	f.attachSubject(sid, wire.V30, opts...)
	for i := 0; i < n; i++ {
		oid, _, err := f.b.RegisterObject("device-"+string(rune('a'+i)), level, attr.MustSet("type=device"), []string{"use"})
		if err != nil {
			t.Fatal(err)
		}
		if level == L3 {
			if err := f.b.AddCovertService(oid, grp.ID(), []string{"use", "covert"}); err != nil {
				t.Fatal(err)
			}
		}
		f.attachObject(oid, wire.V30, opts...)
	}
	// The harness knows when a round has every answer; tell the engine, or
	// the quiescence probes of a drained simulator run count as frames.
	f.subject.OnDiscovery = func(d Discovery) {
		if f.inRound++; f.inRound == n {
			f.subject.CompleteRound()
		}
	}
	if got := len(f.run()); got != n {
		t.Fatalf("first round: %d discoveries, want %d", got, n)
	}
	f.want(t, "after the first round", int64(n), 0, 0)
	return f
}

// ops reads one crypto-op counter of one role.
func (f *resumeFixture) ops(t *testing.T, role, op string) int64 {
	return counterValue(t, f.reg, obs.MCryptoOps, obs.L("role", role), obs.L("op", op))
}

// want asserts the resumption outcome counters, which both sides must agree on.
func (f *resumeFixture) want(t *testing.T, when string, minted, resumed, refused int64) {
	t.Helper()
	for _, side := range []string{"subject", "object"} {
		for result, want := range map[string]int64{resultMinted: minted, resultResumed: resumed, resultRefused: refused} {
			if got := counterValue(t, f.reg, obs.MResumptions, obs.L("side", side), obs.L("result", result)); got != want {
				t.Errorf("%s: %s %s = %d, want %d", when, side, result, got, want)
			}
		}
	}
}

// round runs one more round and returns its discoveries and its frames.
func (f *resumeFixture) round(t *testing.T) ([]Discovery, []tapped) {
	t.Helper()
	seen, onAir := len(f.subject.Results()), len(f.air.msgs)
	f.inRound = 0
	res := f.run()
	return res[seen:], f.air.msgs[onAir:]
}

func (f *resumeFixture) retransmissions(t *testing.T) int64 {
	return counterValue(t, f.reg, obs.MRetransmissions)
}

func (f *resumeFixture) only() *Object {
	for _, o := range f.objects {
		return o
	}
	return nil
}

// onlyTicket returns the single ticket of a table.
func onlyTicket(t *testing.T, tt *ticketTable) *ticket {
	t.Helper()
	if len(tt.m) != 1 {
		t.Fatalf("table holds %d tickets, want 1", len(tt.m))
	}
	for _, tk := range tt.m {
		return tk
	}
	return nil
}

// TestResumedSessionCost: the second discovery between the same two ends is
// the same four frames, costs neither end a signature, a signature check, a
// key generation or an ECDH — the subject receives the PROF_O its ticket was
// minted on, and does not verify it again — and both ends say so in their
// counters.
func TestResumedSessionCost(t *testing.T) {
	const n = 3
	f := newResumeFixture(t, n)
	if f.subject.Tickets() != n {
		t.Fatalf("subject holds %d tickets, want %d", f.subject.Tickets(), n)
	}
	for name, o := range f.objects {
		if o.Tickets() != 1 {
			t.Fatalf("%s holds %d tickets, want 1", name, o.Tickets())
		}
	}
	type key struct{ role, op string }
	before := map[key]int64{}
	for _, role := range []string{"subject", "object"} {
		for _, op := range []string{opSign, opVerify, opKexGen, opKexShared, opHMAC, opCipher} {
			before[key{role, op}] = f.ops(t, role, op)
		}
	}

	got, frames := f.round(t)
	if len(got) != n {
		t.Fatalf("resumed round: %d discoveries, want %d", len(got), n)
	}
	for _, d := range got {
		if d.Level != L2 {
			t.Errorf("resumed discovery at level %v, want L2", d.Level)
		}
	}
	f.want(t, "after the resumed round", n, n, 0)
	// QUE1 broadcast, then RES1, QUE2, RES2 per object: nothing added.
	if len(frames) != n*(1+3) { // the tap sees the broadcast once per receiver
		t.Errorf("resumed round put %d frames on the air, want %d", len(frames), n*4)
	}
	for _, fr := range frames {
		switch m := fr.msg.(type) {
		case *wire.QUE1:
			if len(m.Hints) != wire.HintBlockSize {
				t.Errorf("QUE1 carries a %d B hint block, want %d", len(m.Hints), wire.HintBlockSize)
			}
		case *wire.RES1:
			if m.Mode != wire.ModeResume || len(m.RO) != suite.NonceSize || len(fr.payload) > 40 {
				t.Errorf("resumed RES1 is not the short form (mode %d, %d B)", m.Mode, len(fr.payload))
			}
		case *wire.QUE2:
			if len(m.Ticket) != suite.TicketIDSize || m.CertS != nil || m.Sig != nil || len(fr.payload) > 160 {
				t.Errorf("resumed QUE2 is not the short form (%d B)", len(fr.payload))
			}
		}
	}
	want := map[key]int64{
		{"subject", opSign}: 0, {"subject", opKexGen}: 0, {"subject", opKexShared}: 0,
		{"subject", opVerify}: 0, // the PROF_O bytes verified at minting
		{"subject", opCipher}: n,
		{"subject", opHMAC}:   n * (1 + 4 + 3),            // hint | K2′ MAC_S2 K3 MAC_S3 | two MAC_O trials, next ticket
		{"object", opSign}:    0, {"object", opKexGen}: 0, // the hint found the ticket: nothing to sign for
		{"object", opVerify}: 0, {"object", opKexShared}: 0,
		{"object", opCipher}: n,
		{"object", opHMAC}:   n * (1 + 4 + 2), // hint | K2′, MAC_S2, MAC_O, next ticket | a Level 2 object's one dummy trial
	}
	for k, w := range want {
		if d := f.ops(t, k.role, k.op) - before[k]; d != w {
			t.Errorf("resumed round: %s %s ops = %d, want %d", k.role, k.op, d, w)
		}
	}
	if r := f.retransmissions(t); r != 0 {
		t.Errorf("%d retransmissions on a lossless network", r)
	}
}

// TestZeroPolicyNeverResumes: the zero policy is the paper's one-shot
// protocol — no tickets, and the second round is a full handshake again.
func TestZeroPolicyNeverResumes(t *testing.T) {
	d := l2Fixture(t, nil)
	air := &tap{}
	air.install(d.net)
	d.run()
	if got := len(d.run()); got != 2 {
		t.Fatalf("discoveries = %d, want 2", got)
	}
	if d.subject.Tickets() != 0 || d.objects["printer"].Tickets() != 0 {
		t.Fatal("zero-policy engines minted tickets")
	}
	for _, fr := range air.byType(wire.TQUE2) {
		if len(fr.msg.(*wire.QUE2).Ticket) != 0 {
			t.Fatal("zero-policy subject sent a short QUE2")
		}
	}
}

// TestRevokedSubjectWithTicketGetsSilence: a live ticket is no way around the
// blacklist, whether the revocation arrives as a notification or in a
// re-provision.
func TestRevokedSubjectWithTicketGetsSilence(t *testing.T) {
	for _, via := range []string{"Revoke", "Refresh"} {
		f := newResumeFixture(t, 1)
		o := f.only()
		if via == "Revoke" {
			o.Revoke(f.subject.ID())
		} else {
			if _, err := f.b.RevokeSubject(f.subject.ID()); err != nil {
				t.Fatal(err)
			}
			f.refreshObject(o.Name())
		}
		if o.Tickets() != 0 {
			t.Errorf("%s: object still holds the revoked subject's ticket", via)
		}
		got, frames := f.round(t)
		if len(got) != 0 {
			t.Fatalf("%s: revoked subject discovered %d services on its ticket", via, len(got))
		}
		for _, fr := range frames {
			if r, ok := fr.msg.(*wire.RES2); ok && !r.Refusal() {
				t.Fatalf("%s: object answered a revoked subject", via)
			}
		}
	}
	// Belt and braces: even a ticket that survived (say, a notification that
	// raced the table) is checked against the blacklist when presented.
	f := newResumeFixture(t, 1)
	o := f.only()
	o.revoked[f.subject.ID()] = true
	if got, _ := f.round(t); len(got) != 0 || o.Tickets() != 0 {
		t.Fatalf("blacklisted ticket honoured: %d discoveries, %d tickets left", len(got), o.Tickets())
	}
}

// TestRefreshInvalidatesTickets: a re-provisioned object refuses every old
// ticket, and the subject finishes the full handshake inside the same round —
// two more frames, no timer. A re-provisioned subject does not even ask.
func TestRefreshInvalidatesTickets(t *testing.T) {
	f := newResumeFixture(t, 1)
	f.b.AddPolicy(attr.MustParse("position=='visitor'"), attr.MustParse("type=='device'"), []string{"look"})
	f.refreshObject(f.only().Name())
	if f.only().Tickets() != 0 {
		t.Fatal("object Refresh kept its tickets")
	}
	got, frames := f.round(t)
	if len(got) != 1 {
		t.Fatalf("round after object Refresh: %d discoveries, want 1", len(got))
	}
	f.want(t, "after object Refresh", 2, 0, 1)
	if len(frames) != 6 { // QUE1 RES1 QUE2(short) RES2(refusal) QUE2(full) RES2
		t.Errorf("refused round put %d frames on the air, want 6", len(frames))
	}
	if r := f.retransmissions(t); r != 0 {
		t.Errorf("a refusal cost %d retransmissions, want 0", r)
	}

	// The full handshake minted afresh; now the subject is re-provisioned.
	prov, err := f.b.ProvisionSubject(f.subject.ID())
	if err != nil {
		t.Fatal(err)
	}
	f.subject.Refresh(prov)
	if f.subject.Tickets() != 0 {
		t.Fatal("subject Refresh kept its tickets")
	}
	// No ticket, so no bound PROF_O: a rotated trust anchor is a re-provision
	// too, and the next RES2 is verified against it.
	verifies := f.ops(t, "subject", opVerify)
	got, frames = f.round(t)
	if len(got) != 1 || len(frames) != 4 {
		t.Fatalf("round after subject Refresh: %d discoveries over %d frames, want 1 over 4", len(got), len(frames))
	}
	if n := f.ops(t, "subject", opVerify) - verifies; n != 3 { // CERT_O, SIG_O, PROF_O
		t.Errorf("full handshake after subject Refresh: %d verifications, want 3", n)
	}
	wantBound(t, onlyTicket(t, &f.subject.tickets), f.only().variantEnc[0])
	f.want(t, "after subject Refresh", 3, 0, 1)
}

// TestTicketNeverOutlivesValidityWindow: a ticket is minted inside the joint
// window of the credentials it stands for, a ratchet step carries the window
// over unchanged, and outside it the ticket is dead on both sides.
func TestTicketNeverOutlivesValidityWindow(t *testing.T) {
	f := newResumeFixture(t, 1)
	o := f.only()
	// Copies: a ratchet step overwrites the filed ticket in place.
	st, ot := *onlyTicket(t, &f.subject.tickets), *onlyTicket(t, &o.tickets)
	if st.id != ot.id || st.secret != ot.secret {
		t.Fatal("the two ends minted different tickets")
	}
	sInfo, err := cert.VerifyCert(f.subject.prov.CACert, f.subject.prov.CertDER, suite.S128)
	if err != nil {
		t.Fatal(err)
	}
	oInfo, err := cert.VerifyCert(o.prov.CACert, o.prov.CertDER, suite.S128)
	if err != nil {
		t.Fatal(err)
	}
	if ot.notAfter.After(sInfo.NotAfter) || ot.notAfter.After(f.subject.prov.Profile.Expires) {
		t.Errorf("object ticket valid until %v, beyond CERT_S (%v) or PROF_S (%v)", ot.notAfter, sInfo.NotAfter, f.subject.prov.Profile.Expires)
	}
	if st.notAfter.After(oInfo.NotAfter) || st.notAfter.After(o.prov.Variants[0].Profile.Expires) {
		t.Errorf("subject ticket valid until %v, beyond CERT_O (%v) or PROF_O (%v)", st.notAfter, oInfo.NotAfter, o.prov.Variants[0].Profile.Expires)
	}
	f.round(t)
	st2, ot2 := onlyTicket(t, &f.subject.tickets), onlyTicket(t, &o.tickets)
	if st2.id == st.id || st2.secret == st.secret {
		t.Fatal("a completed resumed session did not ratchet the ticket")
	}
	if !st2.notAfter.Equal(st.notAfter) || !ot2.notAfter.Equal(ot.notAfter) || !ot2.notBefore.Equal(ot.notBefore) {
		t.Error("the ratchet moved the validity window")
	}

	// The object's copy expires: refused and dropped, one full handshake.
	ot2.notAfter = time.Now().Add(-time.Second)
	if got, _ := f.round(t); len(got) != 1 {
		t.Fatal("round with an expired object-side ticket failed")
	}
	f.want(t, "object-side expiry", 2, 1, 1)
	// The subject's copy expires: it does not present it at all.
	onlyTicket(t, &f.subject.tickets).notAfter = time.Now().Add(-time.Second)
	if got, frames := f.round(t); len(got) != 1 || len(frames) != 4 {
		t.Fatalf("round with an expired subject-side ticket: %d discoveries over %d frames", len(got), len(frames))
	}
	f.want(t, "subject-side expiry", 3, 1, 1)
}

// wantBound asserts that the subject's one ticket is bound to the PROF_O
// whose plaintext is plain.
func wantBound(t *testing.T, tk *ticket, plain []byte) {
	t.Helper()
	if tk.prof == nil || tk.profO != sha256.Sum256(plain) || !bytes.Equal(tk.prof.Encode(), plain) {
		t.Fatal("the ticket is not bound to the PROF_O just verified")
	}
}

// TestResumedRES2OtherFaceReverified: a Level 3 object answers a resumed
// session with whichever face the round's group key earns. A face other than
// the one the ticket was minted on is verified, once, and the next ticket is
// bound to it; the same face again is verified by nobody.
func TestResumedRES2OtherFaceReverified(t *testing.T) {
	f := newResumeFixtureAt(t, 1, L3, netsim.DefaultWiFi())
	o := f.only()
	other, err := f.b.Groups.CreateGroup("others")
	if err != nil {
		t.Fatal(err)
	}
	if err := f.b.AddSubjectToGroup(f.subject.ID(), other.ID()); err != nil {
		t.Fatal(err)
	}
	prov, err := f.b.ProvisionSubject(f.subject.ID())
	if err != nil {
		t.Fatal(err)
	}
	f.subject.Refresh(prov)
	if got, _ := f.round(t); len(got) != 1 { // a full handshake, minted afresh
		t.Fatalf("round after Refresh: %d discoveries, want 1", len(got))
	}
	last := f.subject.Results()[0].Level
	for _, step := range []struct {
		rotate   bool
		verifies int64
	}{{true, 1}, {false, 0}, {true, 1}, {false, 0}} {
		if step.rotate {
			f.subject.NextGroup()
		}
		before := f.ops(t, "subject", opVerify)
		got, _ := f.round(t)
		if len(got) != 1 {
			t.Fatalf("resumed round: %d discoveries, want 1", len(got))
		}
		if changed := got[0].Level != last; changed != step.rotate {
			t.Fatalf("rotate=%v: face went %v → %v", step.rotate, last, got[0].Level)
		}
		last = got[0].Level
		if n := f.ops(t, "subject", opVerify) - before; n != step.verifies {
			t.Errorf("rotate=%v: the subject verified %d times, want %d", step.rotate, n, step.verifies)
		}
		face := 0
		if last == L3 {
			face = o.firstCovertVariant()
		}
		wantBound(t, onlyTicket(t, &f.subject.tickets), o.variantEnc[face])
	}
	f.want(t, "after the face changes", 2, 4, 0)
}

// TestResumedRES2ResignedProfileReverified: the same profile signed again is
// other bytes. The object keeps its ticket (only its encoding changed, not its
// provision), so the session resumes, and the subject verifies the new bytes
// once and binds the next ticket to them.
func TestResumedRES2ResignedProfileReverified(t *testing.T) {
	f := newResumeFixture(t, 1)
	o := f.only()
	prov, err := f.b.ProvisionObject(o.ID())
	if err != nil {
		t.Fatal(err)
	}
	resigned := prov.Variants[0].Profile.Encode()
	if bytes.Equal(resigned, o.variantEnc[0]) {
		t.Fatal("re-provisioning returned the same PROF_O bytes")
	}
	o.variantEnc[0] = resigned
	for i, want := range []int64{1, 0} {
		before := f.ops(t, "subject", opVerify)
		if got, _ := f.round(t); len(got) != 1 {
			t.Fatalf("round %d: %d discoveries, want 1", i, len(got))
		}
		if n := f.ops(t, "subject", opVerify) - before; n != want {
			t.Errorf("round %d: the subject verified %d times, want %d", i, n, want)
		}
		wantBound(t, onlyTicket(t, &f.subject.tickets), resigned)
	}
	f.want(t, "after the re-signed rounds", 1, 2, 0)
}

// TestResumedRES2UnsignedProfileRefused: MAC_O proves the RES2 came from the
// ticket's holder, not that the admin signed what it carries. A PROF_O whose
// signature does not verify is no discovery, and the ticket stays bound to
// what was verified.
func TestResumedRES2UnsignedProfileRefused(t *testing.T) {
	f := newResumeFixture(t, 1)
	o := f.only()
	st := onlyTicket(t, &f.subject.tickets)
	bound := st.prof
	forged := *o.prov.Variants[0].Profile
	forged.Functions = append([]string{"unlock"}, forged.Functions[1:]...)
	o.variantEnc[0] = forged.Encode()
	if got, _ := f.round(t); len(got) != 0 {
		t.Fatalf("an unsigned PROF_O was discovered: %+v", got[0].Profile)
	}
	if tk := onlyTicket(t, &f.subject.tickets); tk.id != st.id || tk.prof != bound {
		t.Error("a RES2 carrying an unverified PROF_O minted or bound a ticket")
	}
}

// TestResumedRES2ClosedWindowReverified: a bound profile is trusted only
// inside its own validity window. Once it has closed, the bytes are verified
// again (here they still hold), and the next ticket binds what was verified.
func TestResumedRES2ClosedWindowReverified(t *testing.T) {
	f := newResumeFixture(t, 1)
	o := f.only()
	st := onlyTicket(t, &f.subject.tickets)
	closed := *st.prof
	closed.Expires = time.Now().Add(-time.Second)
	st.prof = &closed
	before := f.ops(t, "subject", opVerify)
	got, _ := f.round(t)
	if len(got) != 1 {
		t.Fatalf("round: %d discoveries, want 1", len(got))
	}
	if n := f.ops(t, "subject", opVerify) - before; n != 1 {
		t.Errorf("the subject verified %d times, want 1", n)
	}
	if got[0].Profile == &closed {
		t.Error("the expired bound profile was reported as discovered")
	}
	tk := onlyTicket(t, &f.subject.tickets)
	if tk.prof == &closed {
		t.Error("the next ticket kept the expired bound profile")
	}
	wantBound(t, tk, o.variantEnc[0])
	f.want(t, "after the re-verified round", 1, 1, 0)
}

// TestReplayAndForeignAddressRefused: a short QUE2 is worth nothing to anyone
// but its sender, and nothing twice.
func TestReplayAndForeignAddressRefused(t *testing.T) {
	f := newResumeFixture(t, 1)
	o := f.only()
	_, frames := f.round(t) // a resumed round to capture
	var que1, que2 []byte
	for _, fr := range frames {
		switch fr.msg.Type() {
		case wire.TQUE1:
			que1 = fr.payload
		case wire.TQUE2:
			que2 = fr.payload
		}
	}
	ticketsBefore := onlyTicket(t, &o.tickets).id

	// An attacker at its own address replays the captured round: the QUE1
	// opens a session (any stranger's would), the short QUE2 names a ticket
	// filed under another address — refused, nothing served, ticket intact.
	var heard []wire.Message
	var attacker netsim.NodeID
	attacker = f.net.AddNode(netsim.HandlerFunc(func(net *netsim.Network, from netsim.NodeID, p []byte) {
		m, err := wire.Decode(p)
		if err != nil {
			return
		}
		heard = append(heard, m)
		if m.Type() == wire.TRES1 {
			net.Send(attacker, from, que2)
		}
	}))
	var objNode netsim.NodeID
	for _, fr := range frames {
		if fr.msg.Type() == wire.TRES1 {
			objNode = fr.from
		}
	}
	f.net.Link(attacker, objNode)
	f.net.Send(attacker, objNode, que1)
	f.net.Run(0)
	var refusals int
	for _, m := range heard {
		if r, ok := m.(*wire.RES2); ok {
			if !r.Refusal() {
				t.Fatal("object served a ticket presented from a foreign address")
			}
			refusals++
		}
	}
	if refusals != 1 {
		t.Errorf("attacker heard %d refusals, want 1", refusals)
	}
	if onlyTicket(t, &o.tickets).id != ticketsBefore {
		t.Error("a foreign presentation disturbed the owner's ticket")
	}

	// The same bytes replayed at the owner's address, against the session of
	// a new round: K2′ hangs on the fresh R_O, and the ticket it names was
	// spent — either alone defeats it. Drive the object directly.
	// (Settle for 100 ms only: a drained simulator would run the session's
	// expiry timer too.)
	settle := func() { f.net.Run(f.net.Now() + 100*time.Millisecond) }
	subj := f.subject.ep.Addr()
	rs, _ := suite.NewNonce(nil)
	o.Handle(subj, (&wire.QUE1{Version: wire.V30, RS: rs}).Encode())
	settle()
	replay, _ := wire.Decode(que2)
	q := replay.(*wire.QUE2)
	q.RS = rs
	air := len(f.air.msgs)
	o.Handle(subj, q.Encode())
	settle()
	for _, fr := range f.air.msgs[air:] {
		if r, ok := fr.msg.(*wire.RES2); ok && !r.Refusal() {
			t.Fatal("object served a replayed short QUE2")
		}
	}
	// Even naming the live ticket, without the secret the MAC cannot follow R_O.
	live := onlyTicket(t, &o.tickets).id
	q.Ticket = live[:]
	before := counterValue(t, f.reg, obs.MObjectQue2, obs.L("result", resultRejected))
	o.Handle(subj, q.Encode())
	settle()
	if got := counterValue(t, f.reg, obs.MObjectQue2, obs.L("result", resultRejected)); got != before+1 {
		t.Errorf("stale MAC under a live ticket: rejected counter moved by %d, want 1", got-before)
	}
	if onlyTicket(t, &o.tickets).id != live {
		t.Error("a failed presentation consumed the ticket")
	}
	// And the owner still resumes afterwards.
	if got, _ := f.round(t); len(got) != 1 {
		t.Fatal("owner could not resume after the replays")
	}
}

// TestForgedRES1CostsHMACsOnly: the subject skips SIG_O on a resumed session,
// so it will answer a forged RES1 that carries the right CERT_O — with HMACs
// and nothing else, a QUE2 the real object rejects, and a session the genuine
// RES1 supersedes.
func TestForgedRES1CostsHMACsOnly(t *testing.T) {
	f := newResumeFixture(t, 1)
	o := f.only()
	forged := &wire.RES1{Version: wire.V30, Mode: wire.ModeSecure, CertO: o.prov.CertDER,
		RO: make([]byte, suite.NonceSize), KEXMO: make([]byte, suite.S128.PointSize()), Sig: make([]byte, suite.S128.SignatureSize())}
	rand.Read(forged.RO)

	before := map[string]int64{}
	for _, op := range []string{opSign, opVerify, opKexGen, opKexShared} {
		before[op] = f.ops(t, "subject", op)
	}
	seen := len(f.subject.Results())
	if err := f.subject.Discover(1); err != nil {
		t.Fatal(err)
	}
	f.subject.Handle(o.ep.Addr(), forged.Encode()) // beats the genuine RES1 to the subject
	for _, op := range []string{opSign, opVerify, opKexGen, opKexShared} {
		if d := f.ops(t, "subject", op) - before[op]; d != 0 {
			t.Errorf("forged RES1 cost the subject %d %s ops", d, op)
		}
	}
	f.net.Run(0)
	got := f.subject.Results()[seen:]
	if len(got) != 1 || got[0].Object != o.ID() {
		t.Fatalf("genuine RES1 did not supersede the forged one: %d discoveries", len(got))
	}
	if rej := counterValue(t, f.reg, obs.MObjectQue2, obs.L("result", resultRejected)); rej != 1 {
		t.Errorf("object rejected %d QUE2s, want 1 (the one answering the forgery)", rej)
	}
	f.want(t, "after the forgery", 1, 1, 0)
	if d := f.ops(t, "subject", opSign) - before[opSign]; d != 0 {
		t.Errorf("the round cost the subject %d signatures, want 0", d)
	}
}

// TestDesyncAndEvictionCostOneFullHandshake: whichever way the two tables
// come apart — the object a ratchet step ahead after a lost RES2, or the
// ticket evicted — the next round pays one refusal and one full handshake,
// no retransmission, and the pairing resumes again after it.
func TestDesyncAndEvictionCostOneFullHandshake(t *testing.T) {
	for _, how := range []string{"desync", "eviction"} {
		f := newResumeFixture(t, 1)
		o := f.only()
		if how == "desync" {
			// The round loses every RES2 and is given up after a second, well
			// before the object's answered session ages out: left to run, its
			// probes would restart the handshake, and a restart is answered
			// with the signed RES1 that costs the subject its ticket too.
			dropType(f.net, wire.TRES2)
			if err := f.subject.Discover(1); err != nil {
				t.Fatal(err)
			}
			f.net.Run(f.net.Now() + time.Second)
			f.subject.CompleteRound()
			f.net.SetDropFilter(nil)
			if onlyTicket(t, &o.tickets).id == onlyTicket(t, &f.subject.tickets).id {
				t.Fatal("tables still in step after a resumed session lost its RES2")
			}
		} else {
			o.tickets.drop(f.subject.ep.Addr())
		}
		retrans := f.retransmissions(t)
		signs := f.ops(t, "subject", opSign)
		refused := counterValue(t, f.reg, obs.MResumptions, obs.L("side", "subject"), obs.L("result", resultRefused))
		// The hint finds no ticket, or one a step ahead: signed RES1, short
		// QUE2, the empty RES2, full QUE2, RES2.
		got, frames := f.round(t)
		if len(got) != 1 || len(frames) != 6 {
			t.Fatalf("%s: recovery round: %d discoveries over %d frames, want 1 over 6", how, len(got), len(frames))
		}
		if d := f.retransmissions(t) - retrans; d != 0 {
			t.Errorf("%s: recovery cost %d retransmissions, want 0", how, d)
		}
		if d := f.ops(t, "subject", opSign) - signs; d != 1 {
			t.Errorf("%s: recovery cost %d full handshakes, want 1", how, d)
		}
		if d := counterValue(t, f.reg, obs.MResumptions, obs.L("side", "subject"), obs.L("result", resultRefused)) - refused; d != 1 {
			t.Errorf("%s: %d refusals, want 1", how, d)
		}
		signs = f.ops(t, "subject", opSign)
		if got, frames := f.round(t); len(got) != 1 || len(frames) != 4 || f.ops(t, "subject", opSign) != signs {
			t.Errorf("%s: the pairing did not resume after recovering", how)
		}
	}
}

// TestTicketTableBounded: the table holds maxTickets and evicts the ticket
// filed longest ago; replacing a key evicts nothing.
func TestTicketTableBounded(t *testing.T) {
	var tt ticketTable
	at := func(i int) transport.Addr { return transport.Addr(strconv.Itoa(i)) }
	if tt.get(at(1)) != nil || tt.size() != 0 {
		t.Fatal("empty table is not empty")
	}
	var k2 suite.Key
	k2.Set([]byte("K2"))
	file := func(i int) { tt.mint(at(i), &ticket{}, &k2, [32]byte{}) }
	for i := 0; i < maxTickets; i++ {
		file(i)
	}
	file(0) // refiled: now the newest
	file(maxTickets)
	if tt.size() != maxTickets || len(tt.m) != maxTickets {
		t.Fatalf("table grew to %d, bound is %d", tt.size(), maxTickets)
	}
	if tt.get(at(1)) != nil {
		t.Error("the oldest ticket survived eviction")
	}
	if tt.get(at(0)) == nil || tt.get(at(2)) == nil || tt.get(at(maxTickets)) == nil {
		t.Error("eviction took a ticket other than the oldest")
	}
	// The hint block's pick: the newest few, newest first, open windows only.
	tt.get(at(0)).notAfter = time.Now().Add(-time.Second)
	for i := 1; i < maxTickets; i++ {
		tt.get(at(i + 1)).notAfter = time.Now().Add(time.Hour)
	}
	var buf [3]*ticket
	got := tt.recent(buf[:], time.Now())
	if len(got) != 3 || got[0] != tt.get(at(maxTickets)) || got[1] != tt.get(at(maxTickets-1)) || got[2] != tt.get(at(maxTickets-2)) {
		t.Error("recent did not return the three newest valid tickets, newest first")
	}
	tt.drop(at(2))
	tt.flush()
	if tt.size() != 0 || tt.get(at(0)) != nil || len(tt.recent(buf[:], time.Now())) != 0 {
		t.Error("flush left tickets behind")
	}
}

// TestHintSlotDoesNotFollowRank: every held ticket's tag is in the block once,
// and where it sits says nothing about how recently the ticket was filed — the
// object that recognises its tag must not read the subject's visit order off
// the slot index.
func TestHintSlotDoesNotFollowRank(t *testing.T) {
	const n = 3
	f := newResumeFixture(t, n)
	var buf [wire.HintSlots]*ticket
	byRank := f.subject.tickets.recent(buf[:], time.Now())
	if len(byRank) != n {
		t.Fatalf("subject holds %d tickets, want %d", len(byRank), n)
	}
	suite.FillNonce(&f.subject.rs, nil)
	rs := f.subject.rs[:]
	slots := make([]map[int]bool, n) // rank → slots its tag was seen at
	for i := range slots {
		slots[i] = map[int]bool{}
	}
	for draw := 0; draw < 64; draw++ {
		var fill [wire.HintBlockSize + 8]byte
		block := f.subject.hints(&fill)
		for rank, tk := range byRank {
			h, at := tk.secret.Hint(rs), -1
			for i := 0; i < wire.HintSlots; i++ {
				if [wire.HintSize]byte(block[i*wire.HintSize:]) == h {
					if at >= 0 {
						t.Fatalf("rank %d tag at slots %d and %d", rank, at, i)
					}
					at = i
				}
			}
			if at < 0 {
				t.Fatalf("rank %d tag missing from the block", rank)
			}
			slots[rank][at] = true
		}
	}
	for rank, seen := range slots {
		if len(seen) < wire.HintSlots/2 {
			t.Errorf("rank %d tag only ever sat at %d slot(s) of %d in 64 draws", rank, len(seen), wire.HintSlots)
		}
	}
}

// TestDiscoverAllOverResumedSessions: §VI-C's key rotation needs nothing from
// the ticket — K3 comes from the round's active group key on top of K2′ — so
// a second sweep, every session of it resumed, finds every covert service
// again, and a Level 3 object's two faces stay one QUE2 shape.
func TestDiscoverAllOverResumedSessions(t *testing.T) {
	d := newDeployment(t)
	reg := obs.NewRegistry()
	g1, _ := d.b.Groups.CreateGroup("group-one")
	g2, _ := d.b.Groups.CreateGroup("group-two")
	d.b.AddPolicy(attr.MustParse("position=='student'"), attr.MustParse("type=='kiosk'"), []string{"use"})
	sid, _, _ := d.b.RegisterSubject("multi", attr.MustSet("position=student"))
	d.b.AddSubjectToGroup(sid, g1.ID())
	d.b.AddSubjectToGroup(sid, g2.ID())
	o1, _, _ := d.b.RegisterObject("covert-1", L3, attr.MustSet("type=kiosk"), []string{"use"})
	o2, _, _ := d.b.RegisterObject("covert-2", L3, attr.MustSet("type=kiosk"), []string{"use"})
	d.b.AddCovertService(o1, g1.ID(), []string{"use", "support-1"})
	d.b.AddCovertService(o2, g2.ID(), []string{"use", "support-2"})
	opts := []Option{WithRetry(DefaultRetry()), WithTelemetry(reg, nil)}
	d.attachSubject(sid, wire.V30, opts...)
	d.attachObject(o1, wire.V30, opts...)
	d.attachObject(o2, wire.V30, opts...)
	air := &tap{}

	sweep := func() map[string]bool {
		from := len(d.subject.Results())
		if err := d.subject.DiscoverAll(1, func() { d.net.Run(0) }); err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for _, r := range findByLevel(d.subject.Results()[from:], L3) {
			for _, fn := range r.Profile.Functions {
				seen[fn] = true
			}
		}
		return seen
	}
	if seen := sweep(); !seen["support-1"] || !seen["support-2"] {
		t.Fatalf("first sweep missed covert services: %v", seen)
	}
	signs := counterValue(t, reg, obs.MCryptoOps, obs.L("role", "subject"), obs.L("op", opSign))
	air.install(d.net)
	if seen := sweep(); !seen["support-1"] || !seen["support-2"] {
		t.Fatalf("resumed sweep missed covert services: %v", seen)
	}
	if got := counterValue(t, reg, obs.MCryptoOps, obs.L("role", "subject"), obs.L("op", opSign)); got != signs {
		t.Errorf("resumed sweep signed %d QUE2s, want 0", got-signs)
	}
	que2s, res2s := air.byType(wire.TQUE2), air.byType(wire.TRES2)
	if len(que2s) != 4 || len(res2s) != 4 {
		t.Fatalf("resumed sweep: %d QUE2 / %d RES2, want 4 / 4", len(que2s), len(res2s))
	}
	for _, fr := range que2s[1:] {
		if len(fr.payload) != len(que2s[0].payload) {
			t.Error("resumed QUE2 lengths differ between fellow and non-fellow sessions")
		}
	}
	for _, fr := range res2s[1:] {
		if len(fr.payload) != len(res2s[0].payload) {
			t.Error("resumed RES2 lengths differ between the Level 3 and the Level 2 face")
		}
	}
}

// The dead-end matrix (DESIGN.md §15): a short RES1 carries nothing a subject
// could finish a full handshake from, so whatever takes the ticket away from
// either end in the middle of a round — at any of the three gaps between the
// frames of the short exchange — must still end the round at once, with no
// retransmission and no timer: a refusal that is itself the way forward. A
// revoked subject is refused for good, and its chains run out on their
// budgets.

// gap names the frame of the short exchange an injection overtakes: it is
// applied when that frame has been sent and before its receiver handles it.
type gap struct {
	name string
	is   func(m wire.Message) bool
}

var gaps = []gap{
	{"after QUE1 sent", func(m wire.Message) bool { return m.Type() == wire.TQUE1 }},
	{"after RES1 sent", func(m wire.Message) bool { return m.Type() == wire.TRES1 }},
	{"after QUE2 sent", func(m wire.Message) bool { return m.Type() == wire.TQUE2 }},
}

// at applies inject once, at the first frame of the coming round that g names.
func (f *resumeFixture) at(g gap, inject func()) {
	done := false
	f.net.SetDropFilter(func(_, _ netsim.NodeID, p []byte) bool {
		if m, err := wire.Decode(p); err == nil && !done && g.is(m) {
			done = true
			inject()
		}
		return false
	})
}

func TestDeadEndMatrix(t *testing.T) {
	type row struct {
		name    string
		inject  func(f *resumeFixture, o *Object)
		revoked bool
		frames  [3]int // on the air, per gap: the table in DESIGN.md §15
	}
	rows := []row{
		{"object Refresh", func(f *resumeFixture, o *Object) { f.refreshObject(o.Name()) }, false, [3]int{6, 6, 6}},
		{"object Revoke", func(f *resumeFixture, o *Object) { o.Revoke(f.subject.ID()) }, true, [3]int{5, 3, 3}},
		{"object ticket eviction", func(f *resumeFixture, o *Object) { o.tickets.drop(f.subject.ep.Addr()) }, false, [3]int{6, 6, 6}},
		{"object ticket expiry", func(f *resumeFixture, o *Object) {
			o.tickets.get(f.subject.ep.Addr()).notAfter = time.Now().Add(-time.Second)
		}, false, [3]int{6, 6, 6}},
		{"subject Refresh", func(f *resumeFixture, o *Object) {
			prov, err := f.b.ProvisionSubject(f.subject.ID())
			if err != nil {
				f.t.Fatal(err)
			}
			f.subject.Refresh(prov)
		}, false, [3]int{6, 6, 4}},
		{"subject ticket eviction", func(f *resumeFixture, o *Object) { f.subject.tickets.drop(o.ep.Addr()) }, false, [3]int{6, 6, 4}},
		{"desync", func(f *resumeFixture, o *Object) {
			// The object a ratchet step ahead, as after a RES2 lost for good.
			var h [32]byte
			rand.Read(h[:])
			var k suite.Key
			k.Set(h[:])
			o.tickets.mint(f.subject.ep.Addr(), o.tickets.get(f.subject.ep.Addr()), &k, h)
		}, false, [3]int{6, 6, 6}},
	}
	// Links on which the longest exchange of the matrix, six frames, is over
	// before the earliest retransmission deadline — a light leg's, lightFloor
	// after the last activity: what has happened by then happened without a
	// timer.
	fast := netsim.LinkModel{PerMessage: time.Millisecond, BytesPerSecond: 10_000_000, PropagationDelay: time.Millisecond}
	ttl := DefaultRetry().ttl()
	for _, level := range []Level{L2, L3} {
		for _, r := range rows {
			for gi, g := range gaps {
				t.Run(level.String()+"/"+r.name+"/"+g.name, func(t *testing.T) {
					f := newResumeFixtureAt(t, 1, level, fast)
					o := f.only()
					f.at(g, func() { r.inject(f, o) })
					start, expired := f.net.Now(), counterValue(t, f.reg, obs.MSessionsExpired)
					que1 := []obs.Label{obs.L("msg", msgQUE1), obs.L("cause", obs.CauseTimeout)}
					que2 := []obs.Label{obs.L("msg", msgQUE2)}
					q1, q2 := counterValue(t, f.reg, obs.MRetransmissions, que1...), counterValue(t, f.reg, obs.MRetransmissions, que2...)
					seen, onAir := len(f.subject.Results()), len(f.air.msgs)
					f.inRound = 0
					if err := f.subject.Discover(1); err != nil {
						t.Fatal(err)
					}
					f.net.Run(start + lightFloor - time.Millisecond)
					got, frames := f.subject.Results()[seen:], f.air.msgs[onAir:]
					if r.revoked {
						if len(got) != 0 {
							t.Fatalf("revoked subject discovered %d services", len(got))
						}
					} else if len(got) != 1 || got[0].Level != level || got[0].Object != o.ID() {
						t.Fatalf("round ended in %+v, want one discovery of the device at %v", got, level)
					}
					if len(frames) != r.frames[gi] {
						t.Errorf("%d frames, want %d", len(frames), r.frames[gi])
					}
					if n := f.retransmissions(t); n != 0 {
						t.Errorf("%d retransmissions, want 0", n)
					}
					if n := counterValue(t, f.reg, obs.MSessionsExpired) - expired; n != 0 {
						t.Errorf("%d sessions expired before the round ended", n)
					}
					if r.revoked {
						// The silence is final, and left to run the round spends
						// its budgets and no more: what a rebroadcast draws from
						// the object's session, its RES1 again, does not restart
						// the chain.
						f.net.Run(0)
						p := DefaultRetry()
						q1 = counterValue(t, f.reg, obs.MRetransmissions, que1...) - q1
						q2 = counterValue(t, f.reg, obs.MRetransmissions, que2...) - q2
						if q1 == 0 || q1 > int64(p.Que1Retries) || q2 > int64(p.Que2Retries) {
							t.Errorf("%d QUE1 and %d QUE2 retransmissions, want the QUE1 chain and budgets %d and %d", q1, q2, p.Que1Retries, p.Que2Retries)
						}
					}
					f.net.SetDropFilter(nil)
					f.net.Run(0)
					if f.net.Now()-start > 3*ttl {
						t.Errorf("state drained after %v, bound %v", f.net.Now()-start, 3*ttl)
					}
					if s, obj := f.subject.PendingSessions(), o.PendingSessions(); s != 0 || obj != 0 {
						t.Errorf("sessions left: subject %d, object %d", s, obj)
					}
					if len(f.subject.Results()) != seen+len(got) {
						t.Errorf("%d more discoveries while draining", len(f.subject.Results())-seen-len(got))
					}
					if r.revoked {
						return
					}
					// And the pairing is whole again: the next round is the short one.
					signs := f.ops(t, "object", opSign)
					if got, frames := f.round(t); len(got) != 1 || len(frames) != 4 || f.ops(t, "object", opSign) != signs {
						t.Errorf("next round: %d discoveries over %d frames, %d object signatures; want 1, 4, 0",
							len(got), len(frames), f.ops(t, "object", opSign)-signs)
					}
				})
			}
		}
	}
}

// TestForgedShortRES1CostsHMACsOnly: a short RES1 is a nonce anyone can send.
// The subject answers it with HMACs and nothing else, the real object cannot
// verify the QUE2 (its own R_O is another) and keeps its session, and the
// genuine short RES1 supersedes the forged one.
func TestForgedShortRES1CostsHMACsOnly(t *testing.T) {
	f := newResumeFixture(t, 1)
	o := f.only()
	forged := &wire.RES1{Version: wire.V30, Mode: wire.ModeResume, RO: make([]byte, suite.NonceSize)}
	rand.Read(forged.RO)
	heavy := []string{opSign, opVerify, opKexGen, opKexShared}
	before := map[string]int64{}
	for _, op := range heavy {
		before[op] = f.ops(t, "subject", op)
	}
	seen := len(f.subject.Results())
	if err := f.subject.Discover(1); err != nil {
		t.Fatal(err)
	}
	f.subject.Handle(o.ep.Addr(), forged.Encode()) // beats the genuine RES1 to the subject
	for _, op := range heavy {
		if d := f.ops(t, "subject", op) - before[op]; d != 0 {
			t.Errorf("forged short RES1 cost the subject %d %s ops", d, op)
		}
	}
	f.net.Run(0)
	if got := f.subject.Results()[seen:]; len(got) != 1 || got[0].Object != o.ID() {
		t.Fatalf("genuine RES1 did not supersede the forged one: %d discoveries", len(got))
	}
	if rej := counterValue(t, f.reg, obs.MObjectQue2, obs.L("result", resultRejected)); rej != 1 {
		t.Errorf("object rejected %d QUE2s, want 1 (the one answering the forgery)", rej)
	}
	f.want(t, "after the forgery", 1, 1, 0)
	if d := f.ops(t, "subject", opSign) - before[opSign]; d != 0 {
		t.Errorf("the round cost the subject %d signatures, want 0", d)
	}
	// The other order. A forgery that arrives after the genuine short RES1
	// displaces the live session — the subject cannot tell it from the object
	// restarting an aged-out handshake — and the genuine RES2 fails its MAC.
	// That costs HMACs and time, not the pairing: the ticket stays, the object
	// (a ratchet step ahead by then) answers the round's probe signed once its
	// answered session is collected, SIG_O verifies, and the full handshake
	// that follows ends the round in its one discovery.
	for _, op := range heavy {
		before[op] = f.ops(t, "subject", op)
	}
	seen = len(f.subject.Results())
	rand.Read(forged.RO)
	f.at(gaps[2], func() { f.subject.Handle(o.ep.Addr(), forged.Encode()) }) // the genuine QUE2 is out
	f.inRound = 0
	start := f.net.Now()
	if err := f.subject.Discover(1); err != nil {
		t.Fatal(err)
	}
	f.net.Run(start + DefaultRetry().Timeout - 50*time.Millisecond)
	for _, op := range heavy {
		if d := f.ops(t, "subject", op) - before[op]; d != 0 {
			t.Errorf("forged short RES1 after the genuine one cost the subject %d %s ops", d, op)
		}
	}
	if f.subject.Tickets() != 1 {
		t.Error("forged short RES1 cost the subject its ticket")
	}
	f.net.SetDropFilter(nil)
	f.net.Run(0)
	if got := f.subject.Results()[seen:]; len(got) != 1 || got[0].Object != o.ID() {
		t.Fatalf("round displaced by a forgery ended in %d discoveries, want 1", len(got))
	}
	if took, bound := f.subject.Results()[seen].At-start, DefaultRetry().ttl(); took > bound {
		t.Errorf("displaced round recovered after %v, bound %v", took, bound)
	}
	if d := f.ops(t, "subject", opSign) - before[opSign]; d != 1 {
		t.Errorf("recovery cost the subject %d full handshakes, want 1", d)
	}
	// Under the zero policy nobody hints, so nobody believes a short RES1.
	d := l2Fixture(t, nil)
	if err := d.subject.Discover(1); err != nil {
		t.Fatal(err)
	}
	d.subject.Handle(d.objects["printer"].ep.Addr(), forged.Encode())
	if d.subject.PendingSessions() != 0 {
		t.Error("zero-policy subject opened a session on a short RES1")
	}
}

// TestHintIsWorthNothingElsewhere: what a QUE1 hint costs an object is one
// HMAC, and only when the sender's address has a ticket on file. Replayed
// from another subject's address it matches nothing and is answered like a
// stranger's, signed; from addresses the object has never seen — a Sybil
// flood — a hinted QUE1 costs exactly what the plain QUE1 of the paper does.
func TestHintIsWorthNothingElsewhere(t *testing.T) {
	f := newResumeFixture(t, 1)
	o := f.only()
	_, frames := f.round(t) // a resumed round to capture
	var que1 []byte
	for _, fr := range frames {
		if fr.msg.Type() == wire.TQUE1 {
			que1 = fr.payload
		}
	}
	if m, _ := wire.Decode(que1); len(m.(*wire.QUE1).Hints) != wire.HintBlockSize {
		t.Fatal("captured QUE1 carries no hint block")
	}
	// bob is a second subject the object knows (addSubject makes him the
	// fixture's subject from here on).
	var objNode netsim.NodeID
	for _, fr := range frames {
		if fr.msg.Type() == wire.TRES1 {
			objNode = fr.from
		}
	}
	bob := f.addSubject("bob", attr.MustSet("position=staff"), wire.V30, WithRetry(DefaultRetry()), WithTelemetry(f.reg, nil))
	f.net.Link(f.subjNode, objNode)
	if err := bob.Discover(1); err != nil {
		t.Fatal(err)
	}
	f.net.Run(f.net.Now() + time.Second)
	bob.CompleteRound()
	if o.Tickets() != 2 || bob.Tickets() != 1 {
		t.Fatalf("object holds %d tickets, bob %d; want 2 and 1", o.Tickets(), bob.Tickets())
	}
	type cost struct{ hmac, sign, kexGen, resume, handshake int64 }
	read := func() cost {
		return cost{f.ops(t, "object", opHMAC), f.ops(t, "object", opSign), f.ops(t, "object", opKexGen),
			counterValue(t, f.reg, obs.MObjectQue1, obs.L("result", resultResume)),
			counterValue(t, f.reg, obs.MObjectQue1, obs.L("result", resultHandshake))}
	}
	delta := func(a, b cost) cost {
		return cost{b.hmac - a.hmac, b.sign - a.sign, b.kexGen - a.kexGen, b.resume - a.resume, b.handshake - a.handshake}
	}
	settle := func() { f.net.Run(f.net.Now() + 100*time.Millisecond) }

	// alice's hinted QUE1, replayed from bob's address.
	c0 := read()
	o.Handle(bob.ep.Addr(), que1)
	settle()
	if d := delta(c0, read()); d != (cost{hmac: 1, sign: 1, kexGen: 1, handshake: 1}) {
		t.Errorf("hint replayed from a known address cost %+v, want one HMAC and a signed RES1", d)
	}

	// A Sybil flood: the same block, then no block, from fresh addresses.
	const flood = 20
	var per [2]cost
	for i, hinted := range []bool{true, false} {
		c0 := read()
		for j := 0; j < flood; j++ {
			rs, _ := suite.NewNonce(nil)
			q := &wire.QUE1{Version: wire.V30, RS: rs}
			if hinted {
				q.Hints = make([]byte, wire.HintBlockSize)
				rand.Read(q.Hints)
			}
			o.Handle(transport.Addr("sybil-"+strconv.Itoa(i*flood+j)), q.Encode())
		}
		settle()
		per[i] = delta(c0, read())
	}
	if per[0] != per[1] || per[0] != (cost{sign: flood, kexGen: flood, handshake: flood}) {
		t.Errorf("flood of hinted QUE1s cost %+v, of plain ones %+v; want both one signed RES1 each and no HMAC", per[0], per[1])
	}
}

// TestShortExchangeSurvivesLoss: each frame the short exchange adds or changes
// is recovered by a resend path that was there before it — the probe that makes
// the object resend its RES1, the QUE2 retransmission that makes it resend the
// refusal, byte for byte.
func TestShortExchangeSurvivesLoss(t *testing.T) {
	dropFirst := func(f *resumeFixture, is func(*wire.RES1) bool) *[]byte {
		var lost []byte
		f.net.SetDropFilter(func(_, _ netsim.NodeID, p []byte) bool {
			m, err := wire.Decode(p)
			if r, ok := m.(*wire.RES1); err == nil && ok && lost == nil && is(r) {
				lost = append([]byte{}, p...)
				return true
			}
			return false
		})
		return &lost
	}
	t.Run("short RES1", func(t *testing.T) {
		f := newResumeFixture(t, 1)
		lost := dropFirst(f, func(r *wire.RES1) bool { return r.Mode == wire.ModeResume })
		got, frames := f.round(t)
		if len(got) != 1 || *lost == nil {
			t.Fatalf("%d discoveries after a lost short RES1", len(got))
		}
		if n := counterValue(t, f.reg, obs.MRetransmissions, obs.L("msg", msgRES1)); n != 1 {
			t.Errorf("%d RES1 resends, want 1", n)
		}
		var again int
		for _, fr := range frames {
			if string(fr.payload) == string(*lost) {
				again++
			}
		}
		if again != 2 {
			t.Errorf("the lost RES1 was on the air %d times, want 2 (resent verbatim)", again)
		}
		f.want(t, "after the lost short RES1", 1, 1, 0)
	})
	t.Run("refusal RES1", func(t *testing.T) {
		// No hint matches an evicted ticket, so evict after the short RES1.
		f := newResumeFixture(t, 1)
		o := f.only()
		signs := f.ops(t, "object", opSign)
		var lost []byte
		f.net.SetDropFilter(func(_, _ netsim.NodeID, p []byte) bool {
			m, err := wire.Decode(p)
			if err != nil {
				return false
			}
			if r, ok := m.(*wire.RES1); ok && r.Mode == wire.ModeResume {
				o.tickets.drop(f.subject.ep.Addr())
			} else if ok && r.Mode == wire.ModeSecure && lost == nil {
				lost = append([]byte{}, p...)
				return true
			}
			return false
		})
		got, frames := f.round(t)
		if len(got) != 1 || lost == nil {
			t.Fatalf("%d discoveries after a lost refusal", len(got))
		}
		if d := f.ops(t, "object", opSign) - signs; d != 1 {
			t.Errorf("the object signed %d RES1s, want 1: a duplicate short QUE2 must get the same bytes", d)
		}
		var again int
		for _, fr := range frames {
			if string(fr.payload) == string(lost) {
				again++
			}
		}
		// The QUE2 retransmission and the QUE1 probe each draw one.
		if n := counterValue(t, f.reg, obs.MRetransmissions, obs.L("msg", msgRES1)); n == 0 || again != int(n)+1 {
			t.Errorf("the lost refusal was on the air %d times over %d resends, want every resend verbatim", again, n)
		}
		f.want(t, "after the lost refusal", 2, 0, 1)
	})
}

// TestSessionKeysWipedOnRelease: a session holds its prepared K2 and K3 while
// it may still need them and not a moment longer. A resumed Level 3 round
// whose first RES2 is lost keeps the subject's keys across the QUE2
// retransmission; once the resent RES2 completes it, no session of either
// engine holds a key, a session's copy of its ticket holds no secret, and
// the only nonzero Keys are the secrets of filed tickets — each the ticket on
// file before the round, ratcheted in place. (An object session has no key to
// hold: K2 and K3 live on the stack of the QUE2 handler.) A session given up —
// expired, or superseded by a restart — and a ticket that is dropped are
// wiped as well.
func TestSessionKeysWipedOnRelease(t *testing.T) {
	f := newResumeFixtureAt(t, 1, L3, netsim.DefaultWiFi())
	o := f.only()
	sAddr, oAddr := f.subject.ep.Addr(), o.ep.Addr()
	filedS, filedO := f.subject.tickets.get(oAddr), o.tickets.get(sAddr)
	before := filedS.secret

	lost := false
	f.net.SetDropFilter(func(_, _ netsim.NodeID, p []byte) bool {
		if !lost && len(p) > 0 && p[0] == byte(wire.TRES2) {
			lost = true
			return true
		}
		return false
	})
	f.inRound = 0
	seen := len(f.subject.Results())
	if err := f.subject.Discover(1); err != nil {
		t.Fatal(err)
	}
	for end := f.net.Now() + time.Second; !lost && f.net.Now() < end; {
		f.net.Run(f.net.Now() + time.Millisecond)
	}
	if !lost || len(f.subject.sessions) != 1 {
		t.Fatalf("RES2 lost: %v, subject sessions pending: %d, want true and 1", lost, len(f.subject.sessions))
	}
	var pending *subjSession
	for _, sess := range f.subject.sessions {
		pending = sess
	}
	if !pending.resumed || pending.k2 == (suite.Key{}) || pending.k3 == (suite.Key{}) {
		t.Fatal("the pending resumed session does not hold K2 and K3")
	}
	f.net.Run(0)
	if got := f.subject.Results()[seen:]; len(got) != 1 || got[0].Level != L3 {
		t.Fatalf("round with a lost RES2: %d discoveries, want 1 at Level 3", len(got))
	}
	if f.retransmissions(t) == 0 {
		t.Fatal("the lost RES2 was recovered without a retransmission")
	}

	if pending.k2 != (suite.Key{}) || pending.k3 != (suite.Key{}) {
		t.Error("the completed session's keys were not wiped")
	}
	if len(f.subject.sessions) != 0 {
		t.Errorf("%d subject sessions left in the table", len(f.subject.sessions))
	}
	if pending.next.secret != (suite.Key{}) {
		t.Error("the session's copy of its ticket holds the secret")
	}
	for _, tt := range []*ticketTable{&f.subject.tickets, &o.tickets} {
		for _, tk := range tt.m {
			if tk.secret == (suite.Key{}) {
				t.Error("a filed ticket holds no secret")
			}
		}
	}
	if f.subject.tickets.get(oAddr) != filedS || o.tickets.get(sAddr) != filedO {
		t.Error("the ratchet filed a new ticket instead of overwriting the one on file")
	}
	if filedS.secret == before || filedS.secret != filedO.secret {
		t.Error("the ratchet did not move both ends to the same new secret")
	}

	// Every RES2 lost: the session is given up, and goes wiped.
	dropType(f.net, wire.TRES2)
	if err := f.subject.Discover(1); err != nil {
		t.Fatal(err)
	}
	for end := f.net.Now() + time.Second; len(f.subject.sessions) == 0 && f.net.Now() < end; {
		f.net.Run(f.net.Now() + time.Millisecond)
	}
	pending = nil
	for _, sess := range f.subject.sessions {
		pending = sess
	}
	if pending == nil {
		t.Fatal("the second round opened no session")
	}
	f.net.Run(f.net.Now() + 2*DefaultRetry().ttl())
	if f.subject.sessions[pending.key] == pending || pending.k2 != (suite.Key{}) || pending.k3 != (suite.Key{}) {
		t.Error("an expired session is still filed or holds its keys")
	}
	f.net.SetDropFilter(nil)

	// A dropped ticket is wiped.
	f.subject.tickets.drop(oAddr)
	o.tickets.flush()
	if filedS.secret != (suite.Key{}) || filedO.secret != (suite.Key{}) {
		t.Error("a dropped or flushed ticket keeps its secret")
	}
}
