package core

import (
	"math/rand"
	"testing"
	"time"

	"argus/internal/attr"
	"argus/internal/backend"
	"argus/internal/cert"
	"argus/internal/netsim"
	"argus/internal/obs"
	"argus/internal/suite"
	"argus/internal/wire"
)

// TestEnginesIgnoreGarbage feeds random and truncated payloads to both
// engines: nothing may panic, nothing may be discovered — and no frame an
// engine would have handled may vanish silently: every undecodable frame whose
// type octet names a message of the receiving engine (or that has no type
// octet at all) must land on that engine's malformed-drop counter, and frames
// of any other type — the other engine's messages, which it overhears all day —
// on none.
func TestEnginesIgnoreGarbage(t *testing.T) {
	d := newDeployment(t)
	reg := obs.NewRegistry()
	d.addSubject("alice", attr.MustSet("position=staff"), wire.V30, WithTelemetry(reg, nil))
	o := d.addObject("thermo", L1, attr.MustSet("type=thermometer"), []string{"read"}, wire.V30,
		WithTelemetry(reg, nil))

	rng := rand.New(rand.NewSource(99))
	payloads := [][]byte{nil, {}, {0}, {255, 255}, {byte(wire.TQUE1)}, {byte(wire.TRES2), byte(wire.V30)}}
	for i := 0; i < 200; i++ {
		b := make([]byte, rng.Intn(64))
		rng.Read(b)
		payloads = append(payloads, b)
	}
	// Also garble each real message type's header.
	for _, mt := range []wire.MsgType{wire.TQUE1, wire.TRES1, wire.TQUE2, wire.TRES2} {
		b := make([]byte, 40)
		rng.Read(b)
		b[0], b[1] = byte(mt), byte(wire.V30)
		payloads = append(payloads, b)
	}
	var wantSub, wantObj int64
	for _, p := range payloads {
		d.subject.Handle(netsim.AddrOf(1), p)
		o.Handle(netsim.AddrOf(0), p)
		if _, err := wire.Decode(p); err == nil {
			continue
		}
		switch {
		case len(p) == 0:
			wantSub, wantObj = wantSub+1, wantObj+1
		case p[0] == byte(wire.TRES1) || p[0] == byte(wire.TRES2):
			wantSub++
		case p[0] == byte(wire.TQUE1) || p[0] == byte(wire.TQUE2):
			wantObj++
		}
	}
	d.net.Run(0)
	if len(d.subject.Results()) != 0 {
		t.Fatal("garbage produced discoveries")
	}
	sub := counterValue(t, reg, obs.MMalformedDrops, obs.L("role", "subject"))
	obj := counterValue(t, reg, obs.MMalformedDrops, obs.L("role", "object"))
	if wantSub < 3 || wantObj < 3 {
		t.Fatalf("payload list exercises too little: %d subject, %d object frames", wantSub, wantObj)
	}
	if sub != wantSub || obj != wantObj {
		t.Errorf("malformed drops: subject %d (want %d), object %d (want %d)", sub, wantSub, obj, wantObj)
	}
}

// TestObjectRejectsObjectRoleCert: an entity holding a valid *object*
// certificate cannot act as a subject in phase 2.
func TestObjectRejectsObjectRoleCert(t *testing.T) {
	d := newDeployment(t)
	d.b.AddPolicy(attr.MustParse("true"), attr.MustParse("type=='safe'"), []string{"open"})
	// Give the rogue camera a variant so its provision carries an object PROF
	// the attacker can replay as if it were a subject profile.
	d.b.AddPolicy(attr.MustParse("true"), attr.MustParse("type=='cam'"), []string{"watch"})

	// Register a real object and wire its credentials into a Subject engine.
	rogueID, _, err := d.b.RegisterObject("rogue-cam", L2, attr.MustSet("type=cam"), []string{"watch"})
	if err != nil {
		t.Fatal(err)
	}
	oprov, err := d.b.ProvisionObject(rogueID)
	if err != nil {
		t.Fatal(err)
	}
	// Forge a subject provision reusing the object's key and CERT, with a
	// self-built (unsigned-by-admin) PROF claiming subject attributes.
	forged := &backend.SubjectProvision{
		ID:       rogueID,
		Name:     "rogue-cam",
		Strength: oprov.Strength,
		Key:      oprov.Key,
		CertDER:  oprov.CertDER,
		CACert:   oprov.CACert,
		AdminPub: oprov.AdminPub,
		Profile:  oprov.Variants[0].Profile, // an object PROF, not a subject one
	}
	ep := d.net.NewEndpoint()
	atk := NewSubject(forged, wire.V30, Costs{}, WithEndpoint(ep))
	d.subjNode = ep.Node()
	d.subject = atk
	d.addObject("safe", L2, attr.MustSet("type=safe"), []string{"open"}, wire.V30)

	if res := d.run(); len(res) != 0 {
		t.Fatalf("object-role certificate accepted as subject: %d results", len(res))
	}
}

// TestObjectRejectsBorrowedProfile: a subject presenting another entity's
// (validly signed) PROF with her own CERT must be refused — PROF.Entity must
// match the certificate identity.
func TestObjectRejectsBorrowedProfile(t *testing.T) {
	d := newDeployment(t)
	d.b.AddPolicy(attr.MustParse("position=='manager'"), attr.MustParse("type=='safe'"), []string{"open"})

	// A real manager exists; the attacker is registered staff.
	managerID, _, _ := d.b.RegisterSubject("manager", attr.MustSet("position=manager"))
	managerProv, _ := d.b.ProvisionSubject(managerID)

	attackerID, _, _ := d.b.RegisterSubject("staffer", attr.MustSet("position=staff"))
	attackerProv, _ := d.b.ProvisionSubject(attackerID)
	// Borrow the manager's signed PROF.
	attackerProv.Profile = managerProv.Profile

	ep := d.net.NewEndpoint()
	atk := NewSubject(attackerProv, wire.V30, Costs{}, WithEndpoint(ep))
	d.subjNode = ep.Node()
	d.subject = atk
	d.addObject("safe", L2, attr.MustSet("type=safe"), []string{"open"}, wire.V30)

	if res := d.run(); len(res) != 0 {
		t.Fatalf("borrowed PROF accepted: %d results", len(res))
	}
}

// TestExpiredProfileRejected: objects refuse PROFs outside their validity
// window (freshness, §III).
func TestExpiredProfileRejected(t *testing.T) {
	d := newDeployment(t)
	d.b.AddPolicy(attr.MustParse("position=='staff'"), attr.MustParse("type=='safe'"), []string{"open"})
	sid, _, _ := d.b.RegisterSubject("alice", attr.MustSet("position=staff"))
	prov, _ := d.b.ProvisionSubject(sid)
	// Back-date the profile and re-sign it so only expiry fails.
	prov.Profile.Issued = prov.Profile.Issued.AddDate(-2, 0, 0)
	prov.Profile.Expires = prov.Profile.Expires.AddDate(-2, 0, 0)
	if err := d.b.Admin().SignProfile(prov.Profile); err != nil {
		t.Fatal(err)
	}
	ep := d.net.NewEndpoint()
	s := NewSubject(prov, wire.V30, Costs{}, WithEndpoint(ep))
	d.subjNode = ep.Node()
	d.subject = s
	d.addObject("safe", L2, attr.MustSet("type=safe"), []string{"open"}, wire.V30)

	if res := d.run(); len(res) != 0 {
		t.Fatalf("expired PROF accepted: %d results", len(res))
	}
}

// TestHigherStrengthDeployment runs a full discovery at 192-bit strength —
// the strength parameter threads through certificates, signatures, KEXM and
// session keys.
func TestHigherStrengthDeployment(t *testing.T) {
	b, err := backend.New(suite.S192)
	if err != nil {
		t.Fatal(err)
	}
	b.AddPolicy(attr.MustParse("position=='staff'"), attr.MustParse("type=='lock'"), []string{"open"})
	sid, _, _ := b.RegisterSubject("alice", attr.MustSet("position=staff"))
	oid, _, _ := b.RegisterObject("lock", backend.L2, attr.MustSet("type=lock"), []string{"open"})

	net := netsim.New(netsim.DefaultWiFi(), 1)
	sprov, _ := b.ProvisionSubject(sid)
	sep := net.NewEndpoint()
	s := NewSubject(sprov, wire.V30, Costs{}, WithEndpoint(sep))
	oprov, _ := b.ProvisionObject(oid)
	oep := net.NewEndpoint()
	NewObject(oprov, wire.V30, Costs{}, WithEndpoint(oep))
	net.Link(sep.Node(), oep.Node())

	if err := s.Discover(1); err != nil {
		t.Fatal(err)
	}
	net.Run(0)
	if got := len(s.Results()); got != 1 {
		t.Fatalf("192-bit discovery results = %d", got)
	}
}

// TestMultipleConcurrentSubjects: two subjects discover simultaneously; each
// sees her own differentiated view and sessions never cross.
func TestMultipleConcurrentSubjects(t *testing.T) {
	b, err := backend.New(suite.S128)
	if err != nil {
		t.Fatal(err)
	}
	b.AddPolicy(attr.MustParse("position=='manager'"), attr.MustParse("type=='hvac'"), []string{"set", "schedule"})
	b.AddPolicy(attr.MustParse("position=='staff'"), attr.MustParse("type=='hvac'"), []string{"read"})
	mid, _, _ := b.RegisterSubject("manager", attr.MustSet("position=manager"))
	sid, _, _ := b.RegisterSubject("staff", attr.MustSet("position=staff"))
	oid, _, _ := b.RegisterObject("hvac", backend.L2, attr.MustSet("type=hvac"), []string{"set", "schedule", "read"})

	net := netsim.New(netsim.DefaultWiFi(), 4)
	mkSubj := func(id cert.ID) *Subject {
		prov, err := b.ProvisionSubject(id)
		if err != nil {
			t.Fatal(err)
		}
		return NewSubject(prov, wire.V30, Costs{}, WithEndpoint(net.NewEndpoint()))
	}
	manager := mkSubj(mid)
	staff := mkSubj(sid)
	oprov, _ := b.ProvisionObject(oid)
	oep := net.NewEndpoint()
	NewObject(oprov, wire.V30, Costs{}, WithEndpoint(oep))
	on := oep.Node()
	net.Link(0, on)
	net.Link(1, on)

	// Both broadcast before the network runs: fully interleaved handshakes.
	if err := manager.Discover(1); err != nil {
		t.Fatal(err)
	}
	if err := staff.Discover(1); err != nil {
		t.Fatal(err)
	}
	net.Run(0)

	mres, sres := manager.Results(), staff.Results()
	if len(mres) != 1 || len(sres) != 1 {
		t.Fatalf("results: manager %d, staff %d", len(mres), len(sres))
	}
	if len(mres[0].Profile.Functions) != 2 {
		t.Errorf("manager functions = %v", mres[0].Profile.Functions)
	}
	if len(sres[0].Profile.Functions) != 1 || sres[0].Profile.Functions[0] != "read" {
		t.Errorf("staff functions = %v", sres[0].Profile.Functions)
	}
}

// TestUnsolicitedRES2Dropped: a RES2 with no matching session is ignored.
func TestUnsolicitedRES2Dropped(t *testing.T) {
	d := newDeployment(t)
	d.addSubject("alice", attr.MustSet("position=staff"), wire.V30)
	fake := &wire.RES2{Version: wire.V30, Ciphertext: make([]byte, 64), MACO: make([]byte, 32)}
	d.subject.Handle(netsim.AddrOf(5), fake.Encode())
	if len(d.subject.Results()) != 0 {
		t.Fatal("unsolicited RES2 produced a discovery")
	}
}

// TestQUE2WithoutSessionDropped: an object receiving QUE2 for an unknown R_S
// stays silent.
func TestQUE2WithoutSessionDropped(t *testing.T) {
	d := newDeployment(t)
	d.addSubject("alice", attr.MustSet("position=staff"), wire.V30)
	o := d.addObject("safe", L2, attr.MustSet("type=safe"), []string{"open"}, wire.V30)
	rs, _ := suite.NewNonce(nil)
	fake := &wire.QUE2{
		Version: wire.V30, RS: rs,
		ProfS: make([]byte, 10), CertS: make([]byte, 10), KEXMS: make([]byte, 10),
		Sig: make([]byte, 64), MACS2: make([]byte, 32), MACS3: make([]byte, 32),
	}
	o.Handle(netsim.AddrOf(d.subjNode), fake.Encode())
	d.net.Run(0)
	if len(d.subject.Results()) != 0 {
		t.Fatal("sessionless QUE2 produced output")
	}
}

// TestVersionDowngradeInterop: engines at mismatched versions do not crash;
// a v1.0 object answering a v3.0 subject still completes Level 2 discovery
// (v3.0 is a superset of v1.0 message handling on the subject side).
func TestVersionMixing(t *testing.T) {
	d := newDeployment(t)
	d.b.AddPolicy(attr.MustParse("true"), attr.MustParse("type=='lock'"), []string{"open"})
	d.addSubject("alice", attr.MustSet("position=staff"), wire.V30)
	d.addObject("lock", L2, attr.MustSet("type=lock"), []string{"open"}, wire.V10)
	res := d.run()
	// The v1.0 object cannot parse a v3.0 QUE2's MACS3 field... but our codec
	// is version-tagged per message, so the object decodes by the message's
	// own version. Level 2 discovery completes.
	if len(res) != 1 || res[0].Level != L2 {
		t.Fatalf("cross-version results = %+v", res)
	}
}

// TestSessionCapBoundsMemory: an attacker flooding QUE1s cannot grow the
// object's pending-session table beyond the cap, and a legitimate QUE1
// refused at the full table is served by a later probe once it has room.
// Answers kept for resending are bounded separately and never refuse anyone:
// past their bound the oldest goes.
func TestSessionCapBoundsMemory(t *testing.T) {
	d := newDeployment(t)
	d.b.AddPolicy(attr.MustParse("true"), attr.MustParse("type=='lock'"), []string{"open"})
	reg := obs.NewRegistry()
	p := DefaultRetry()
	d.addSubject("alice", attr.MustSet("position=staff"), wire.V30, WithRetry(p))
	o := d.addObject("lock", L2, attr.MustSet("type=lock"), []string{"open"}, wire.V30,
		WithRetry(p), WithTelemetry(reg, nil))

	for i := 0; i < 3*maxPendingSessions; i++ {
		rs, _ := suite.NewNonce(nil)
		q := &wire.QUE1{Version: wire.V30, RS: rs}
		o.Handle(netsim.AddrOf(d.subjNode), q.Encode())
	}
	if got := len(o.sessions); got > maxPendingSessions {
		t.Fatalf("pending sessions = %d, cap %d", got, maxPendingSessions)
	}
	// The flood's sessions hold the table until SessionTTL. A round started
	// inside that window is refused, and nothing of it is kept: the probe
	// that fires after the flood aged out must complete the discovery.
	d.net.Run(p.ttl() / 4)
	res := d.run()
	if got := counterValue(t, reg, obs.MObjectQue1, obs.L("result", "refused")); got <= 2*maxPendingSessions {
		t.Fatalf("refused QUE1s = %d, want the flood's %d plus the subject's", got, 2*maxPendingSessions)
	}
	if len(res) != 1 || res[0].Level != L2 {
		t.Fatalf("discoveries after the table drained = %+v, want the lock at L2", res)
	}

	// The resend cache: a Level 1 object caches one RES1 per QUE1, an answered
	// handshake its RES2.
	pub := d.addObject("sign", L1, attr.MustSet("type=sign"), []string{"read"}, wire.V30,
		WithRetry(p), WithTelemetry(reg, nil))
	refused := counterValue(t, reg, obs.MObjectQue1, obs.L("result", "refused"))
	var first, last sessionKey
	for i := 0; i < maxResendCache+maxPendingSessions; i++ {
		rs, _ := suite.NewNonce(nil)
		pub.Handle(netsim.AddrOf(d.subjNode), (&wire.QUE1{Version: wire.V30, RS: rs}).Encode())
		if last = mkSessionKey(netsim.AddrOf(d.subjNode), rs); i == 0 {
			first = last
		}
	}
	if got := len(pub.answers); got != maxResendCache || pub.order.n != got || len(pub.sessions) != 0 {
		t.Fatalf("resend cache holds %d answers (%d in order, %d sessions), bound %d", got, pub.order.n, len(pub.sessions), maxResendCache)
	}
	if _, ok := pub.answers[first]; ok {
		t.Fatal("the cache kept the oldest answer")
	}
	if _, ok := pub.answers[last]; !ok {
		t.Fatal("the cache shed the newest answer")
	}
	// One timer serves the whole cache, and what it shed left nothing behind.
	if got := pub.wheel.pending(); got != 1 {
		t.Fatalf("a full resend cache holds %d wheel entries, want 1", got)
	}
	if got := counterValue(t, reg, obs.MObjectQue1, obs.L("result", "refused")); got != refused {
		t.Fatalf("a full resend cache refused %d QUE1s", got-refused)
	}
	// Answered sessions do not count against the pending cap: the lock has
	// just answered alice, and still takes a full table of new handshakes.
	d.net.Run(0) // the flood's RES1s off the air first
	if err := d.subject.Discover(1); err != nil {
		t.Fatal(err)
	}
	d.net.Run(d.net.Now() + time.Second)
	d.subject.CompleteRound()
	if len(o.answers) != 1 || len(o.sessions) != 0 {
		t.Fatalf("lock holds %d sessions and %d answers; want the one answer", len(o.sessions), len(o.answers))
	}
	for i := 0; i < maxPendingSessions; i++ {
		rs, _ := suite.NewNonce(nil)
		o.Handle(netsim.AddrOf(d.subjNode), (&wire.QUE1{Version: wire.V30, RS: rs}).Encode())
	}
	if got := counterValue(t, reg, obs.MObjectQue1, obs.L("result", "refused")); got != refused {
		t.Fatalf("an answered session cost %d handshakes their place", got-refused)
	}
	d.net.Run(0)
	if len(o.sessions)+len(pub.sessions) != 0 || len(o.answers)+len(pub.answers) != 0 || o.order.n+pub.order.n != 0 {
		t.Fatalf("tables did not drain: %d + %d sessions, %d + %d answers", len(o.sessions), len(pub.sessions), len(o.answers), len(pub.answers))
	}
	// Nor is anything else kept per query: no timer of a session that is gone,
	// and no mark beside the session table (the zero policy's o.seen, never
	// made under an enabled one).
	if n := o.wheel.pending() + pub.wheel.pending(); n != 0 || o.seen != nil || pub.seen != nil {
		t.Fatalf("%d wheel entries outlive the sessions, or a seen map was made", n)
	}
}

// TestDiscoveryAcrossBridgedRadios: Argus is above the network layer (§II-A);
// a discovery crossing a WiFi→BLE bridging device works unchanged, just
// slower on the constrained radio.
func TestDiscoveryAcrossBridgedRadios(t *testing.T) {
	b, err := backend.New(suite.S128)
	if err != nil {
		t.Fatal(err)
	}
	b.AddPolicy(attr.MustParse("position=='staff'"), attr.MustParse("type=='sensor'"), []string{"read"})
	sid, _, _ := b.RegisterSubject("alice", attr.MustSet("position=staff"))
	oid, _, _ := b.RegisterObject("ble-sensor", backend.L2, attr.MustSet("type=sensor"), []string{"read"})

	wifi := netsim.DefaultWiFi()
	ble := netsim.LinkModel{
		PerMessage:       10 * time.Millisecond,
		BytesPerSecond:   30_000,
		PropagationDelay: 20 * time.Millisecond,
	}
	net := netsim.New(wifi, 1)
	sprov, _ := b.ProvisionSubject(sid)
	sep := net.NewEndpoint()
	s := NewSubject(sprov, wire.V30, Costs{}, WithEndpoint(sep))
	sn := sep.Node()
	bridge := net.AddNode()
	oprov, _ := b.ProvisionObject(oid)
	oep := net.NewEndpoint()
	NewObject(oprov, wire.V30, Costs{}, WithEndpoint(oep))
	on := oep.Node()
	net.LinkOn(sn, bridge, 0, wifi)
	net.LinkOn(bridge, on, 1, ble)

	if err := s.Discover(2); err != nil {
		t.Fatal(err)
	}
	net.Run(0)
	res := s.Results()
	if len(res) != 1 || res[0].Level != L2 {
		t.Fatalf("bridged discovery results = %+v", res)
	}
	// The BLE leg is slow: a 4-way handshake with ~1 KB QUE2 over 30 kB/s
	// takes hundreds of ms.
	if res[0].At < 300*time.Millisecond {
		t.Fatalf("bridged discovery at %v — BLE cost missing", res[0].At)
	}
}

// TestCrossSubBackendDiscovery: the §II-A hierarchy end to end. A subject
// provisioned by building A's sub-backend discovers an object provisioned by
// building B's sub-backend; both sides verify the peer's credentials through
// the CA chain up to the shared root anchor.
func TestCrossSubBackendDiscovery(t *testing.T) {
	root, err := backend.New(suite.S128)
	if err != nil {
		t.Fatal(err)
	}
	buildingA, err := root.NewSubordinate("building-A")
	if err != nil {
		t.Fatal(err)
	}
	buildingB, err := root.NewSubordinate("building-B")
	if err != nil {
		t.Fatal(err)
	}
	// B's policy admits visiting staff from anywhere in the enterprise.
	buildingB.AddPolicy(attr.MustParse("position=='staff'"),
		attr.MustParse("type=='printer'"), []string{"print"})

	sid, _, err := buildingA.RegisterSubject("alice", attr.MustSet("position=staff"))
	if err != nil {
		t.Fatal(err)
	}
	oid, _, err := buildingB.RegisterObject("printer-B", backend.L2,
		attr.MustSet("type=printer"), []string{"print"})
	if err != nil {
		t.Fatal(err)
	}

	net := netsim.New(netsim.DefaultWiFi(), 3)
	sprov, err := buildingA.ProvisionSubject(sid)
	if err != nil {
		t.Fatal(err)
	}
	sep := net.NewEndpoint()
	s := NewSubject(sprov, wire.V30, Costs{}, WithEndpoint(sep))
	sn := sep.Node()
	oprov, err := buildingB.ProvisionObject(oid)
	if err != nil {
		t.Fatal(err)
	}
	oep := net.NewEndpoint()
	NewObject(oprov, wire.V30, Costs{}, WithEndpoint(oep))
	on := oep.Node()
	net.Link(sn, on)

	if err := s.Discover(1); err != nil {
		t.Fatal(err)
	}
	net.Run(0)
	res := s.Results()
	if len(res) != 1 || res[0].Level != L2 {
		t.Fatalf("cross-building results = %+v, want one L2 discovery", res)
	}

	// A device from an unrelated enterprise (different root) is still
	// rejected despite speaking the same protocol.
	foreignRoot, _ := backend.New(suite.S128)
	foreignSub, _ := foreignRoot.NewSubordinate("intruder-hq")
	fid, _, _ := foreignSub.RegisterSubject("mallory", attr.MustSet("position=staff"))
	fprov, _ := foreignSub.ProvisionSubject(fid)
	mep := net.NewEndpoint()
	mallory := NewSubject(fprov, wire.V30, Costs{}, WithEndpoint(mep))
	net.Link(mep.Node(), on)
	if err := mallory.Discover(1); err != nil {
		t.Fatal(err)
	}
	net.Run(0)
	if len(mallory.Results()) != 0 {
		t.Fatal("foreign-enterprise subject discovered services")
	}
}

// TestProximityScopedVisibility: discovery is proximity-based (§I) — as the
// subject moves between rooms (links change), each round sees exactly the
// objects currently in radio range.
func TestProximityScopedVisibility(t *testing.T) {
	d := newDeployment(t)
	d.b.AddPolicy(attr.MustParse("true"), attr.MustParse("has(room)"), []string{"use"})
	d.addSubject("walker", attr.MustSet("position=staff"), wire.V30)
	d.addObject("room1-lock", L2, attr.MustSet("room=1"), []string{"use"}, wire.V30)
	d.addObject("room2-lock", L2, attr.MustSet("room=2"), []string{"use"}, wire.V30)
	room1 := netsim.NodeID(1)
	room2 := netsim.NodeID(2)
	// Start in room 1: out of range of room 2.
	d.net.Unlink(d.subjNode, room2)

	d.run()
	if got := len(d.subject.Results()); got != 1 {
		t.Fatalf("room 1 discoveries = %d, want 1", got)
	}
	if d.subject.Results()[0].Node != netsim.AddrOf(room1) {
		t.Fatal("discovered the wrong room's object")
	}

	// Walk to room 2.
	d.net.Unlink(d.subjNode, room1)
	d.net.Link(d.subjNode, room2)
	before := len(d.subject.Results())
	d.run()
	after := d.subject.Results()[before:]
	if len(after) != 1 || after[0].Node != netsim.AddrOf(room2) {
		t.Fatalf("room 2 discoveries = %+v", after)
	}
}

// TestOverheardFramesCostNothing: a broadcast is heard by every endpoint of
// the cell, so each engine hears the other kind's messages all day. It drops
// them on the type octet: no decode, no allocation, no malformed-drop count.
func TestOverheardFramesCostNothing(t *testing.T) {
	d := newDeployment(t)
	reg := obs.NewRegistry()
	d.addSubject("alice", attr.MustSet("position=staff"), wire.V30, WithTelemetry(reg, nil))
	o := d.addObject("safe", L2, attr.MustSet("type=safe"), []string{"open"}, wire.V30, WithTelemetry(reg, nil))

	rs, _ := suite.NewNonce(nil)
	que1 := (&wire.QUE1{Version: wire.V30, RS: rs}).Encode()
	que2 := (&wire.QUE2{Version: wire.V30, RS: rs, Ticket: make([]byte, suite.TicketIDSize), MACS2: make([]byte, suite.MACSize)}).Encode()
	res1 := (&wire.RES1{Version: wire.V30, Mode: wire.ModePublic, Prof: []byte("prof")}).Encode()
	res2 := (&wire.RES2{Version: wire.V30, Ciphertext: make([]byte, 64), MACO: make([]byte, suite.MACSize)}).Encode()
	peer := netsim.AddrOf(9)
	for name, hear := range map[string]func(){
		"subject hears QUE1": func() { d.subject.Handle(peer, que1) },
		"subject hears QUE2": func() { d.subject.Handle(peer, que2) },
		"object hears RES1":  func() { o.Handle(peer, res1) },
		"object hears RES2":  func() { o.Handle(peer, res2) },
	} {
		if n := testing.AllocsPerRun(100, hear); n != 0 {
			t.Errorf("%s: %.0f allocs, want 0", name, n)
		}
	}
	if n := counterValue(t, reg, obs.MMalformedDrops); n != 0 {
		t.Errorf("overheard frames counted as malformed: %d", n)
	}
}

// TestCorruptedRES2ThenCleanRetransmission: a RES2 damaged in flight fails
// both finished-MAC checks and leaves the session pending; evaluating it must
// not move the session's transcript, because the clean copy the QUE2
// retransmission fetches is verified from the same cut — in a full session
// and in a resumed one.
func TestCorruptedRES2ThenCleanRetransmission(t *testing.T) {
	d, _, reg := gcFixture(t)
	// Replace the first RES2 of each round, from each object, by a copy with
	// one ciphertext bit flipped, and let every later one through.
	damaged := map[netsim.NodeID]bool{}
	d.net.SetDropFilter(func(from, _ netsim.NodeID, p []byte) bool {
		if len(p) == 0 || p[0] != byte(wire.TRES2) || damaged[from] {
			return false
		}
		damaged[from] = true
		bad := append([]byte(nil), p...)
		bad[len(bad)/2] ^= 0x10
		d.subject.Handle(netsim.AddrOf(from), bad)
		return true
	})
	for round, result := range []string{resultMinted, resultResumed} {
		clear(damaged)
		if err := d.subject.Discover(1); err != nil {
			t.Fatal(err)
		}
		d.net.Run(0)
		if len(damaged) != 3 {
			t.Fatalf("round %d: %d RES2s damaged, want 3", round+1, len(damaged))
		}
		if got := len(d.subject.Results()); got != 3*(round+1) {
			t.Fatalf("round %d: %d discoveries in all, want %d: a damaged RES2 cost the session its transcript", round+1, got, 3*(round+1))
		}
		if got := counterValue(t, reg, obs.MResumptions, obs.L("side", "subject"), obs.L("result", result)); got != 3 {
			t.Fatalf("round %d: %d sessions %s, want 3", round+1, got, result)
		}
		if got := counterValue(t, reg, obs.MRetransmissions, obs.L("role", "object"), obs.L("msg", "res2")); got != int64(3*(round+1)) {
			t.Fatalf("round %d: %d RES2 retransmissions in all, want %d", round+1, got, 3*(round+1))
		}
		// The resumed round ran over short RES1s: the damaged RES2 of a session
		// that never had a signature or a key exchange is recovered the same way.
		if got := counterValue(t, reg, obs.MObjectQue1, obs.L("result", resultResume)); got != int64(3*round) {
			t.Fatalf("round %d: %d short RES1s in all, want %d", round+1, got, 3*round)
		}
	}
	if d.subject.PendingSessions() != 0 {
		t.Fatalf("%d sessions left pending", d.subject.PendingSessions())
	}
}
