package update

import (
	"fmt"
	"testing"

	"argus/internal/attr"
	"argus/internal/backend"
	"argus/internal/cert"
	"argus/internal/core"
	"argus/internal/netsim"
	"argus/internal/suite"
	"argus/internal/transport"
	"argus/internal/wire"
)

func TestNotificationCodecAndSignature(t *testing.T) {
	admin, err := cert.NewAdmin(suite.S128, "admin")
	if err != nil {
		t.Fatal(err)
	}
	n := &Notification{Kind: KindRevokeSubject, Seq: 7, Subject: cert.IDFromName("alice")}
	sig, err := admin.Sign(revocationBody(n.Subject))
	if err != nil {
		t.Fatal(err)
	}
	n.Sig = sig

	if len(n.Encode()) != 92 {
		t.Fatalf("frame is %d B, want 92 at S128", len(n.Encode()))
	}
	got, isUpdate, err := Decode(n.Encode())
	if !isUpdate || err != nil {
		t.Fatalf("Decode: %v %v", isUpdate, err)
	}
	if got.Kind != n.Kind || got.Seq != n.Seq || got.Subject != n.Subject {
		t.Fatal("round trip mismatch")
	}
	if !got.Verify(admin.Public()) {
		t.Fatal("valid signature rejected")
	}
	other, _ := cert.NewAdmin(suite.S128, "foreign")
	if got.Verify(other.Public()) {
		t.Fatal("signature valid under foreign admin")
	}
	// Tampering with the body breaks the signature.
	got.Subject = cert.IDFromName("bob")
	if got.Verify(admin.Public()) {
		t.Fatal("tampered notification verified")
	}
}

func TestDecodeFallThrough(t *testing.T) {
	// Discovery messages must not be consumed as updates.
	q := &wire.QUE1{Version: wire.V30, RS: make([]byte, suite.NonceSize)}
	if _, isUpdate, _ := Decode(q.Encode()); isUpdate {
		t.Fatal("QUE1 classified as update")
	}
	if _, isUpdate, _ := Decode(nil); isUpdate {
		t.Fatal("empty payload classified as update")
	}
	// A malformed envelope is an update with an error.
	if _, isUpdate, err := Decode([]byte{envelopeMagic, 1, 2}); !isUpdate || err == nil {
		t.Fatal("malformed envelope not rejected")
	}
	if _, _, err := Decode((&Notification{Kind: Kind(9)}).Encode()); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestAgentVerifiesAndDeduplicates(t *testing.T) {
	admin, _ := cert.NewAdmin(suite.S128, "admin")
	applied := 0
	agent := NewAgent(admin.Public(), nil, func(*Notification) { applied++ })

	mk := func(seq uint64, signer *cert.Admin) []byte {
		n := &Notification{Kind: KindReprovision, Seq: seq}
		sig, _ := signer.Sign(n.signedBody())
		n.Sig = sig
		return n.Encode()
	}

	from := netsim.AddrOf(0)
	agent.Handle(from, mk(1, admin))
	agent.Handle(from, mk(1, admin)) // replay
	agent.Handle(from, mk(2, admin))
	forged, _ := cert.NewAdmin(suite.S128, "attacker")
	agent.Handle(from, mk(3, forged)) // forged signature
	agent.Handle(from, mk(0, admin))  // stale sequence

	if applied != 2 {
		t.Fatalf("applied = %d, want 2", applied)
	}
	if agent.Applied() != 2 || agent.Rejected() != 3 {
		t.Fatalf("applied/rejected = %d/%d, want 2/3", agent.Applied(), agent.Rejected())
	}
}

func TestAgentPassesDiscoveryTrafficThrough(t *testing.T) {
	admin, _ := cert.NewAdmin(suite.S128, "admin")
	var passed []byte
	inner := transport.HandlerFunc(func(_ transport.Addr, p []byte) { passed = p })
	agent := NewAgent(admin.Public(), inner, nil)
	q := (&wire.QUE1{Version: wire.V30, RS: make([]byte, suite.NonceSize)}).Encode()
	agent.Handle(netsim.AddrOf(0), q)
	if passed == nil {
		t.Fatal("discovery message not passed to inner handler")
	}
}

// TestEndToEndRevocationPropagation is the full §VIII story on the wire:
// the backend revokes a subject, the distributor pushes signed notifications
// over the ground network, objects effectuate them, and the revoked subject's
// next discovery round comes back empty — without any out-of-band Refresh.
func TestEndToEndRevocationPropagation(t *testing.T) {
	const n = 8
	b, err := backend.New(suite.S128)
	if err != nil {
		t.Fatal(err)
	}
	b.AddPolicy(attr.MustParse("position=='staff'"), attr.MustParse("type=='lock'"), []string{"open"})
	sid, _, _ := b.RegisterSubject("alice", attr.MustSet("position=staff"))

	net := netsim.New(netsim.DefaultWiFi(), 9)
	sprov, _ := b.ProvisionSubject(sid)
	sep := net.NewEndpoint()
	subj := core.NewSubject(sprov, wire.V30, core.Costs{}, core.WithEndpoint(sep))
	sn := sep.Node()

	dep := net.NewEndpoint()
	dist := NewDistributor(b.Admin(), dep)
	net.Link(sn, dep.Node()) // gateway reaches objects via the subject's cell

	var objIDs []cert.ID
	for i := 0; i < n; i++ {
		oid, _, err := b.RegisterObject(fmt.Sprintf("lock-%d", i), backend.L2,
			attr.MustSet("type=lock"), []string{"open"})
		if err != nil {
			t.Fatal(err)
		}
		prov, _ := b.ProvisionObject(oid)
		eng := core.NewObject(prov, wire.V30, core.Costs{})
		agent := NewAgent(b.AdminPublic(), nil, func(u *Notification) {
			if u.Kind == KindRevokeSubject {
				eng.Revoke(u.Subject)
			}
		})
		oep := net.NewEndpoint()
		eng.Bind(agent.Wrap(oep))
		net.Link(sn, oep.Node())
		dist.Register(oid, oep.Addr())
		objIDs = append(objIDs, oid)
	}

	// Round 1: full visibility.
	subj.Discover(1)
	net.Run(0)
	if got := len(subj.Results()); got != n {
		t.Fatalf("round 1 discovered %d/%d", got, n)
	}

	// Revoke at the backend; propagate over the air.
	rep, err := b.RevokeSubject(sid)
	if err != nil {
		t.Fatal(err)
	}
	if err := dist.RevokeSubject(sid, rep.NotifiedObjects); err != nil {
		t.Fatal(err)
	}
	start := net.Now()
	net.Run(0)
	propagation := net.Now() - start
	if dist.Sent() != n {
		t.Fatalf("distributor sent %d notifications, want N = %d", dist.Sent(), n)
	}
	if propagation <= 0 {
		t.Fatal("propagation consumed no virtual time")
	}

	// Round 2: the revoked subject sees nothing new.
	before := len(subj.Results())
	subj.Discover(1)
	net.Run(0)
	if got := len(subj.Results()) - before; got != 0 {
		t.Fatalf("revoked subject discovered %d services after on-air effectuation", got)
	}
}

func TestDistributorUnknownAddress(t *testing.T) {
	b, _ := backend.New(suite.S128)
	net := netsim.New(netsim.DefaultWiFi(), 1)
	dist := NewDistributor(b.Admin(), net.NewEndpoint())
	if err := dist.RevokeSubject(cert.IDFromName("s"), []cert.ID{cert.IDFromName("ghost")}); err == nil {
		t.Fatal("push to unregistered device succeeded")
	}
}

func TestKindString(t *testing.T) {
	if KindRevokeSubject.String() != "revoke-subject" || KindReprovision.String() != "reprovision" {
		t.Error("kind strings wrong")
	}
	if Kind(9).String() != "kind(9)" {
		t.Error("unknown kind string wrong")
	}
}

// TestGroupRekeyPropagation: the Level 3 re-key path over the air. When a
// fellow is revoked, the remaining γ−1 fellows receive Reprovision
// notifications; applying them (re-pull + Refresh) restores covert
// discovery under the rotated key.
func TestGroupRekeyPropagation(t *testing.T) {
	b, err := backend.New(suite.S128)
	if err != nil {
		t.Fatal(err)
	}
	g, _ := b.Groups.CreateGroup("circle")
	leaver, _, _ := b.RegisterSubject("leaver", attr.MustSet("position=staff"))
	stayer, _, _ := b.RegisterSubject("stayer", attr.MustSet("position=staff"))
	b.AddSubjectToGroup(leaver, g.ID())
	b.AddSubjectToGroup(stayer, g.ID())
	kiosk, _, _ := b.RegisterObject("kiosk", backend.L3, attr.MustSet("type=kiosk"), []string{"use"})
	b.AddCovertService(kiosk, g.ID(), []string{"use", "covert"})

	net := netsim.New(netsim.DefaultWiFi(), 21)
	sprov, _ := b.ProvisionSubject(stayer)
	sep := net.NewEndpoint()
	sn := sep.Node()
	var subj *core.Subject
	subjAgent := NewAgent(b.AdminPublic(), nil, func(u *Notification) {
		if u.Kind == KindReprovision {
			if p, err := b.ProvisionSubject(stayer); err == nil {
				subj.Refresh(p)
			}
		}
	})
	subj = core.NewSubject(sprov, wire.V30, core.Costs{},
		core.WithEndpoint(subjAgent.Wrap(sep)))

	oprov, _ := b.ProvisionObject(kiosk)
	oep := net.NewEndpoint()
	on := oep.Node()
	var obj *core.Object
	objAgent := NewAgent(b.AdminPublic(), nil, func(u *Notification) {
		if u.Kind == KindReprovision {
			if p, err := b.ProvisionObject(kiosk); err == nil {
				obj.Refresh(p)
			}
		}
	})
	obj = core.NewObject(oprov, wire.V30, core.Costs{},
		core.WithEndpoint(objAgent.Wrap(oep)))
	net.Link(sn, on)

	dep := net.NewEndpoint()
	dist := NewDistributor(b.Admin(), dep)
	net.Link(dep.Node(), sn)
	dist.Register(stayer, sep.Addr())
	dist.Register(kiosk, oep.Addr())

	// The leaver is revoked: group key rotates; distributor pushes
	// reprovision notices to the remaining fellows (subject AND object).
	rep, err := b.RevokeSubject(leaver)
	if err != nil {
		t.Fatal(err)
	}
	fellows := append(rep.NotifiedSubjects, kiosk)
	if err := dist.Reprovision(fellows); err != nil {
		t.Fatal(err)
	}
	net.Run(0)

	// Post-re-key, the stayer still discovers the covert service.
	subj.Discover(1)
	net.Run(0)
	found := false
	for _, d := range subj.Results() {
		if d.Level == backend.L3 {
			found = true
		}
	}
	if !found {
		t.Fatal("remaining fellow lost covert discovery after on-air re-key")
	}
}
