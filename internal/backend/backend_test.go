package backend

import (
	"fmt"
	"testing"

	"argus/internal/attr"
	"argus/internal/cert"
	"argus/internal/obs"
	"argus/internal/suite"
)

func newTestBackend(t *testing.T) *Backend {
	t.Helper()
	b, err := New(suite.S128)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return b
}

func TestRegisterSubjectOverheadIsZero(t *testing.T) {
	b := newTestBackend(t)
	_, rep, err := b.RegisterSubject("alice", attr.MustSet("position=manager,department=X"))
	if err != nil {
		t.Fatal(err)
	}
	// Table I: adding a subject in Argus costs 1 backend contact, 0 object
	// notifications — vs N for ID-based ACL.
	if rep.Total() != 0 {
		t.Fatalf("add-subject ground overhead = %d, want 0", rep.Total())
	}
}

func TestDuplicateRegistrationFails(t *testing.T) {
	b := newTestBackend(t)
	if _, _, err := b.RegisterSubject("alice", attr.Set{}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.RegisterSubject("alice", attr.Set{}); err == nil {
		t.Fatal("duplicate registration succeeded")
	}
}

func TestPolicyCompilation(t *testing.T) {
	b := newTestBackend(t)
	// Two conference door locks and one office lock.
	ids := make([]cert.ID, 0, 3)
	for i, room := range []string{"conference", "conference", "office"} {
		id, _, err := b.RegisterObject(
			fmt.Sprintf("lock-%d", i), L2,
			attr.MustSet("type=door lock,room_type="+room),
			[]string{"open", "close", "status"})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	// The paper's example policy: managers may open/close conference locks.
	_, rep, err := b.AddPolicy(
		attr.MustParse("position=='manager'"),
		attr.MustParse("type=='door lock' && room_type=='conference'"),
		[]string{"open", "close"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.NotifiedObjects) != 2 {
		t.Fatalf("policy add notified %d objects, want β = 2", len(rep.NotifiedObjects))
	}

	p, err := b.ProvisionObject(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Variants) != 1 {
		t.Fatalf("conference lock variants = %d, want 1", len(p.Variants))
	}
	v := p.Variants[0]
	if v.IsCovert() {
		t.Fatal("policy variant marked covert")
	}
	if !v.Pred.Eval(attr.MustSet("position=manager")) {
		t.Fatal("variant predicate rejects managers")
	}
	if len(v.Profile.Functions) != 2 || v.Profile.Functions[0] != "open" {
		t.Fatalf("variant functions = %v, want policy rights", v.Profile.Functions)
	}
	// The office lock is not governed.
	po, _ := b.ProvisionObject(ids[2])
	if len(po.Variants) != 0 {
		t.Fatalf("office lock variants = %d, want 0", len(po.Variants))
	}
}

func TestAccessibleObjectsAndRevocation(t *testing.T) {
	b := newTestBackend(t)
	alice, _, _ := b.RegisterSubject("alice", attr.MustSet("position=manager,department=X"))
	bob, _, _ := b.RegisterSubject("bob", attr.MustSet("position=staff,department=X"))

	var lockIDs []cert.ID
	for i := 0; i < 5; i++ {
		id, _, _ := b.RegisterObject(fmt.Sprintf("lock-%d", i), L2,
			attr.MustSet("type=lock"), []string{"open"})
		lockIDs = append(lockIDs, id)
	}
	b.AddPolicy(attr.MustParse("position=='manager'"), attr.MustParse("type=='lock'"), []string{"open"})

	acc, err := b.AccessibleObjects(alice)
	if err != nil {
		t.Fatal(err)
	}
	if len(acc) != 5 {
		t.Fatalf("alice accesses %d objects, want N = 5", len(acc))
	}
	accBob, _ := b.AccessibleObjects(bob)
	if len(accBob) != 0 {
		t.Fatalf("bob accesses %d objects, want 0", len(accBob))
	}

	// Table I: removing a subject notifies exactly the N objects she could
	// access.
	rep, err := b.RevokeSubject(alice)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.NotifiedObjects) != 5 {
		t.Fatalf("revocation notified %d objects, want N = 5", len(rep.NotifiedObjects))
	}
	for _, oid := range lockIDs {
		revoked, _ := b.RevokedFor(oid)
		if len(revoked) != 1 || revoked[0] != alice {
			t.Fatalf("object %v revocation list = %v", oid, revoked)
		}
	}
	// Revoked subjects cannot be re-provisioned.
	if _, err := b.ProvisionSubject(alice); err == nil {
		t.Fatal("revoked subject re-provisioned")
	}
	if _, err := b.RevokeSubject(alice); err == nil {
		t.Fatal("double revocation succeeded")
	}
}

func TestRevokeSubjectRotatesHerGroups(t *testing.T) {
	b := newTestBackend(t)
	s, _, _ := b.RegisterSubject("s", attr.MustSet("position=student"))
	fellow, _, _ := b.RegisterSubject("fellow", attr.MustSet("position=student"))
	g, _ := b.Groups.CreateGroup("needs support")
	b.AddSubjectToGroup(s, g.ID())
	b.AddSubjectToGroup(fellow, g.ID())

	before, _ := b.ProvisionSubject(fellow)
	rep, err := b.RevokeSubject(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.NotifiedSubjects) != 1 || rep.NotifiedSubjects[0] != fellow {
		t.Fatalf("rekey notifications = %v, want just the fellow", rep.NotifiedSubjects)
	}
	after, _ := b.ProvisionSubject(fellow)
	if string(before.Memberships[0].Key) == string(after.Memberships[0].Key) {
		t.Fatal("group key unchanged after member revocation")
	}
}

func TestProvisionSubject(t *testing.T) {
	b := newTestBackend(t)
	id, _, _ := b.RegisterSubject("alice", attr.MustSet("position=manager"))
	p, err := b.ProvisionSubject(id)
	if err != nil {
		t.Fatal(err)
	}
	if p.Key == nil || len(p.CertDER) == 0 || p.Profile == nil {
		t.Fatal("incomplete provision")
	}
	// Credentials chain to the admin.
	info, err := cert.VerifyCert(p.CACert, p.CertDER, suite.S128)
	if err != nil {
		t.Fatalf("CERT does not verify: %v", err)
	}
	if info.ID != id || info.Role != cert.RoleSubject {
		t.Fatal("CERT binds wrong identity")
	}
	if err := p.Profile.Verify(p.AdminPub, p.Profile.Issued); err != nil {
		t.Fatalf("PROF does not verify: %v", err)
	}
	if p.Profile.EncodedLen() < DefaultProfileSize {
		t.Fatalf("PROF size %d below default %d", p.Profile.EncodedLen(), DefaultProfileSize)
	}
	// Even without sensitive attributes she gets a (cover-up) key.
	if len(p.Memberships) != 1 || !p.Memberships[0].CoverUp {
		t.Fatalf("memberships = %+v, want one cover-up", p.Memberships)
	}
}

func TestProvisionLevel1Object(t *testing.T) {
	b := newTestBackend(t)
	id, _, _ := b.RegisterObject("thermo", L1, attr.MustSet("type=thermometer"), []string{"read"})
	p, err := b.ProvisionObject(id)
	if err != nil {
		t.Fatal(err)
	}
	if p.PublicProfile == nil || len(p.Variants) != 0 {
		t.Fatal("Level 1 object should have exactly a public profile")
	}
	if err := p.PublicProfile.Verify(p.AdminPub, p.PublicProfile.Issued); err != nil {
		t.Fatalf("public PROF unsigned: %v", err)
	}
}

func TestProvisionLevel3ObjectConstantVariantLength(t *testing.T) {
	b := newTestBackend(t)
	id, _, _ := b.RegisterObject("magazine-machine", L3,
		attr.MustSet("type=vending,building=library"),
		[]string{"dispense"})
	s, _, _ := b.RegisterSubject("student", attr.MustSet("position=student"))
	g, _ := b.Groups.CreateGroup("learning disability support")
	b.AddSubjectToGroup(s, g.ID())
	if err := b.AddCovertService(id, g.ID(), []string{"dispense", "counseling-flyers", "policy-info"}); err != nil {
		t.Fatal(err)
	}
	// Give it a Level 2 public face too.
	b.AddPolicy(attr.MustParse("position=='student'"), attr.MustParse("type=='vending'"), []string{"dispense"})

	p, err := b.ProvisionObject(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Variants) != 2 {
		t.Fatalf("variants = %d, want 2 (one policy + one group)", len(p.Variants))
	}
	var covert, open int
	sizes := make(map[int]bool)
	for _, v := range p.Variants {
		if v.IsCovert() {
			covert++
			if len(v.GroupKey) != suite.KeySize {
				t.Fatal("covert variant missing group key")
			}
		} else {
			open++
		}
		sizes[v.Profile.EncodedLen()] = true
		if err := v.Profile.Verify(p.AdminPub, v.Profile.Issued); err != nil {
			t.Fatalf("variant unsigned: %v", err)
		}
	}
	if covert != 1 || open != 1 {
		t.Fatalf("covert=%d open=%d", covert, open)
	}
	// §VI-B constant RES2 length: all variants encode to one size.
	if len(sizes) != 1 {
		t.Fatalf("variant sizes differ: %v", sizes)
	}
}

func TestAddCovertServiceRequiresLevel3(t *testing.T) {
	b := newTestBackend(t)
	id, _, _ := b.RegisterObject("lock", L2, attr.MustSet("type=lock"), []string{"open"})
	g, _ := b.Groups.CreateGroup("g")
	if err := b.AddCovertService(id, g.ID(), []string{"x"}); err == nil {
		t.Fatal("covert service added to Level 2 object")
	}
}

func TestRemovePolicy(t *testing.T) {
	b := newTestBackend(t)
	oid, _, _ := b.RegisterObject("lock", L2, attr.MustSet("type=lock"), []string{"open"})
	pid, _, _ := b.AddPolicy(attr.MustParse("true"), attr.MustParse("type=='lock'"), []string{"open"})
	rep, err := b.RemovePolicy(pid)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.NotifiedObjects) != 1 || rep.NotifiedObjects[0] != oid {
		t.Fatalf("remove-policy notifications = %v", rep.NotifiedObjects)
	}
	p, _ := b.ProvisionObject(oid)
	if len(p.Variants) != 0 {
		t.Fatal("variants survive policy removal")
	}
	if _, err := b.RemovePolicy(pid); err == nil {
		t.Fatal("double removal succeeded")
	}
}

func TestRemoveObject(t *testing.T) {
	b := newTestBackend(t)
	id, _, _ := b.RegisterObject("lock", L2, attr.MustSet("type=lock"), []string{"open"})
	rep, err := b.RemoveObject(id)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total() != 1 {
		t.Fatalf("remove-object overhead = %d, want 1", rep.Total())
	}
	if _, err := b.Object(id); err == nil {
		t.Fatal("object still present")
	}
	if _, err := b.RemoveObject(id); err == nil {
		t.Fatal("double removal succeeded")
	}
}

func TestInvalidLevelRejected(t *testing.T) {
	b := newTestBackend(t)
	if _, _, err := b.RegisterObject("x", Level(9), attr.Set{}, nil); err == nil {
		t.Fatal("invalid level accepted")
	}
}

func TestUpdateSubjectAttrsPromotion(t *testing.T) {
	// Promotion widens access: no object updates needed (overhead 0); the
	// subject just fetches her new PROF.
	b := newTestBackend(t)
	b.AddPolicy(attr.MustParse("position=='manager'"), attr.MustParse("type=='safe'"), []string{"open"})
	id, _, _ := b.RegisterSubject("alice", attr.MustSet("position=staff"))
	b.RegisterObject("safe", L2, attr.MustSet("type=safe"), []string{"open"})

	rep, err := b.UpdateSubjectAttrs(id, attr.MustSet("position=manager"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total() != 0 {
		t.Fatalf("promotion overhead = %d, want 0", rep.Total())
	}
	prov, _ := b.ProvisionSubject(id)
	if prov.Profile.Attrs["position"] != "manager" {
		t.Fatal("re-issued PROF lacks new attributes")
	}
	acc, _ := b.AccessibleObjects(id)
	if len(acc) != 1 {
		t.Fatalf("promoted subject accesses %d objects, want 1", len(acc))
	}
}

func TestUpdateSubjectAttrsDemotion(t *testing.T) {
	// Demotion shrinks access: the objects that would still accept the OLD
	// signed PROF must blacklist the subject.
	b := newTestBackend(t)
	b.AddPolicy(attr.MustParse("position=='manager'"), attr.MustParse("type=='safe'"), []string{"open"})
	id, _, _ := b.RegisterSubject("alice", attr.MustSet("position=manager"))
	oid, _, _ := b.RegisterObject("safe", L2, attr.MustSet("type=safe"), []string{"open"})

	rep, err := b.UpdateSubjectAttrs(id, attr.MustSet("position=staff"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.NotifiedObjects) != 1 || rep.NotifiedObjects[0] != oid {
		t.Fatalf("demotion notified %v, want just the safe", rep.NotifiedObjects)
	}
	revoked, _ := b.RevokedFor(oid)
	if len(revoked) != 1 || revoked[0] != id {
		t.Fatalf("safe blacklist = %v", revoked)
	}
	// Reinstate clears the entry once the fresh PROF is in force.
	if err := b.Reinstate(oid, id); err != nil {
		t.Fatal(err)
	}
	revoked, _ = b.RevokedFor(oid)
	if len(revoked) != 0 {
		t.Fatal("reinstate did not clear the blacklist")
	}
	if err := b.Reinstate(cert.IDFromName("ghost"), id); err == nil {
		t.Fatal("reinstate on unknown object succeeded")
	}
}

func TestUpdateSubjectAttrsRevoked(t *testing.T) {
	b := newTestBackend(t)
	id, _, _ := b.RegisterSubject("alice", attr.MustSet("position=staff"))
	b.RevokeSubject(id)
	if _, err := b.UpdateSubjectAttrs(id, attr.MustSet("position=manager")); err == nil {
		t.Fatal("attribute update on revoked subject succeeded")
	}
	if _, err := b.UpdateSubjectAttrs(cert.IDFromName("ghost"), attr.Set{}); err == nil {
		t.Fatal("attribute update on unknown subject succeeded")
	}
}

func TestUpdateObjectAttrs(t *testing.T) {
	b := newTestBackend(t)
	b.AddPolicy(attr.MustParse("true"), attr.MustParse("room=='101'"), []string{"use"})
	b.AddPolicy(attr.MustParse("true"), attr.MustParse("room=='202'"), []string{"use", "audit"})
	id, _, _ := b.RegisterObject("cart", L2, attr.MustSet("room=101,type=cart"), []string{"use", "audit"})

	before, _ := b.ProvisionObject(id)
	if len(before.Variants) != 1 || len(before.Variants[0].Profile.Functions) != 1 {
		t.Fatalf("pre-move variants = %+v", before.Variants)
	}
	// The cart is wheeled into room 202: its variants recompile under the
	// other room's policy.
	rep, err := b.UpdateObjectAttrs(id, attr.MustSet("room=202,type=cart"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total() != 1 {
		t.Fatalf("overhead = %d, want 1", rep.Total())
	}
	after, _ := b.ProvisionObject(id)
	if len(after.Variants) != 1 || len(after.Variants[0].Profile.Functions) != 2 {
		t.Fatalf("post-move variants = %+v", after.Variants)
	}
	if _, err := b.UpdateObjectAttrs(cert.IDFromName("ghost"), attr.Set{}); err == nil {
		t.Fatal("unknown object updated")
	}
}

// TestChurnCountersResolvedOnce: every churn operation lands on a counter
// WithTelemetry resolved, with its fan-out, and counting one resolves nothing
// (the registry holds the same series before and after).
func TestChurnCountersResolvedOnce(t *testing.T) {
	reg := obs.NewRegistry()
	b, err := New(suite.S128, WithTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	series := len(reg.Snapshot().Metrics)
	sid, _, err := b.RegisterSubject("alice", attr.MustSet("position=staff"))
	if err != nil {
		t.Fatal(err)
	}
	oid, _, err := b.RegisterObject("printer", L2, attr.MustSet("type=printer"), []string{"print"})
	if err != nil {
		t.Fatal(err)
	}
	pid, _, err := b.AddPolicy(attr.MustParse("position=='staff'"), attr.MustParse("type=='printer'"), []string{"print"})
	if err != nil {
		t.Fatal(err)
	}
	steps := []func() (UpdateReport, error){
		func() (UpdateReport, error) { return b.UpdateSubjectAttrs(sid, attr.MustSet("position=staff,floor=2")) },
		func() (UpdateReport, error) { return b.UpdateObjectAttrs(oid, attr.MustSet("type=printer,floor=2")) },
		func() (UpdateReport, error) { return b.RemovePolicy(pid) },
		func() (UpdateReport, error) { return b.RevokeSubject(sid) },
		func() (UpdateReport, error) { return b.RemoveObject(oid) },
	}
	for _, step := range steps {
		if _, err := step(); err != nil {
			t.Fatal(err)
		}
	}
	snap := reg.Snapshot()
	if len(snap.Metrics) != series {
		t.Errorf("counting churn added %d series", len(snap.Metrics)-series)
	}
	for _, op := range churnOps {
		if m := snap.Get(obs.MBackendChurnOps, obs.L("op", op)); m == nil || m.Value != 1 {
			t.Errorf("op %s counted %+v, want 1", op, m)
		}
	}
	if m := snap.Get(obs.MBackendNotified, obs.L("kind", "object")); m == nil || m.Value == 0 {
		t.Errorf("notified objects %+v, want the fan-out", m)
	}
}
