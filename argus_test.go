package argus

import "testing"

// TestFacadeEndToEnd exercises the public API exactly as the package doc
// shows: backend → policy → registration → network → discovery.
func TestFacadeEndToEnd(t *testing.T) {
	b, err := NewBackend(Strength128)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.AddPolicy(
		MustPredicate("position=='staff'"),
		MustPredicate("type=='printer'"),
		[]string{"print"}); err != nil {
		t.Fatal(err)
	}
	alice, rep, err := b.RegisterSubject("alice", MustAttrs("position=staff"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total() != 0 {
		t.Fatalf("add-subject overhead = %d", rep.Total())
	}
	printer, _, err := b.RegisterObject("printer", L2, MustAttrs("type=printer"), []string{"print", "admin"})
	if err != nil {
		t.Fatal(err)
	}

	net := NewNetwork(DefaultWiFi(), 1)
	subject, node, err := AttachSubject(b, net, alice, V30, Costs{})
	if err != nil {
		t.Fatal(err)
	}
	obj, pnode, err := AttachObject(b, net, printer, V30, Costs{})
	if err != nil {
		t.Fatal(err)
	}
	net.Link(node, pnode)

	if err := subject.Discover(1); err != nil {
		t.Fatal(err)
	}
	net.Run(0)

	res := subject.Results()
	if len(res) != 1 || res[0].Level != L2 {
		t.Fatalf("results = %+v", res)
	}
	if got := res[0].Profile.Functions; len(got) != 1 || got[0] != "print" {
		t.Fatalf("functions = %v, want the policy rights only", got)
	}

	// Churn through the facade: revoke, refresh, rediscover.
	if _, err := b.RevokeSubject(alice); err != nil {
		t.Fatal(err)
	}
	if err := RefreshObject(b, obj); err != nil {
		t.Fatal(err)
	}
	before := len(subject.Results())
	subject.Discover(1)
	net.Run(0)
	if got := len(subject.Results()) - before; got != 0 {
		t.Fatalf("revoked subject discovered %d services", got)
	}
}

func TestFacadeParsers(t *testing.T) {
	if _, err := ParsePredicate("a=='1' &&"); err == nil {
		t.Error("bad predicate accepted")
	}
	if _, err := ParseAttrs("===,,"); err == nil {
		t.Error("bad attrs accepted")
	}
	p, err := ParsePredicate("a=='1'")
	if err != nil || !p.Eval(MustAttrs("a=1")) {
		t.Error("predicate parsing broken")
	}
}

func TestFacadeRefreshSubject(t *testing.T) {
	b, _ := NewBackend(Strength128)
	g, _ := b.Groups.CreateGroup("grp")
	id, _, _ := b.RegisterSubject("s", MustAttrs("position=staff"))
	other, _, _ := b.RegisterSubject("o", MustAttrs("position=staff"))
	b.AddSubjectToGroup(id, g.ID())
	b.AddSubjectToGroup(other, g.ID())

	net := NewNetwork(DefaultWiFi(), 1)
	s, _, err := AttachSubject(b, net, id, V30, Costs{})
	if err != nil {
		t.Fatal(err)
	}
	// Rotate the group (other member leaves), then refresh.
	if _, err := b.Groups.RemoveMember(g.ID(), other); err != nil {
		t.Fatal(err)
	}
	if err := RefreshSubject(b, s); err != nil {
		t.Fatal(err)
	}
	if s.GroupCount() != 1 {
		t.Fatalf("group count = %d", s.GroupCount())
	}
}

func TestFacadeSnapshotRestore(t *testing.T) {
	b, _ := NewBackend(Strength128)
	id, _, _ := b.RegisterSubject("alice", MustAttrs("position=staff"))
	blob := SnapshotBackend(b)
	r, err := RestoreBackend(blob)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.ProvisionSubject(id); err != nil {
		t.Fatalf("restored backend cannot provision: %v", err)
	}
}

// TestFacadeOptions threads engine options through AttachSubject and
// AttachObject: a shared verification cache plus telemetry. The second
// discovery round hits only warm credentials — the facade-level view of the
// handshake fast path.
func TestFacadeOptions(t *testing.T) {
	b, err := NewBackend(Strength128)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.AddPolicy(
		MustPredicate("position=='staff'"),
		MustPredicate("type=='printer'"),
		[]string{"print"}); err != nil {
		t.Fatal(err)
	}
	alice, _, err := b.RegisterSubject("alice", MustAttrs("position=staff"))
	if err != nil {
		t.Fatal(err)
	}
	printer, _, err := b.RegisterObject("printer", L2, MustAttrs("type=printer"), []string{"print"})
	if err != nil {
		t.Fatal(err)
	}

	vc := NewVerifyCache(0)
	reg := NewRegistry()
	net := NewNetwork(DefaultWiFi(), 1)
	opts := []Option{WithVerifyCache(vc), WithTelemetry(reg, NewTracer()), WithRetry(DefaultRetry())}
	subject, node, err := AttachSubject(b, net, alice, V30, Costs{}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	_, pnode, err := AttachObject(b, net, printer, V30, Costs{}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	net.Link(node, pnode)

	for round := 0; round < 2; round++ {
		if err := subject.Discover(1); err != nil {
			t.Fatal(err)
		}
		net.Run(0)
	}
	if res := subject.Results(); len(res) != 2 {
		t.Fatalf("results = %+v, want one per round", res)
	}
	// The first round verifies four credentials cold. The second resumes (the
	// policy is enabled) and receives the PROF_O bytes its ticket was minted
	// on, so it looks up nothing.
	hits, misses, _ := vc.Stats()
	if misses != 4 || hits != 0 {
		t.Fatalf("cache stats hits=%d misses=%d, want 4 cold misses and no lookup by the resumed round", hits, misses)
	}
}
