package scale

import (
	"fmt"
	"strings"
	"testing"

	"argus/internal/acl"
	"argus/internal/attr"
	"argus/internal/backend"
	"argus/internal/cert"
	"argus/internal/suite"
)

func TestTable1Shape(t *testing.T) {
	p := Typical()
	rows := Table1(p)
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	idacl := Of(SchemeIDACL, p)
	abe := Of(SchemeABE, p)
	argus := Of(SchemeArgus, p)

	// Table I structure: add = N / 1 / 1; remove = N / ≈10N / N.
	if idacl.AddSubject != p.N || abe.AddSubject != 1 || argus.AddSubject != 1 {
		t.Fatalf("add-subject overheads: %d %d %d", idacl.AddSubject, abe.AddSubject, argus.AddSubject)
	}
	if idacl.RemoveSubject != p.N || argus.RemoveSubject != p.N {
		t.Fatalf("remove-subject overheads: %d %d", idacl.RemoveSubject, argus.RemoveSubject)
	}
	if abe.RemoveSubject <= argus.RemoveSubject {
		t.Fatalf("ABE removal (%d) should exceed Argus (%d)", abe.RemoveSubject, argus.RemoveSubject)
	}
}

func TestHeadlineRatios(t *testing.T) {
	// "Up to 1000x" vs ID-ACL: N = 10³.
	p := Typical()
	p.N = 1000
	if got := AddSubjectAdvantage(p); got != 1000 {
		t.Fatalf("add-subject advantage = %v, want 1000", got)
	}
	// "Up to 10x" vs ABE: a large category (α ≈ 10⁴, e.g. a whole college)
	// with amplification factors > 1.
	p = Params{N: 1000, Alpha: 8000, Beta: 100, Gamma: 10, XiO: 1.2, XiS: 1.1}
	got := RemoveSubjectAdvantage(p)
	if got < 9 || got > 12 {
		t.Fatalf("remove-subject advantage = %.1f, want ≈10", got)
	}
}

func TestLevel3OverheadSmall(t *testing.T) {
	// §VIII: Level 3 updating overhead is γ−1 — small by construction.
	p := Typical()
	o := Of(SchemeArgus, p)
	if o.RemoveGroupMember != p.Gamma-1 {
		t.Fatalf("group-member removal overhead = %d, want γ−1 = %d", o.RemoveGroupMember, p.Gamma-1)
	}
	if o.RemoveGroupMember >= o.RemoveSubject/10 {
		t.Fatalf("Level 3 overhead (%d) should be far below Level 2's (%d)", o.RemoveGroupMember, o.RemoveSubject)
	}
}

func TestParamsValidate(t *testing.T) {
	good := Typical()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []Params{
		{N: 0, Alpha: 1, Gamma: 1, XiO: 1, XiS: 1},
		{N: 1, Alpha: 0, Gamma: 1, XiO: 1, XiS: 1},
		{N: 1, Alpha: 1, Gamma: 1, XiO: 0.5, XiS: 1},
		{N: 1, Alpha: 1, Gamma: 0, XiO: 1, XiS: 1},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("invalid params accepted: %+v", bad)
		}
	}
}

// TestOfUnknownScheme: Table I has three schemes; asking for a fourth is a
// programming error, reported by name.
func TestOfUnknownScheme(t *testing.T) {
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "CP-ABE-2") {
			t.Fatalf("Of(unknown scheme) recovered %q, want a panic naming the scheme", msg)
		}
	}()
	Of("CP-ABE-2", Typical())
}

// TestModelMatchesMeasuredArgus cross-checks the analytic Argus row against
// the real backend: revoke a subject who can access N objects and count the
// actual notifications.
func TestModelMatchesMeasuredArgus(t *testing.T) {
	const n = 40
	b, err := backend.New(suite.S128)
	if err != nil {
		t.Fatal(err)
	}
	sid, rep, err := b.RegisterSubject("alice", attr.MustSet("position=staff"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total() != 0 {
		t.Fatalf("measured add-subject overhead = %d, model says 0 ground notifications", rep.Total())
	}
	for i := 0; i < n; i++ {
		b.RegisterObject(fmt.Sprintf("obj-%02d", i), backend.L2,
			attr.MustSet("type=lock"), []string{"open"})
	}
	b.AddPolicy(attr.MustParse("position=='staff'"), attr.MustParse("type=='lock'"), []string{"open"})

	rm, err := b.RevokeSubject(sid)
	if err != nil {
		t.Fatal(err)
	}
	model := Of(SchemeArgus, Params{N: n, Alpha: 1, Beta: n, Gamma: 1, XiO: 1, XiS: 1})
	if len(rm.NotifiedObjects) != model.RemoveSubject {
		t.Fatalf("measured removal overhead %d ≠ model %d", len(rm.NotifiedObjects), model.RemoveSubject)
	}
}

// TestModelMatchesMeasuredIDACL cross-checks the ID-ACL row against the acl
// baseline implementation.
func TestModelMatchesMeasuredIDACL(t *testing.T) {
	const n = 40
	s := acl.New()
	objs := make([]string, n)
	for i := range objs {
		objs[i] = fmt.Sprintf("obj-%02d", i)
		s.AddObject(objs[i])
	}
	added, err := s.GrantAccess("alice", objs)
	if err != nil {
		t.Fatal(err)
	}
	model := Of(SchemeIDACL, Params{N: n, Alpha: 1, Beta: n, Gamma: 1, XiO: 1, XiS: 1})
	if added != model.AddSubject {
		t.Fatalf("measured add overhead %d ≠ model %d", added, model.AddSubject)
	}
	if got := len(s.RevokeSubject("alice")); got != model.RemoveSubject {
		t.Fatalf("measured remove overhead %d ≠ model %d", got, model.RemoveSubject)
	}
}

// TestModelMatchesMeasuredLevel3 cross-checks γ−1 against the groups manager.
func TestModelMatchesMeasuredLevel3(t *testing.T) {
	b, _ := backend.New(suite.S128)
	g, _ := b.Groups.CreateGroup("grp")
	const gamma = 8
	var first cert.ID
	for i := 0; i < gamma; i++ {
		id, _, _ := b.RegisterSubject(fmt.Sprintf("member-%d", i), attr.MustSet("position=student"))
		b.AddSubjectToGroup(id, g.ID())
		if i == 0 {
			first = id
		}
	}
	rm, err := b.RevokeSubject(first)
	if err != nil {
		t.Fatal(err)
	}
	model := Of(SchemeArgus, Params{N: 1, Alpha: 1, Beta: 1, Gamma: gamma, XiO: 1, XiS: 1})
	if len(rm.NotifiedSubjects) != model.RemoveGroupMember {
		t.Fatalf("measured rekey count %d ≠ γ−1 = %d", len(rm.NotifiedSubjects), model.RemoveGroupMember)
	}
}
