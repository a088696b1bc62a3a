package groups

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"argus/internal/cert"
)

// TestGroupLookupsMatchFullWalk: on a randomized manager (groups created,
// members added and removed), GroupsOf and
// MembershipsFor return what walking every group in ID order and asking
// IsMember returns.
func TestGroupLookupsMatchFullWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := NewManager(nil)
	entities := make([]cert.ID, 60)
	for i := range entities {
		entities[i] = cert.IDFromName(fmt.Sprintf("entity-%d", i))
	}
	for i := 0; i < 40; i++ {
		g, err := m.CreateGroup(fmt.Sprintf("group %d", i))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entities {
			if rng.Intn(8) != 0 {
				continue
			}
			role := cert.RoleSubject
			if rng.Intn(2) == 0 {
				role = cert.RoleObject
			}
			if err := m.AddMember(g.ID(), e, role); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 80; i++ {
		gid, e := ID(1+rng.Intn(40)), entities[rng.Intn(len(entities))]
		if m.IsMember(gid, e) {
			if _, err := m.RemoveMember(gid, e); err != nil {
				t.Fatal(err)
			}
		}
	}

	for _, e := range entities {
		var want []ID
		var wantMs []Membership
		for _, gid := range m.Groups() {
			if m.IsMember(gid, e) {
				g, _ := m.Get(gid)
				want = append(want, gid)
				wantMs = append(wantMs, Membership{Group: gid, Key: g.key, KeyVersion: g.keyVersion})
			}
		}
		if got := m.GroupsOf(e); !reflect.DeepEqual(got, want) {
			t.Fatalf("GroupsOf(%v) = %v, want %v", e, got, want)
		}
		if len(want) == 0 {
			continue // a cover-up membership; TestCoverUpKeys covers it
		}
		for _, role := range []cert.Role{cert.RoleSubject, cert.RoleObject} {
			if got, err := m.MembershipsFor(e, role); err != nil || !reflect.DeepEqual(got, wantMs) {
				t.Fatalf("MembershipsFor(%v, %v) = %v, %v; want %v", e, role, got, err, wantMs)
			}
		}
	}
}
