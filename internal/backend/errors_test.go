package backend

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"argus/internal/attr"
	"argus/internal/cert"
	"argus/internal/suite"
)

// TestTypedErrors pins every failure class to its sentinel (errors.Is — the
// contract the HTTP status mapping in internal/backendsvc depends on) and to
// its message prefix (so operator logs stay stable).
func TestTypedErrors(t *testing.T) {
	b, err := New(suite.S128)
	if err != nil {
		t.Fatal(err)
	}
	sid, _, err := b.RegisterSubject("alice", attr.MustSet("position=staff"))
	if err != nil {
		t.Fatal(err)
	}
	oid, _, err := b.RegisterObject("kiosk", L3, attr.MustSet("type=kiosk"), []string{"use"})
	if err != nil {
		t.Fatal(err)
	}
	pid, _, err := b.AddPolicy(attr.MustParse("position=='staff'"), attr.MustParse("type=='kiosk'"), []string{"use"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.RemovePolicy(pid); err != nil {
		t.Fatal(err)
	}
	revoked, _, err := b.RegisterSubject("mallory", attr.MustSet("position=staff"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.RevokeSubject(revoked); err != nil {
		t.Fatal(err)
	}
	ghost := cert.IDFromName("nobody")

	cases := []struct {
		name     string
		op       func() error
		sentinel error
		msg      string // required substring, pinned
	}{
		{"unknown subject", func() error { _, err := b.Subject(ghost); return err },
			ErrNotFound, "backend: not found: subject"},
		{"unknown object", func() error { _, err := b.Object(ghost); return err },
			ErrNotFound, "backend: not found: object"},
		{"unknown policy", func() error { _, err := b.RemovePolicy(9999); return err },
			ErrNotFound, "backend: not found: policy 9999"},
		{"duplicate subject", func() error { _, _, err := b.RegisterSubject("alice", attr.Set{}); return err },
			ErrDuplicate, `backend: already registered: "alice"`},
		{"duplicate batch", func() error {
			_, err := b.RegisterSubjects([]SubjectSpec{{Name: "alice"}}, 1)
			return err
		}, ErrDuplicate, `backend: already registered: "alice"`},
		{"invalid level", func() error { _, _, err := b.RegisterObject("x", Level(9), attr.Set{}, nil); return err },
			ErrInvalidLevel, "backend: invalid level: 9"},
		{"invalid batch level", func() error {
			_, err := b.RegisterObjects([]ObjectSpec{{Name: "x", Level: Level(0)}}, 1)
			return err
		}, ErrInvalidLevel, "backend: invalid level: 0"},
		{"bad predicate", func() error { _, _, err := b.AddPolicy(nil, nil, nil); return err },
			ErrBadPredicate, "backend: bad predicate: policy predicates required"},
		{"revoke twice", func() error { _, err := b.RevokeSubject(revoked); return err },
			ErrRevoked, "already revoked"},
		{"provision revoked", func() error { _, err := b.ProvisionSubject(revoked); return err },
			ErrRevoked, "backend: revoked: subject"},
		{"update revoked attrs", func() error { _, err := b.UpdateSubjectAttrs(revoked, attr.Set{}); return err },
			ErrRevoked, "backend: revoked: subject"},
		{"covert on unknown", func() error { return b.AddCovertService(ghost, 1, nil) },
			ErrNotFound, "backend: not found: object"},
		{"covert on non-L3", func() error {
			id, _, err := b.RegisterObject("printer", L2, attr.MustSet("type=printer"), nil)
			if err != nil {
				return err
			}
			return b.AddCovertService(id, 1, nil)
		}, ErrNotCovert, "backend: not a covert object: printer is Level 2, not Level 3"},
		{"remove unknown object", func() error { _, err := b.RemoveObject(ghost); return err },
			ErrNotFound, "backend: not found: object"},
		{"corrupt snapshot", func() error { _, err := Restore([]byte{0xFF}); return err },
			ErrCorruptState, "backend: corrupt state: unsupported snapshot version"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.op()
			if err == nil {
				t.Fatal("want error, got nil")
			}
			if !errors.Is(err, tc.sentinel) {
				t.Errorf("errors.Is(%v, %v) = false", err, tc.sentinel)
			}
			if !strings.Contains(err.Error(), tc.msg) {
				t.Errorf("message %q missing pinned substring %q", err, tc.msg)
			}
		})
	}
	_ = sid
	_ = oid
	_ = fmt.Sprint() // keep fmt imported if cases change
}

// TestWithClock: a fixed clock stamps provisioned PROFs and pins their
// validity window across re-provisioning.
func TestWithClock(t *testing.T) {
	fixed := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	b, err := New(suite.S128, WithClock(func() time.Time { return fixed }))
	if err != nil {
		t.Fatal(err)
	}
	sid, _, err := b.RegisterSubject("clocked", attr.MustSet("position=staff"))
	if err != nil {
		t.Fatal(err)
	}
	p1, err := b.ProvisionSubject(sid)
	if err != nil {
		t.Fatal(err)
	}
	if !p1.Profile.Issued.Equal(fixed.Truncate(time.Second)) {
		t.Fatalf("profile issued %v, want fixed clock %v", p1.Profile.Issued, fixed)
	}
	// Re-provisioning under a fixed clock pins the validity window (the PROF
	// signature itself is randomized ECDSA, so bytes legitimately differ).
	p2, err := b.ProvisionSubject(sid)
	if err != nil {
		t.Fatal(err)
	}
	if !p1.Profile.Issued.Equal(p2.Profile.Issued) || !p1.Profile.Expires.Equal(p2.Profile.Expires) {
		t.Fatal("fixed-clock reprovision drifted the validity window")
	}
}
