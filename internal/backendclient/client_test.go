package backendclient

import (
	"context"
	"errors"
	"net/http/httptest"
	"testing"
	"time"

	"argus/internal/attr"
	"argus/internal/backend"
	"argus/internal/backendsvc"
	"argus/internal/cert"
	"argus/internal/suite"
)

// harness spins a real backendsvc.Server over httptest and returns an
// authenticated client plus the underlying tenant (with the given number of
// worker shards, 0 = serial) for cross-checking.
func harness(t *testing.T, shards int) (*Client, *backendsvc.Tenant) {
	t.Helper()
	store, err := backendsvc.OpenStore(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	tn, err := store.Create("acme", suite.S128, shards)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(backendsvc.NewServer(store, "root-key", nil).Handler())
	t.Cleanup(srv.Close)
	return New(srv.URL, "acme", tn.AuthKey()), tn
}

// TestClientServiceRoundTrip drives the full Service surface over the wire
// and checks the remote state matches what the same calls produce locally.
func TestClientServiceRoundTrip(t *testing.T) {
	c, tn := harness(t, 0)
	ctx := context.Background()
	var svc backend.Service = c

	ta, err := svc.TrustAnchor(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ta.PublicKey(); err != nil {
		t.Fatalf("anchor admin key does not decode: %v", err)
	}
	local, _ := tn.TrustAnchor(ctx)
	if string(ta.CACert) != string(local.CACert) {
		t.Fatal("anchor CA differs over the wire")
	}

	alice, rep, err := svc.RegisterSubject(ctx, "alice", attr.MustSet("position=staff"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total() != 0 {
		t.Fatalf("register subject report total %d, want 0 (Table I: add a subject)", rep.Total())
	}
	kiosk, _, err := svc.RegisterObject(ctx, "kiosk", backend.L3, attr.MustSet("type=kiosk"), []string{"use", "admin"})
	if err != nil {
		t.Fatal(err)
	}
	pid, prep, err := svc.AddPolicy(ctx, attr.MustParse("position=='staff'"), attr.MustParse("type=='kiosk'"), []string{"use"})
	if err != nil {
		t.Fatal(err)
	}
	if len(prep.NotifiedObjects) != 1 || prep.NotifiedObjects[0] != kiosk {
		t.Fatalf("add policy notified %v, want the governed kiosk", prep.NotifiedObjects)
	}
	gid, err := svc.CreateGroup(ctx, "fellows")
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.AddSubjectToGroup(ctx, alice, gid); err != nil {
		t.Fatal(err)
	}
	if err := svc.AddCovertService(ctx, kiosk, gid, []string{"admin"}); err != nil {
		t.Fatal(err)
	}

	// Provision bundles arrive byte-compatible with the in-process path.
	sp, err := svc.ProvisionSubject(ctx, alice)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Name != "alice" || len(sp.Memberships) != 1 {
		t.Fatalf("subject provision %+v", sp)
	}
	if err := sp.Profile.Verify(sp.AdminPub, time.Now()); err != nil {
		t.Fatalf("remote subject PROF does not verify against the anchor key: %v", err)
	}
	op, err := svc.ProvisionObject(ctx, kiosk)
	if err != nil {
		t.Fatal(err)
	}
	if op.Level != backend.L3 || len(op.Variants) != 2 {
		t.Fatalf("object provision: level %v, %d variants (want L2 policy + covert)", op.Level, len(op.Variants))
	}

	if _, err := svc.UpdateSubjectAttrs(ctx, alice, attr.MustSet("position=manager")); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.RemovePolicy(ctx, pid); err != nil {
		t.Fatal(err)
	}
	rrep, err := svc.RevokeSubject(ctx, alice)
	if err != nil {
		t.Fatal(err)
	}
	_ = rrep

	// The wire fingerprint equals the server's local fingerprint.
	remoteFP, err := svc.StateFingerprint(ctx)
	if err != nil {
		t.Fatal(err)
	}
	localFP, _ := tn.StateFingerprint(ctx)
	if remoteFP != localFP {
		t.Fatalf("fingerprints differ: wire %s local %s", remoteFP, localFP)
	}
}

// TestClientErrorMapping pins the wire error contract: every sentinel
// survives the HTTP round trip for errors.Is, with the server's message.
func TestClientErrorMapping(t *testing.T) {
	c, _ := harness(t, 0)
	ctx := context.Background()
	ghost := cert.IDFromName("nobody")

	if _, _, err := c.RegisterSubject(ctx, "dup", attr.Set{}); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name     string
		op       func() error
		sentinel error
	}{
		{"not found", func() error { _, err := c.ProvisionSubject(ctx, ghost); return err },
			backend.ErrNotFound},
		{"duplicate", func() error { _, _, err := c.RegisterSubject(ctx, "dup", attr.Set{}); return err },
			backend.ErrDuplicate},
		{"invalid level", func() error {
			_, _, err := c.RegisterObject(ctx, "x", backend.Level(9), attr.Set{}, nil)
			return err
		}, backend.ErrInvalidLevel},
		{"bad predicate", func() error {
			_, _, err := c.AddPolicy(ctx, nil, nil, nil)
			return err
		}, backend.ErrBadPredicate},
		{"policy not found", func() error { _, err := c.RemovePolicy(ctx, 999); return err },
			backend.ErrNotFound},
		{"not covert", func() error {
			id, _, err := c.RegisterObject(ctx, "printer", backend.L2, attr.Set{}, nil)
			if err != nil {
				return err
			}
			gid, err := c.CreateGroup(ctx, "g")
			if err != nil {
				return err
			}
			return c.AddCovertService(ctx, id, gid, nil)
		}, backend.ErrNotCovert},
		{"revoked", func() error {
			id, _, err := c.RegisterSubject(ctx, "mallory", attr.Set{})
			if err != nil {
				return err
			}
			if _, err := c.RevokeSubject(ctx, id); err != nil {
				return err
			}
			_, err = c.ProvisionSubject(ctx, id)
			return err
		}, backend.ErrRevoked},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.op()
			if err == nil {
				t.Fatal("want error")
			}
			if !errors.Is(err, tc.sentinel) {
				t.Fatalf("errors.Is(%v, %v) = false over the wire", err, tc.sentinel)
			}
			if err.Error() == "" || err.Error() == tc.sentinel.Error() {
				t.Fatalf("remote message lost: %q", err)
			}
		})
	}
}

// TestClientAuth pins the auth surface: wrong tenant key, missing tenant,
// wrong admin key.
func TestClientAuth(t *testing.T) {
	c, _ := harness(t, 0)
	ctx := context.Background()

	bad := New(c.base, "acme", "wrong-key", WithHTTPClient(c.hc))
	if _, _, err := bad.RegisterSubject(ctx, "x", attr.Set{}); !errors.Is(err, backendsvc.ErrUnauthorized) {
		t.Fatalf("wrong key: %v", err)
	}
	// The anchor is public material: no key needed.
	anon := New(c.base, "acme", "")
	if _, err := anon.TrustAnchor(ctx); err != nil {
		t.Fatalf("anchor should not need auth: %v", err)
	}
	// But nothing else is.
	if _, err := anon.StateFingerprint(ctx); !errors.Is(err, backendsvc.ErrUnauthorized) {
		t.Fatalf("fingerprint without key: %v", err)
	}
	ghostTenant := New(c.base, "ghost", "k")
	if _, err := ghostTenant.TrustAnchor(ctx); !errors.Is(err, backendsvc.ErrNoTenant) {
		t.Fatalf("unknown tenant: %v", err)
	}

	admin := NewAdmin(c.base, "root-key")
	key, err := admin.CreateTenant(ctx, "beta", suite.S128, 4)
	if err != nil {
		t.Fatal(err)
	}
	beta := New(c.base, "beta", key)
	if _, _, err := beta.RegisterSubject(ctx, "bob", attr.Set{}); err != nil {
		t.Fatal(err)
	}
	wrongAdmin := NewAdmin(c.base, "not-root")
	if _, err := wrongAdmin.CreateTenant(ctx, "gamma", suite.S128, 0); !errors.Is(err, backendsvc.ErrUnauthorized) {
		t.Fatalf("wrong admin key: %v", err)
	}
}

// TestClientContextCancellation: a canceled context aborts the RPC.
func TestClientContextCancellation(t *testing.T) {
	c, _ := harness(t, 0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.TrustAnchor(ctx); err == nil {
		t.Fatal("canceled context should fail the call")
	}
}
