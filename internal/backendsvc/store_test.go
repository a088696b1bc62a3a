package backendsvc

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"argus/internal/attr"
	"argus/internal/backend"
	"argus/internal/cert"
	"argus/internal/suite"
)

// churn drives one of every logged operation through the Service interface,
// so restart tests cover the whole effect-record zoo.
func churn(t *testing.T, svc backend.Service) (subject cert.ID) {
	t.Helper()
	ctx := context.Background()
	alice, _, err := svc.RegisterSubject(ctx, "alice", attr.MustSet("position=staff"))
	if err != nil {
		t.Fatal(err)
	}
	bob, _, err := svc.RegisterSubject(ctx, "bob", attr.MustSet("position=staff"))
	if err != nil {
		t.Fatal(err)
	}
	kiosk, _, err := svc.RegisterObject(ctx, "kiosk", backend.L3, attr.MustSet("type=kiosk"), []string{"use", "admin"})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := svc.RegisterObject(ctx, "printer", backend.L2, attr.MustSet("type=printer"), []string{"print"}); err != nil {
		t.Fatal(err)
	}
	pid, _, err := svc.AddPolicy(ctx, attr.MustParse("position=='staff'"), attr.MustParse("type=='printer'"), []string{"print"})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := svc.AddPolicy(ctx, attr.MustParse("position=='staff'"), attr.MustParse("type=='kiosk'"), []string{"use"}); err != nil {
		t.Fatal(err)
	}
	gid, err := svc.CreateGroup(ctx, "fellows")
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.AddSubjectToGroup(ctx, alice, gid); err != nil {
		t.Fatal(err)
	}
	if err := svc.AddSubjectToGroup(ctx, bob, gid); err != nil {
		t.Fatal(err)
	}
	if err := svc.AddCovertService(ctx, kiosk, gid, []string{"admin"}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.UpdateSubjectAttrs(ctx, alice, attr.MustSet("position=manager")); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.RemovePolicy(ctx, pid); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.RevokeSubject(ctx, bob); err != nil {
		t.Fatal(err)
	}
	erin, _, err := svc.RegisterSubject(ctx, "erin", attr.MustSet("position=staff"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.ProvisionSubject(ctx, erin); err != nil { // draws erin's cover-up membership
		t.Fatal(err)
	}
	return alice
}

func fingerprint(t *testing.T, svc backend.Service) string {
	t.Helper()
	fp, err := svc.StateFingerprint(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

// TestTenantReplayFingerprint is the heart of the durability story: kill
// (no Close, no compaction) after a full churn workload, reopen, and the
// replayed state must fingerprint byte-identically.
func TestTenantReplayFingerprint(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	tn, err := s.Create("acme", suite.S128)
	if err != nil {
		t.Fatal(err)
	}
	alice := churn(t, tn)
	want := fingerprint(t, tn)

	// Simulated kill: reopen the directory without Close/compaction.
	s2, err := OpenStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	tn2, err := s2.Tenant("acme")
	if err != nil {
		t.Fatal(err)
	}
	if got := fingerprint(t, tn2); got != want {
		t.Fatalf("replayed fingerprint differs:\n got %s\nwant %s", got, want)
	}
	// The replayed backend keeps working: same subject provisions fine.
	if _, err := tn2.ProvisionSubject(context.Background(), alice); err != nil {
		t.Fatal(err)
	}
	// And the auth key survived.
	if tn2.AuthKey() != tn.AuthKey() {
		t.Fatal("auth key lost across restart")
	}
}

// TestProvisionSurvivesRestart: the first provision of a subject in no group
// draws its cover-up membership, which the WAL records, so a reopened tenant
// has the same fingerprint and hands the subject the same cover-up key. A
// second provision draws nothing and appends nothing.
func TestProvisionSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	tn, err := s.Create("acme", suite.S128)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	dave, _, err := tn.RegisterSubject(ctx, "dave", attr.MustSet("position=staff"))
	if err != nil {
		t.Fatal(err)
	}
	prov, err := tn.ProvisionSubject(ctx, dave)
	if err != nil {
		t.Fatal(err)
	}
	if len(prov.Memberships) != 1 || !prov.Memberships[0].CoverUp {
		t.Fatalf("memberships %+v, want one cover-up", prov.Memberships)
	}
	seq := tn.wal.Seq()
	if _, err := tn.ProvisionSubject(ctx, dave); err != nil {
		t.Fatal(err)
	}
	if tn.wal.Seq() != seq {
		t.Errorf("a second provision appended %d records", tn.wal.Seq()-seq)
	}
	want := fingerprint(t, tn)

	s2, err := OpenStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	tn2, err := s2.Tenant("acme")
	if err != nil {
		t.Fatal(err)
	}
	if got := fingerprint(t, tn2); got != want {
		t.Fatalf("replayed fingerprint differs:\n got %s\nwant %s", got, want)
	}
	prov2, err := tn2.ProvisionSubject(ctx, dave)
	if err != nil {
		t.Fatal(err)
	}
	if len(prov2.Memberships) != 1 || !bytes.Equal(prov2.Memberships[0].Key, prov.Memberships[0].Key) ||
		prov2.Memberships[0].Group != prov.Memberships[0].Group {
		t.Fatal("the cover-up key changed across a restart")
	}
	if tn2.wal.Seq() != seq {
		t.Errorf("provisioning after the restart appended %d records", tn2.wal.Seq()-seq)
	}
}

// TestCompactionCrashWindows walks every crash window around compaction:
//
//	A: crash before compaction            (snapshot old, WAL full)
//	B: crash after snapshot rename,
//	   before WAL truncation              (snapshot new, WAL full — the
//	                                       double-apply trap)
//	C: crash after truncation             (snapshot new, WAL empty)
//
// All three must recover to the live fingerprint.
func TestCompactionCrashWindows(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	tn, err := s.Create("acme", suite.S128)
	if err != nil {
		t.Fatal(err)
	}
	churn(t, tn)
	want := fingerprint(t, tn)

	walPath := filepath.Join(dir, "acme", "wal.log")
	snapPath := filepath.Join(dir, "acme", "snap.bin")
	walBlob, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(walBlob) == 0 {
		t.Fatal("test premise broken: WAL empty before compaction")
	}
	snapBefore, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}

	reopen := func(window string) {
		t.Helper()
		s, err := OpenStore(dir, nil)
		if err != nil {
			t.Fatalf("window %s: %v", window, err)
		}
		tn, err := s.Tenant("acme")
		if err != nil {
			t.Fatalf("window %s: %v", window, err)
		}
		if got := fingerprint(t, tn); got != want {
			t.Fatalf("window %s: fingerprint differs\n got %s\nwant %s", window, got, want)
		}
	}

	// Window A: genesis snapshot + full WAL (the state on disk right now).
	reopen("A")

	// Compact, then rewind the WAL file to its pre-compaction content:
	// exactly the on-disk state of a crash after the snapshot rename but
	// before the truncation. Replay must skip every record (seq ≤ header).
	if err := tn.Compact(); err != nil {
		t.Fatal(err)
	}
	snapAfter, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(snapAfter) == string(snapBefore) {
		t.Fatal("compaction did not rewrite the snapshot")
	}
	if err := os.WriteFile(walPath, walBlob, 0o600); err != nil {
		t.Fatal(err)
	}
	reopen("B")

	// Window C: truncation done (snapshot new, WAL empty).
	if err := os.WriteFile(walPath, nil, 0o600); err != nil {
		t.Fatal(err)
	}
	reopen("C")

	// A crash mid-snapshot-write leaves only a temp file; it must be ignored.
	if err := os.WriteFile(snapPath+".tmp", []byte("torn snapshot garbage"), 0o600); err != nil {
		t.Fatal(err)
	}
	reopen("tmp")
}

// TestChurnAfterReplayDiverges ensures the replayed admin serial is correct:
// registering after a replay must not reuse certificate serials — the twin
// continues exactly where the original stopped.
func TestChurnAfterReplay(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	tn, err := s.Create("acme", suite.S128)
	if err != nil {
		t.Fatal(err)
	}
	churn(t, tn)
	serialBefore := tn.Backend().AdminSerial()

	s2, err := OpenStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	tn2, err := s2.Tenant("acme")
	if err != nil {
		t.Fatal(err)
	}
	if got := tn2.Backend().AdminSerial(); got != serialBefore {
		t.Fatalf("admin serial after replay %d, want %d", got, serialBefore)
	}
	// New registrations pick up fresh serials and survive another restart.
	ctx := context.Background()
	if _, _, err := tn2.RegisterSubject(ctx, "carol", attr.MustSet("position=staff")); err != nil {
		t.Fatal(err)
	}
	want := fingerprint(t, tn2)
	s3, err := OpenStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	tn3, err := s3.Tenant("acme")
	if err != nil {
		t.Fatal(err)
	}
	if got := fingerprint(t, tn3); got != want {
		t.Fatal("second-generation replay fingerprint differs")
	}
}

func TestStoreMultiTenantIsolation(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	a, err := s.Create("alpha", suite.S128)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Create("beta", suite.S128)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	id, _, err := a.RegisterSubject(ctx, "alice", attr.MustSet("position=staff"))
	if err != nil {
		t.Fatal(err)
	}
	// The same human name registers independently per tenant; the beta
	// tenant cannot see alpha's subject.
	if _, _, err := b.RegisterSubject(ctx, "alice", attr.MustSet("position=staff")); err != nil {
		t.Fatal(err)
	}
	if _, err := b.ProvisionSubject(ctx, id); err == nil {
		// Names hash to deterministic IDs, so alpha's alice and beta's alice
		// share an ID — but their credentials differ: distinct admins.
		aAnchor, _ := a.TrustAnchor(ctx)
		bAnchor, _ := b.TrustAnchor(ctx)
		if string(aAnchor.CACert) == string(bAnchor.CACert) {
			t.Fatal("tenants share a CA")
		}
	}
	if fingerprint(t, a) == fingerprint(t, b) {
		t.Fatal("tenants share state")
	}
	if a.AuthKey() == b.AuthKey() {
		t.Fatal("tenants share an auth key")
	}

	// Duplicate namespace and auth failures carry typed errors.
	if _, err := s.Create("alpha", suite.S128); !errors.Is(err, backend.ErrDuplicate) {
		t.Fatalf("duplicate tenant: %v", err)
	}
	if _, err := s.Auth("alpha", "wrong-key"); !errors.Is(err, ErrUnauthorized) {
		t.Fatalf("wrong key: %v", err)
	}
	if _, err := s.Auth("ghost", "x"); !errors.Is(err, ErrNoTenant) {
		t.Fatalf("unknown tenant: %v", err)
	}
	if _, err := s.Create("../evil", suite.S128); !errors.Is(err, backend.ErrBadPredicate) {
		t.Fatalf("path-traversal name: %v", err)
	}

	// Restart reloads both tenants.
	s2, err := OpenStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	names := s2.Names()
	if len(names) != 2 || names[0] != "alpha" || names[1] != "beta" {
		t.Fatalf("reloaded tenants %v", names)
	}
}

// TestTenantsIndexIgnoresShards: a tenants.json whose rows carry the
// "shards" key older stores wrote still opens, and its tenant replays to
// the state it had.
func TestTenantsIndexIgnoresShards(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	tn, err := s.Create("acme", suite.S128)
	if err != nil {
		t.Fatal(err)
	}
	churn(t, tn)
	want := fingerprint(t, tn)

	index := filepath.Join(dir, "tenants.json")
	blob, err := os.ReadFile(index)
	if err != nil {
		t.Fatal(err)
	}
	blob = bytes.ReplaceAll(blob, []byte(`"strength": 128`), []byte(`"strength": 128, "shards": 2`))
	if !bytes.Contains(blob, []byte(`"shards": 2`)) {
		t.Fatalf("tenants.json has no strength field to extend:\n%s", blob)
	}
	if err := os.WriteFile(index, blob, 0o600); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	tn2, err := s2.Tenant("acme")
	if err != nil {
		t.Fatal(err)
	}
	if got := fingerprint(t, tn2); got != want {
		t.Fatalf("replayed fingerprint differs:\n got %s\nwant %s", got, want)
	}
}

// TestAutoCompaction: a tenant with a tiny compaction threshold folds its
// WAL into snapshots as it goes, and restart still fingerprints identically.
func TestAutoCompaction(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	tn, err := s.Create("acme", suite.S128)
	if err != nil {
		t.Fatal(err)
	}
	tn.mu.Lock()
	tn.compactBytes = 1 // compact after every single append
	tn.mu.Unlock()
	churn(t, tn)
	if tn.wal.Size() != 0 {
		t.Fatalf("WAL not compacted: %d bytes", tn.wal.Size())
	}
	want := fingerprint(t, tn)
	s2, err := OpenStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	tn2, err := s2.Tenant("acme")
	if err != nil {
		t.Fatal(err)
	}
	if got := fingerprint(t, tn2); got != want {
		t.Fatal("auto-compacted restart fingerprint differs")
	}
}
