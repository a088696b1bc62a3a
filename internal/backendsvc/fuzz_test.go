package backendsvc

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"argus/internal/attr"
	"argus/internal/backend"
	"argus/internal/suite"
)

// fuzzSeedWAL produces the on-disk bytes of a real tenant WAL covering every
// effect-record op — the richest valid input the fuzzer can mutate from —
// plus the matching snapshot file.
func fuzzSeedWAL(f *testing.F) (walBlob, snapBlob []byte) {
	f.Helper()
	dir := f.TempDir()
	s, err := OpenStore(dir, nil)
	if err != nil {
		f.Fatal(err)
	}
	tn, err := s.Create("seed", suite.S128)
	if err != nil {
		f.Fatal(err)
	}
	snapBlob, err = os.ReadFile(filepath.Join(dir, "seed", "snap.bin"))
	if err != nil {
		f.Fatal(err)
	}
	ctx := context.Background()
	alice, _, err := tn.RegisterSubject(ctx, "alice", attr.MustSet("position=staff"))
	if err != nil {
		f.Fatal(err)
	}
	kiosk, _, err := tn.RegisterObject(ctx, "kiosk", backend.L3, attr.MustSet("type=kiosk"), []string{"use"})
	if err != nil {
		f.Fatal(err)
	}
	pid, _, err := tn.AddPolicy(ctx, attr.MustParse("position=='staff'"), attr.MustParse("type=='kiosk'"), []string{"use"})
	if err != nil {
		f.Fatal(err)
	}
	gid, err := tn.CreateGroup(ctx, "fellows")
	if err != nil {
		f.Fatal(err)
	}
	if err := tn.AddSubjectToGroup(ctx, alice, gid); err != nil {
		f.Fatal(err)
	}
	if err := tn.AddCovertService(ctx, kiosk, gid, []string{"use"}); err != nil {
		f.Fatal(err)
	}
	if _, err := tn.UpdateSubjectAttrs(ctx, alice, attr.MustSet("position=manager")); err != nil {
		f.Fatal(err)
	}
	if _, err := tn.RemovePolicy(ctx, pid); err != nil {
		f.Fatal(err)
	}
	bob, _, err := tn.RegisterSubject(ctx, "bob", attr.MustSet("position=staff"))
	if err != nil {
		f.Fatal(err)
	}
	if _, err := tn.ProvisionSubject(ctx, bob); err != nil { // draws bob's cover-up membership
		f.Fatal(err)
	}
	if _, err := tn.RevokeSubject(ctx, alice); err != nil {
		f.Fatal(err)
	}
	walBlob, err = os.ReadFile(filepath.Join(dir, "seed", "wal.log"))
	if err != nil {
		f.Fatal(err)
	}
	return walBlob, snapBlob
}

// FuzzWALReplay holds the recovery path to its contract: arbitrary bytes in
// snap.bin and wal.log must either recover a working tenant or fail with an
// error — never panic, never hang, never double-apply. A successful open
// must be stable: reopening the recovered state reproduces its fingerprint.
func FuzzWALReplay(f *testing.F) {
	walSeed, snapSeed := fuzzSeedWAL(f)
	f.Add(walSeed, snapSeed)
	f.Add([]byte{}, []byte{})
	f.Add(walSeed, []byte{})
	f.Add([]byte{}, snapSeed)
	f.Add(walSeed[:len(walSeed)/2], snapSeed) // torn tail
	for _, off := range []int{0, 4, 8, 9, len(walSeed) / 2, len(walSeed) - 1} {
		mut := append([]byte(nil), walSeed...)
		mut[off] ^= 0xFF
		f.Add(mut, snapSeed)
	}
	mutSnap := append([]byte(nil), snapSeed...)
	mutSnap[len(mutSnap)/2] ^= 0xFF
	f.Add(walSeed, mutSnap)

	f.Fuzz(func(t *testing.T, wal, snap []byte) {
		dir := t.TempDir()
		tdir := filepath.Join(dir, "t")
		if err := os.MkdirAll(tdir, 0o700); err != nil {
			t.Fatal(err)
		}
		if len(snap) > 0 {
			if err := os.WriteFile(filepath.Join(tdir, "snap.bin"), snap, 0o600); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(filepath.Join(tdir, "wal.log"), wal, 0o600); err != nil {
			t.Fatal(err)
		}
		tn, err := openTenant("t", "k", tdir, suite.S128, nil)
		if err != nil {
			return // malformed state rejected cleanly: the contract held
		}
		// Recovered state must be stable across another open. openTenant
		// compacts fresh tenants only, so force one to canonicalize, then
		// the reopened twin must fingerprint identically.
		fp, err := tn.StateFingerprint(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if err := tn.Close(); err != nil {
			t.Fatalf("close after recovery: %v", err)
		}
		tn2, err := openTenant("t", "k", tdir, suite.S128, nil)
		if err != nil {
			t.Fatalf("reopen of recovered state failed: %v", err)
		}
		fp2, err := tn2.StateFingerprint(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if fp != fp2 {
			t.Fatalf("recovered state not stable: %s vs %s", fp, fp2)
		}
	})
}
