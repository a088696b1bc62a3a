package backend

import (
	"crypto/x509"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"argus/internal/attr"
	"argus/internal/cert"
	"argus/internal/suite"
)

func batchSpecs(n int) []ObjectSpec {
	specs := make([]ObjectSpec, n)
	for i := range specs {
		level := L2
		if i%3 == 2 {
			level = L1
		}
		specs[i] = ObjectSpec{
			Name:      fmt.Sprintf("batch-%02d", i),
			Level:     level,
			Attrs:     attr.MustSet("type=device,room=R1"),
			Functions: []string{"use"},
		}
	}
	return specs
}

// TestRegisterObjectsMatchesSequential: batch registration must be
// observationally identical to repeated RegisterObject calls — same IDs, same
// certificate sizes (serials and signatures are size-pinned), same records.
func TestRegisterObjectsMatchesSequential(t *testing.T) {
	specs := batchSpecs(8)

	seq, err := New(suite.S128)
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range specs {
		if _, _, err := seq.RegisterObject(sp.Name, sp.Level, sp.Attrs, sp.Functions); err != nil {
			t.Fatal(err)
		}
	}

	par, err := New(suite.S128)
	if err != nil {
		t.Fatal(err)
	}
	ids, err := par.RegisterObjects(specs, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != len(specs) {
		t.Fatalf("got %d ids", len(ids))
	}
	for i, sp := range specs {
		if ids[i] != cert.IDFromName(sp.Name) {
			t.Fatalf("id %d out of spec order", i)
		}
		so, err := seq.Object(cert.IDFromName(sp.Name))
		if err != nil {
			t.Fatal(err)
		}
		po, err := par.Object(ids[i])
		if err != nil {
			t.Fatal(err)
		}
		if so.Level != po.Level || so.Name != po.Name {
			t.Fatalf("record %d diverged: %+v vs %+v", i, so, po)
		}
		if len(seq.certs[so.ID]) != len(par.certs[po.ID]) {
			t.Fatalf("cert %d sizes diverged: %d vs %d", i, len(seq.certs[so.ID]), len(par.certs[po.ID]))
		}
		// Every batch-issued chain verifies against the anchor.
		info, err := cert.VerifyCertChain(par.CACert(), par.certs[po.ID], par.Strength())
		if err != nil {
			t.Fatalf("chain %d: %v", i, err)
		}
		if info.ID != ids[i] || info.Role != cert.RoleObject {
			t.Fatalf("chain %d bound wrong identity", i)
		}
	}
}

// TestRegisterObjectsRejectsDuplicates: a batch holding a taken name, or one
// name twice, fails with ErrDuplicate before any serial is reserved and
// leaves the backend's state as it was.
func TestRegisterObjectsRejectsDuplicates(t *testing.T) {
	b, err := New(suite.S128)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.RegisterObject("taken", L1, attr.MustSet("type=x"), nil); err != nil {
		t.Fatal(err)
	}
	fp, serial := b.StateFingerprint(), b.AdminSerial()
	for _, specs := range [][]ObjectSpec{
		{{Name: "fresh", Level: L1}, {Name: "taken", Level: L1}},
		{{Name: "twin", Level: L1}, {Name: "twin", Level: L1}},
	} {
		if _, err := b.RegisterObjects(specs, 2); !errors.Is(err, ErrDuplicate) {
			t.Fatalf("batch %q: err %v, want ErrDuplicate", specs[1].Name, err)
		}
		if b.StateFingerprint() != fp || b.AdminSerial() != serial {
			t.Fatalf("batch %q: failed batch changed the backend's state", specs[1].Name)
		}
	}
}

func TestRegisterSubjectsBatch(t *testing.T) {
	b, err := New(suite.S128)
	if err != nil {
		t.Fatal(err)
	}
	specs := []SubjectSpec{
		{Name: "ann", Attrs: attr.MustSet("position=staff")},
		{Name: "bob", Attrs: attr.MustSet("position=visitor")},
		{Name: "cyd", Attrs: attr.MustSet("position=staff")},
	}
	ids, err := b.RegisterSubjects(specs, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, sp := range specs {
		s, err := b.Subject(ids[i])
		if err != nil {
			t.Fatal(err)
		}
		if s.Name != sp.Name || s.Attrs["position"] != sp.Attrs["position"] {
			t.Fatalf("subject %d diverged: %+v", i, s)
		}
		if _, err := b.ProvisionSubject(ids[i]); err != nil {
			t.Fatalf("provision %s: %v", sp.Name, err)
		}
	}
}

// TestProvisionObjectsSerialParallelEquivalence: provisioning the same
// objects with one worker and with eight yields structurally identical
// bundles — same variant counts, profile sizes, groups and blacklists.
// (Signature bytes differ between any two provisioning calls, serial or not:
// ECDSA is randomized. Sizes and structure are what the simulation observes.)
func TestProvisionObjectsSerialParallelEquivalence(t *testing.T) {
	b, err := New(suite.S128)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.AddPolicy(attr.MustParse("position=='staff'"),
		attr.MustParse("type=='device'"), []string{"use"}); err != nil {
		t.Fatal(err)
	}
	g, err := b.Groups.CreateGroup("batch-group")
	if err != nil {
		t.Fatal(err)
	}
	specs := batchSpecs(6)
	specs[5].Level = L3
	ids, err := b.RegisterObjects(specs, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.AddCovertService(ids[5], g.ID(), []string{"use", "covert"}); err != nil {
		t.Fatal(err)
	}

	serial, err := b.ProvisionObjects(ids, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := b.ProvisionObjects(ids, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ids {
		s, p := serial[i], parallel[i]
		if s.ID != p.ID || s.Level != p.Level || len(s.Variants) != len(p.Variants) {
			t.Fatalf("provision %d structure diverged: %+v vs %+v", i, s, p)
		}
		if (s.PublicProfile == nil) != (p.PublicProfile == nil) {
			t.Fatalf("provision %d public profile diverged", i)
		}
		if s.PublicProfile != nil && s.PublicProfile.EncodedLen() != p.PublicProfile.EncodedLen() {
			t.Fatalf("provision %d public profile sizes diverged", i)
		}
		for j := range s.Variants {
			sv, pv := s.Variants[j], p.Variants[j]
			if sv.Group != pv.Group || sv.Profile.EncodedLen() != pv.Profile.EncodedLen() {
				t.Fatalf("provision %d variant %d diverged: group %d/%d size %d/%d",
					i, j, sv.Group, pv.Group, sv.Profile.EncodedLen(), pv.Profile.EncodedLen())
			}
			if err := pv.Profile.VerifyAnchored(b.CACert(), b.AdminPublic(), pv.Profile.Issued); err != nil {
				t.Fatalf("provision %d variant %d does not verify: %v", i, j, err)
			}
		}
		if len(s.Revoked) != len(p.Revoked) {
			t.Fatalf("provision %d blacklist diverged", i)
		}
	}
}

// TestBatchIssuanceIndependentOfWorkers: registering and provisioning the
// same objects on one worker and on eight, each on a subordinate of one
// root, gives the same serials in spec order, the same records and the same
// credential sizes, and every chain verifies against the root.
func TestBatchIssuanceIndependentOfWorkers(t *testing.T) {
	root, err := New(suite.S128)
	if err != nil {
		t.Fatal(err)
	}
	specs := batchSpecs(12)
	type run struct {
		b     *Backend
		ids   []cert.ID
		provs []*ObjectProvision
	}
	runs := make([]run, 2)
	for r, workers := range []int{1, 8} {
		b, err := root.NewSubordinate(fmt.Sprintf("building-%d", workers))
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := b.AddPolicy(attr.MustParse("position=='staff'"),
			attr.MustParse("type=='device'"), []string{"use"}); err != nil {
			t.Fatal(err)
		}
		ids, err := b.RegisterObjects(specs, workers)
		if err != nil {
			t.Fatal(err)
		}
		provs, err := b.ProvisionObjects(ids, workers)
		if err != nil {
			t.Fatal(err)
		}
		runs[r] = run{b, ids, provs}
	}
	one, eight := runs[0], runs[1]
	for i, sp := range specs {
		if one.ids[i] != cert.IDFromName(sp.Name) || eight.ids[i] != one.ids[i] {
			t.Fatalf("id %d out of spec order", i)
		}
		so, _ := one.b.Object(one.ids[i])
		eo, _ := eight.b.Object(eight.ids[i])
		if !reflect.DeepEqual(so, eo) {
			t.Fatalf("record %d diverged: %+v vs %+v", i, so, eo)
		}
		sp1, sp8 := one.provs[i], eight.provs[i]
		if len(sp1.CertDER) != len(sp8.CertDER) || len(sp1.Variants) != len(sp8.Variants) ||
			(sp1.PublicProfile == nil) != (sp8.PublicProfile == nil) {
			t.Fatalf("bundle %d diverged: %+v vs %+v", i, sp1, sp8)
		}
		for j := range sp1.Variants {
			if sp1.Variants[j].Profile.EncodedLen() != sp8.Variants[j].Profile.EncodedLen() {
				t.Fatalf("bundle %d variant %d sizes diverged", i, j)
			}
		}
		for _, r := range runs {
			chain := r.provs[i].CertDER
			info, err := cert.VerifyCertChain(root.CACert(), chain, root.Strength())
			if err != nil {
				t.Fatalf("chain %d: %v", i, err)
			}
			if info.ID != r.ids[i] || info.Role != cert.RoleObject {
				t.Fatalf("chain %d bound the wrong identity", i)
			}
			leaf, err := x509.ParseCertificates(chain)
			if err != nil {
				t.Fatal(err)
			}
			// Each subordinate's admin starts at serial 1.
			if got := leaf[0].SerialNumber.Int64(); got != int64(i)+2 {
				t.Fatalf("chain %d carries serial %d, want %d", i, got, i+2)
			}
		}
	}
}
