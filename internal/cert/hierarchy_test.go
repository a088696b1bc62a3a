package cert

import (
	"crypto/x509"
	"testing"
	"time"

	"argus/internal/attr"
	"argus/internal/suite"
)

func TestSubordinateCertChainVerifies(t *testing.T) {
	root := newTestAdmin(t)
	building, err := root.NewSubordinate("Building-7 Backend")
	if err != nil {
		t.Fatal(err)
	}
	key, _ := suite.GenerateSigningKey(suite.S128, nil)
	id := IDFromName("lock-7-101")
	chainDER, err := building.IssueCertChain(id, "lock-7-101", RoleObject, key.Public())
	if err != nil {
		t.Fatal(err)
	}
	// A device holding only the ROOT anchor verifies the chained cert.
	info, err := VerifyCert(root.CACert(), chainDER, suite.S128)
	if err != nil {
		t.Fatalf("chained cert rejected: %v", err)
	}
	if info.ID != id || info.Role != RoleObject {
		t.Fatal("wrong identity from chained cert")
	}
	// Without the intermediate, the leaf alone does not verify.
	certs, err := x509.ParseCertificates(chainDER)
	if err != nil || len(certs) != 2 {
		t.Fatalf("chain parses to %d certificates: %v", len(certs), err)
	}
	if _, err := VerifyCert(root.CACert(), certs[0].Raw, suite.S128); err == nil {
		t.Fatal("leaf without intermediate accepted")
	}
	// A foreign root rejects the whole chain.
	foreign := newTestAdmin(t)
	if _, err := VerifyCert(foreign.CACert(), chainDER, suite.S128); err == nil {
		t.Fatal("chain accepted under foreign root")
	}
}

func TestTwoLevelHierarchy(t *testing.T) {
	root := newTestAdmin(t)
	campus, err := root.NewSubordinate("Campus East")
	if err != nil {
		t.Fatal(err)
	}
	building, err := campus.NewSubordinate("Building 9")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(building.Chain()); got != 2 {
		t.Fatalf("chain depth = %d, want 2", got)
	}
	key, _ := suite.GenerateSigningKey(suite.S128, nil)
	chainDER, err := building.IssueCertChain(IDFromName("e"), "e", RoleSubject, key.Public())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyCert(root.CACert(), chainDER, suite.S128); err != nil {
		t.Fatalf("depth-2 chain rejected: %v", err)
	}
}

func TestSubordinateProfileVerifiesAgainstRootAnchor(t *testing.T) {
	root := newTestAdmin(t)
	sub, _ := root.NewSubordinate("Sub Backend")
	p := testProfile()
	if err := sub.SignProfile(p); err != nil {
		t.Fatal(err)
	}
	if len(p.SignerChain) != 1 {
		t.Fatalf("signer chain length = %d", len(p.SignerChain))
	}
	now := time.Now()
	// Devices hold the root anchor and the ROOT admin pub: direct pub check
	// fails (sub signed it), the chain path succeeds.
	if err := p.Verify(root.Public(), now); err == nil {
		t.Fatal("sub-signed profile verified under root pub directly")
	}
	if err := p.VerifyAnchored(root.CACert(), root.Public(), now); err != nil {
		t.Fatalf("anchored verification failed: %v", err)
	}
	// Foreign anchor rejects.
	foreign := newTestAdmin(t)
	if err := p.VerifyAnchored(foreign.CACert(), foreign.Public(), now); err == nil {
		t.Fatal("profile accepted under foreign anchor")
	}
	// The chain survives the wire.
	dec, err := DecodeProfile(p.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if err := dec.VerifyAnchored(root.CACert(), root.Public(), now); err != nil {
		t.Fatalf("decoded profile fails anchored verification: %v", err)
	}
	// Chain tampering: swap in a foreign CA cert.
	dec.SignerChain[0] = foreign.CACert()
	if err := dec.VerifyAnchored(root.CACert(), root.Public(), now); err == nil {
		t.Fatal("tampered signer chain accepted")
	}
}

func TestRootProfilesUnchanged(t *testing.T) {
	// Root-signed profiles carry no chain and keep verifying directly.
	root := newTestAdmin(t)
	p := &Profile{
		Kind: RoleSubject, Entity: IDFromName("s"), Serial: 1,
		Issued: time.Now().UTC(), Expires: time.Now().Add(time.Hour).UTC(),
		Attrs: attr.MustSet("position=staff"),
	}
	if err := root.SignProfile(p); err != nil {
		t.Fatal(err)
	}
	if len(p.SignerChain) != 0 {
		t.Fatal("root-signed profile has a chain")
	}
	if err := p.VerifyAnchored(root.CACert(), root.Public(), time.Now()); err != nil {
		t.Fatal(err)
	}
}
