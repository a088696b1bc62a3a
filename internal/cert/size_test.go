package cert

import (
	"testing"

	"argus/internal/suite"
)

// TestIssuedCertSizesFixed checks the signature-length pinning: every
// certificate an admin issues has exactly the same DER size, so wire
// messages carrying CERTs are size-deterministic and fixed-seed simulation
// runs reproduce byte for byte.
func TestIssuedCertSizesFixed(t *testing.T) {
	admin, err := NewAdmin(suite.S128, "root")
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for i := 0; i < 8; i++ {
		key, err := suite.GenerateSigningKey(suite.S128, nil)
		if err != nil {
			t.Fatal(err)
		}
		id := IDFromName("entity")
		der, err := admin.IssueCertChain(id, "entity", RoleObject, key.Public())
		if err != nil {
			t.Fatal(err)
		}
		if want == 0 {
			want = len(der)
		}
		if len(der) != want {
			t.Fatalf("cert %d is %d B, want %d B — signature length not pinned", i, len(der), want)
		}
		if _, err := VerifyCert(admin.CACert(), der, suite.S128); err != nil {
			t.Fatalf("pinned-size cert does not verify: %v", err)
		}
	}
}

// TestMaxSigLen pins the DER arithmetic for every supported strength,
// including P-521 whose 521-bit order never fills its 66-byte coordinate.
func TestMaxSigLen(t *testing.T) {
	want := map[suite.Strength]int{
		suite.S112: 2 + 2*(2+29), // P-224: 224-bit order, sign octet
		suite.S128: 2 + 2*(2+33), // P-256: 256-bit order, sign octet
		suite.S192: 2 + 2*(2+49), // P-384: 384-bit order, sign octet
		suite.S256: 3 + 2*(2+66), // P-521: 521-bit order, no sign octet, long-form SEQ
	}
	for s, w := range want {
		if got := maxSigLen(s); got != w {
			t.Errorf("maxSigLen(%v) = %d, want %d", s, got, w)
		}
	}
}
