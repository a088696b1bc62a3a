package cert

import (
	"bytes"
	"testing"
	"time"

	"argus/internal/attr"
	"argus/internal/suite"
)

func newTestAdmin(t *testing.T) *Admin {
	t.Helper()
	a, err := NewAdmin(suite.S128, "Argus Test Admin")
	if err != nil {
		t.Fatalf("NewAdmin: %v", err)
	}
	return a
}

func TestIssueAndVerifyCert(t *testing.T) {
	admin := newTestAdmin(t)
	key, _ := suite.GenerateSigningKey(suite.S128, nil)
	id := IDFromName("door-lock-conf-101")
	der, err := admin.IssueCertChain(id, "door-lock-conf-101", RoleObject, key.Public())
	if err != nil {
		t.Fatalf("IssueCertChain: %v", err)
	}
	info, err := VerifyCert(admin.CACert(), der, suite.S128)
	if err != nil {
		t.Fatalf("VerifyCert: %v", err)
	}
	if info.ID != id {
		t.Errorf("ID = %v, want %v", info.ID, id)
	}
	if info.Role != RoleObject {
		t.Errorf("Role = %v, want object", info.Role)
	}
	if info.Name != "door-lock-conf-101" {
		t.Errorf("Name = %q", info.Name)
	}
	if !info.Public.Equal(key.Public()) {
		t.Error("bound public key differs")
	}
}

func TestCertSizeMatchesPaper(t *testing.T) {
	// §IX-A: at 128-bit strength, CERT_X is an X.509 ECDSA certificate of
	// 552 B. Our certificates are real X.509 DER, so the size should land in
	// the same range (DER lengths vary slightly with integer encodings).
	admin := newTestAdmin(t)
	key, _ := suite.GenerateSigningKey(suite.S128, nil)
	der, err := admin.IssueCertChain(IDFromName("x"), "thermometer-07", RoleObject, key.Public())
	if err != nil {
		t.Fatal(err)
	}
	if len(der) < 450 || len(der) > 700 {
		t.Errorf("CERT size = %d B, want within [450,700] (paper: 552 B)", len(der))
	}
	t.Logf("CERT size = %d B (paper: 552 B)", len(der))
}

func TestVerifyCertRejectsForeignAdmin(t *testing.T) {
	adminA := newTestAdmin(t)
	adminB := newTestAdmin(t)
	key, _ := suite.GenerateSigningKey(suite.S128, nil)
	der, _ := adminA.IssueCertChain(IDFromName("e"), "e", RoleSubject, key.Public())
	if _, err := VerifyCert(adminB.CACert(), der, suite.S128); err == nil {
		t.Fatal("certificate from foreign admin accepted — external attackers have no backend-signed keys (§VII)")
	}
}

func TestVerifyCertRejectsTampering(t *testing.T) {
	admin := newTestAdmin(t)
	key, _ := suite.GenerateSigningKey(suite.S128, nil)
	der, _ := admin.IssueCertChain(IDFromName("e"), "entity", RoleSubject, key.Public())
	for _, i := range []int{len(der) / 2, len(der) - 1} {
		bad := append([]byte(nil), der...)
		bad[i] ^= 0x40
		if _, err := VerifyCert(admin.CACert(), bad, suite.S128); err == nil {
			t.Errorf("tampered certificate (byte %d) accepted", i)
		}
	}
	if _, err := VerifyCert(admin.CACert(), der[:len(der)/2], suite.S128); err == nil {
		t.Error("truncated certificate accepted")
	}
}

func TestVerifyCertWrongStrength(t *testing.T) {
	admin := newTestAdmin(t)
	key, _ := suite.GenerateSigningKey(suite.S128, nil)
	der, _ := admin.IssueCertChain(IDFromName("e"), "entity", RoleSubject, key.Public())
	if _, err := VerifyCert(admin.CACert(), der, suite.S192); err == nil {
		t.Fatal("P-256 certificate accepted at 192-bit strength")
	}
}

func testProfile() *Profile {
	return &Profile{
		Kind:      RoleObject,
		Entity:    IDFromName("multimedia-1"),
		Variant:   2,
		Serial:    7,
		Issued:    time.Now().Add(-time.Minute).Truncate(time.Second).UTC(),
		Expires:   time.Now().Add(24 * time.Hour).Truncate(time.Second).UTC(),
		Attrs:     attr.MustSet("room=101,type=multimedia"),
		Functions: []string{"play", "record", "cast"},
		Note:      "office multimedia station",
	}
}

func TestProfileEncodeDecodeRoundTrip(t *testing.T) {
	admin := newTestAdmin(t)
	p := testProfile()
	if err := admin.SignProfile(p); err != nil {
		t.Fatalf("SignProfile: %v", err)
	}
	b := p.Encode()
	got, err := DecodeProfile(b)
	if err != nil {
		t.Fatalf("DecodeProfile: %v", err)
	}
	if got.Kind != p.Kind || got.Entity != p.Entity || got.Variant != p.Variant || got.Serial != p.Serial {
		t.Error("header fields differ after round trip")
	}
	if !got.Issued.Equal(p.Issued) || !got.Expires.Equal(p.Expires) {
		t.Error("times differ after round trip")
	}
	if !got.Attrs.Equal(p.Attrs) {
		t.Errorf("attrs differ: %v vs %v", got.Attrs, p.Attrs)
	}
	if len(got.Functions) != len(p.Functions) {
		t.Fatalf("functions differ: %v", got.Functions)
	}
	for i := range got.Functions {
		if got.Functions[i] != p.Functions[i] {
			t.Errorf("function %d differs", i)
		}
	}
	if got.Note != p.Note {
		t.Error("note differs")
	}
	if !bytes.Equal(got.Sig, p.Sig) {
		t.Error("signature differs")
	}
}

func TestProfileVerify(t *testing.T) {
	admin := newTestAdmin(t)
	p := testProfile()
	if err := admin.SignProfile(p); err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	if err := p.Verify(admin.Public(), now); err != nil {
		t.Fatalf("valid profile rejected: %v", err)
	}
	// Unsigned.
	q := testProfile()
	if err := q.Verify(admin.Public(), now); err == nil {
		t.Error("unsigned profile accepted")
	}
	// Altered attribute after signing — PROFs "cannot be forged/altered".
	p2 := testProfile()
	admin.SignProfile(p2)
	p2.Attrs["room"] = "999"
	if err := p2.Verify(admin.Public(), now); err == nil {
		t.Error("altered profile accepted")
	}
	// Expired.
	p3 := testProfile()
	p3.Expires = time.Now().Add(-time.Hour)
	admin.SignProfile(p3)
	if err := p3.Verify(admin.Public(), now); err == nil {
		t.Error("expired profile accepted")
	}
	// Wrong admin.
	other := newTestAdmin(t)
	if err := p.Verify(other.Public(), now); err == nil {
		t.Error("profile accepted under foreign admin key")
	}
}

func TestProfileDecodeErrors(t *testing.T) {
	admin := newTestAdmin(t)
	p := testProfile()
	admin.SignProfile(p)
	b := p.Encode()
	if _, err := DecodeProfile(b[:len(b)-3]); err == nil {
		t.Error("truncated profile decoded")
	}
	if _, err := DecodeProfile(append(b, 0)); err == nil {
		t.Error("profile with trailing bytes decoded")
	}
	bad := append([]byte(nil), b...)
	bad[0] = 99 // version
	if _, err := DecodeProfile(bad); err == nil {
		t.Error("unknown version decoded")
	}
	bad2 := append([]byte(nil), b...)
	bad2[1] = 77 // role
	if _, err := DecodeProfile(bad2); err == nil {
		t.Error("invalid role decoded")
	}
}

func TestProfilePadding(t *testing.T) {
	admin := newTestAdmin(t)
	p := testProfile()
	if err := p.PadNoteTo(200); err != nil {
		t.Fatalf("PadNoteTo: %v", err)
	}
	if got := p.EncodedLen(); got != 200 {
		t.Fatalf("padded length = %d, want 200", got)
	}
	if err := admin.SignProfile(p); err != nil {
		t.Fatal(err)
	}
	// Signing adds the signature on top of the 200-byte body region; the
	// signed profile still verifies and decodes.
	if err := p.Verify(admin.Public(), time.Now()); err != nil {
		t.Fatalf("padded profile rejected: %v", err)
	}
	if _, err := DecodeProfile(p.Encode()); err != nil {
		t.Fatalf("padded profile does not decode: %v", err)
	}
	// Padding below current size fails.
	if err := p.PadNoteTo(10); err == nil {
		t.Fatal("PadNoteTo(10) should fail")
	}
	// Idempotent at exact size.
	big := testProfile()
	big.PadNoteTo(300)
	if err := big.PadNoteTo(300); err != nil {
		t.Fatalf("PadNoteTo at exact size: %v", err)
	}
}

// EncodedLen is computed from the field lengths; it must stay len(Encode())
// whatever fields are present.
func TestEncodedLenMatchesEncode(t *testing.T) {
	admin := newTestAdmin(t)
	signed := testProfile()
	if err := admin.SignProfile(signed); err != nil {
		t.Fatal(err)
	}
	chained := testProfile()
	chained.Sig = []byte("sig")
	chained.SignerChain = [][]byte{[]byte("leaf-der"), nil, []byte("intermediate-der")}
	for name, p := range map[string]*Profile{
		"empty":    {Kind: RoleSubject},
		"unsigned": testProfile(),
		"signed":   signed,
		"chained":  chained,
	} {
		if got, want := p.EncodedLen(), len(p.Encode()); got != want {
			t.Errorf("%s: EncodedLen = %d, Encode is %d bytes", name, got, want)
		}
	}
}

func TestIDHelpers(t *testing.T) {
	a := IDFromName("alpha")
	b := IDFromName("alpha")
	c := IDFromName("beta")
	if a != b {
		t.Error("IDFromName not deterministic")
	}
	if a == c {
		t.Error("distinct names collide")
	}
	r1, err := NewID(nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, _ := NewID(nil)
	if r1 == r2 {
		t.Error("random IDs collide")
	}
	if len(a.String()) != 32 {
		t.Errorf("ID hex length = %d", len(a.String()))
	}
}

func TestRoleString(t *testing.T) {
	if RoleSubject.String() != "subject" || RoleObject.String() != "object" {
		t.Error("role strings wrong")
	}
	if Role(9).String() != "role(9)" {
		t.Error("unknown role string wrong")
	}
}
