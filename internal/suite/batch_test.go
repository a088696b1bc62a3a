package suite

import (
	"testing"
)

func benchKeys(t *testing.T) (*SigningKey, *SigningKey) {
	t.Helper()
	k1, err := GenerateSigningKey(S128, nil)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := GenerateSigningKey(S128, nil)
	if err != nil {
		t.Fatal(err)
	}
	return k1, k2
}

func signed(t *testing.T, k *SigningKey, msg string) VerifyItem {
	t.Helper()
	sig, err := k.Sign([]byte(msg))
	if err != nil {
		t.Fatal(err)
	}
	return VerifyItem{Key: k.Public(), Msg: []byte(msg), Sig: sig}
}

func TestBatchVerify(t *testing.T) {
	k1, k2 := benchKeys(t)
	a := signed(t, k1, "alpha")
	b := signed(t, k2, "beta")

	if !BatchVerify(nil) {
		t.Error("empty batch must verify trivially")
	}
	if !BatchVerify([]VerifyItem{a}) {
		t.Error("single valid item rejected")
	}
	// Duplicates are verified once but the batch outcome is unchanged.
	if !BatchVerify([]VerifyItem{a, b, a, a, b}) {
		t.Error("valid batch with duplicates rejected")
	}

	bad := a
	bad.Sig = append([]byte(nil), a.Sig...)
	bad.Sig[3] ^= 0x40
	if BatchVerify([]VerifyItem{bad}) {
		t.Error("corrupted single item accepted")
	}
	if BatchVerify([]VerifyItem{b, bad, a}) {
		t.Error("batch containing a corrupted item accepted")
	}
	// Cross-wiring key and message must fail like individual Verify does.
	cross := VerifyItem{Key: k2.Public(), Msg: a.Msg, Sig: a.Sig}
	if BatchVerify([]VerifyItem{a, cross}) {
		t.Error("signature accepted under the wrong key")
	}
}

func TestSigningKeyAccessors(t *testing.T) {
	k, _ := benchKeys(t)
	if k.Strength() != S128 {
		t.Errorf("Strength() = %v, want %v", k.Strength(), S128)
	}
	if k.StdPrivate() == nil {
		t.Error("StdPrivate() = nil")
	}
	p := k.Public()
	if p.Strength() != S128 {
		t.Errorf("public Strength() = %v", p.Strength())
	}
	if p.IsZero() {
		t.Error("generated public key reported zero")
	}
	if !(PublicKey{}).IsZero() {
		t.Error("zero-value public key not reported zero")
	}
	if got := S128.String(); got != "128-bit" {
		t.Errorf("S128.String() = %q", got)
	}
}
