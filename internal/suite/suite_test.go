package suite

import (
	"bytes"
	"crypto/sha256"
	"testing"
	"testing/quick"
)

func TestStrengthCurveMapping(t *testing.T) {
	wantBits := map[Strength]int{S112: 224, S128: 256, S192: 384, S256: 521}
	for s, bits := range wantBits {
		if got := s.Curve().Params().BitSize; got != bits {
			t.Errorf("%v: curve bit size = %d, want %d", s, got, bits)
		}
	}
}

func TestStrengthValid(t *testing.T) {
	for _, s := range Strengths {
		if !s.Valid() {
			t.Errorf("%v should be valid", s)
		}
	}
	for _, s := range []Strength{0, 1, 100, 127, 129, 512} {
		if s.Valid() {
			t.Errorf("%v should be invalid", s)
		}
	}
}

func TestWireSizesAt128Bit(t *testing.T) {
	// §IX-A: at 128-bit strength KEXM and SIG are 64 B, R_X 28 B, MAC 32 B.
	if got := S128.PointSize(); got != 64 {
		t.Errorf("PointSize = %d, want 64", got)
	}
	if got := S128.SignatureSize(); got != 64 {
		t.Errorf("SignatureSize = %d, want 64", got)
	}
	if NonceSize != 28 {
		t.Errorf("NonceSize = %d, want 28", NonceSize)
	}
	if MACSize != 32 {
		t.Errorf("MACSize = %d, want 32", MACSize)
	}
}

func TestSignVerify(t *testing.T) {
	for _, s := range Strengths {
		key, err := GenerateSigningKey(s, nil)
		if err != nil {
			t.Fatalf("%v: GenerateSigningKey: %v", s, err)
		}
		msg := []byte("argus discovery message")
		sig, err := key.Sign(msg)
		if err != nil {
			t.Fatalf("%v: Sign: %v", s, err)
		}
		if len(sig) != s.SignatureSize() {
			t.Errorf("%v: signature length = %d, want %d", s, len(sig), s.SignatureSize())
		}
		pub := key.Public()
		if !pub.Verify(msg, sig) {
			t.Errorf("%v: valid signature rejected", s)
		}
		if pub.Verify([]byte("tampered"), sig) {
			t.Errorf("%v: signature verified for altered message", s)
		}
		sig[0] ^= 1
		if pub.Verify(msg, sig) {
			t.Errorf("%v: tampered signature accepted", s)
		}
	}
}

func TestSignatureNotVerifiableByOtherKey(t *testing.T) {
	a, _ := GenerateSigningKey(S128, nil)
	b, _ := GenerateSigningKey(S128, nil)
	msg := []byte("impersonation attempt")
	sig, _ := a.Sign(msg)
	if b.Public().Verify(msg, sig) {
		t.Fatal("signature by A accepted under B's public key")
	}
}

func TestPublicKeyRoundTrip(t *testing.T) {
	key, _ := GenerateSigningKey(S128, nil)
	pub := key.Public()
	parsed, err := PublicKeyFromBytes(S128, pub.Bytes())
	if err != nil {
		t.Fatalf("PublicKeyFromBytes: %v", err)
	}
	if !parsed.Equal(pub) {
		t.Fatal("round-tripped public key differs")
	}
}

func TestPublicKeyRejectsOffCurve(t *testing.T) {
	b := make([]byte, S128.PointSize())
	b[0] = 1 // x=1<<..., y=0: not on P-256
	if _, err := PublicKeyFromBytes(S128, b); err == nil {
		t.Fatal("off-curve point accepted")
	}
	if _, err := PublicKeyFromBytes(S128, b[:10]); err == nil {
		t.Fatal("short encoding accepted")
	}
}

func TestECDHAgreement(t *testing.T) {
	for _, s := range Strengths {
		a, err := NewKeyExchange(s, nil)
		if err != nil {
			t.Fatalf("%v: NewKeyExchange: %v", s, err)
		}
		b, err := NewKeyExchange(s, nil)
		if err != nil {
			t.Fatalf("%v: NewKeyExchange: %v", s, err)
		}
		if got := len(a.Public()); got != s.PointSize() {
			t.Errorf("%v: KEXM length = %d, want %d", s, got, s.PointSize())
		}
		sa, err := a.Shared(b.Public())
		if err != nil {
			t.Fatalf("%v: Shared: %v", s, err)
		}
		sb, err := b.Shared(a.Public())
		if err != nil {
			t.Fatalf("%v: Shared: %v", s, err)
		}
		if !bytes.Equal(sa, sb) {
			t.Errorf("%v: shared secrets differ", s)
		}
		c, _ := NewKeyExchange(s, nil)
		sc, _ := c.Shared(a.Public())
		if bytes.Equal(sa, sc) {
			t.Errorf("%v: unrelated exchange produced same secret", s)
		}
	}
}

func TestECDHRejectsBadPeer(t *testing.T) {
	a, _ := NewKeyExchange(S128, nil)
	bad := make([]byte, S128.PointSize())
	bad[3] = 7
	if _, err := a.Shared(bad); err == nil {
		t.Fatal("off-curve peer KEXM accepted")
	}
}

func TestPRFDeterministicAndSized(t *testing.T) {
	secret := []byte("secret")
	seed := []byte("seed")
	a := PRF(secret, seed, 32)
	b := PRF(secret, seed, 32)
	if !bytes.Equal(a, b) {
		t.Fatal("PRF not deterministic")
	}
	for _, n := range []int{1, 16, 32, 33, 64, 100} {
		if got := len(PRF(secret, seed, n)); got != n {
			t.Errorf("PRF size %d: got %d bytes", n, got)
		}
	}
	if bytes.Equal(PRF(secret, seed, 32), PRF(secret, []byte("seed2"), 32)) {
		t.Fatal("PRF ignores seed")
	}
	if bytes.Equal(PRF(secret, seed, 32), PRF([]byte("other"), seed, 32)) {
		t.Fatal("PRF ignores secret")
	}
	// Longer outputs extend shorter ones' prefix (counter construction).
	long := PRF(secret, seed, 64)
	if !bytes.Equal(long[:32], a) {
		t.Fatal("PRF long output does not extend short output")
	}
}

func TestSessionKeySchedule(t *testing.T) {
	preK := []byte("premaster-secret-material-000000")
	rs := bytes.Repeat([]byte{1}, NonceSize)
	ro := bytes.Repeat([]byte{2}, NonceSize)
	k2 := SessionKey2(preK, rs, ro)
	if len(k2) != KeySize {
		t.Fatalf("K2 length = %d", len(k2))
	}
	// Same inputs → same K2; different nonce → different K2.
	if !bytes.Equal(k2, SessionKey2(preK, rs, ro)) {
		t.Fatal("K2 not deterministic")
	}
	ro2 := bytes.Repeat([]byte{3}, NonceSize)
	if bytes.Equal(k2, SessionKey2(preK, rs, ro2)) {
		t.Fatal("K2 ignores R_O (replay would be possible)")
	}

	grp := bytes.Repeat([]byte{9}, KeySize)
	k3 := SessionKey3(k2, grp, rs, ro)
	if bytes.Equal(k2, k3) {
		t.Fatal("K3 equals K2")
	}
	grp2 := bytes.Repeat([]byte{8}, KeySize)
	if bytes.Equal(k3, SessionKey3(k2, grp2, rs, ro)) {
		t.Fatal("K3 ignores group key — non-fellows would derive the same key")
	}
}

func TestFinishedMAC(t *testing.T) {
	key := bytes.Repeat([]byte{5}, KeySize)
	h := sha256.Sum256([]byte("transcript"))
	mac := FinishedMAC(key, LabelSubjectFinished, h)
	if len(mac) != MACSize {
		t.Fatalf("MAC length = %d", len(mac))
	}
	if !VerifyMAC(key, LabelSubjectFinished, h, mac) {
		t.Fatal("valid MAC rejected")
	}
	if VerifyMAC(key, LabelObjectFinished, h, mac) {
		t.Fatal("MAC valid under wrong label")
	}
	other := bytes.Repeat([]byte{6}, KeySize)
	if VerifyMAC(other, LabelSubjectFinished, h, mac) {
		t.Fatal("MAC valid under wrong key")
	}
	h2 := sha256.Sum256([]byte("transcript-tampered"))
	if VerifyMAC(key, LabelSubjectFinished, h2, mac) {
		t.Fatal("MAC valid under wrong transcript")
	}
}

// TestResumptionTicket: both ends derive the same ticket from (K2, transcript),
// it is bound to both, it opens a chain (each step from the key of the session
// it just served), and neither the id nor a later secret is any of the values
// it was derived from.
func TestResumptionTicket(t *testing.T) {
	k2 := bytes.Repeat([]byte{5}, KeySize)
	h := sha256.Sum256([]byte("transcript"))
	secret, id := ResumptionTicket(k2, h)
	if len(secret) != KeySize || len(id) != TicketIDSize {
		t.Fatalf("secret %d B, id %d B", len(secret), len(id))
	}
	again, idAgain := ResumptionTicket(k2, h)
	if !bytes.Equal(secret, again) || id != idAgain {
		t.Fatal("derivation is not deterministic: the two ends would disagree")
	}
	if s2, id2 := ResumptionTicket(bytes.Repeat([]byte{6}, KeySize), h); bytes.Equal(s2, secret) || id2 == id {
		t.Fatal("ticket ignores K2")
	}
	if s2, id2 := ResumptionTicket(k2, sha256.Sum256([]byte("another transcript"))); bytes.Equal(s2, secret) || id2 == id {
		t.Fatal("ticket ignores the transcript")
	}
	if bytes.Equal(secret, k2) || bytes.Contains(secret, id[:]) || bytes.Equal(secret, FinishedMAC(k2, LabelSubjectFinished, h)) {
		t.Fatal("ticket collides with a value of the handshake it came from")
	}
	// The ratchet: the next session's key comes from the secret and fresh
	// nonces, and the next ticket from that key.
	rs, ro := bytes.Repeat([]byte{1}, NonceSize), bytes.Repeat([]byte{2}, NonceSize)
	k2next := SessionKey2(secret, rs, ro)
	next, idNext := ResumptionTicket(k2next, h)
	if bytes.Equal(next, secret) || idNext == id || bytes.Equal(k2next, k2) {
		t.Fatal("the ratchet did not move")
	}
}

func TestProfileCipherRoundTrip(t *testing.T) {
	key := bytes.Repeat([]byte{7}, KeySize)
	for _, n := range []int{0, 1, 15, 16, 17, 200, 1000} {
		plain := bytes.Repeat([]byte{0xAB}, n)
		ct, err := EncryptProfile(key, plain, nil)
		if err != nil {
			t.Fatalf("n=%d: EncryptProfile: %v", n, err)
		}
		if len(ct) != CiphertextLen(n) {
			t.Errorf("n=%d: ciphertext length = %d, want %d", n, len(ct), CiphertextLen(n))
		}
		got, err := DecryptProfile(key, ct)
		if err != nil {
			t.Fatalf("n=%d: DecryptProfile: %v", n, err)
		}
		if !bytes.Equal(got, plain) {
			t.Errorf("n=%d: round trip mismatch", n)
		}
	}
}

func TestProfileCipherRejectsWrongKeyAndTampering(t *testing.T) {
	key := bytes.Repeat([]byte{7}, KeySize)
	wrong := bytes.Repeat([]byte{8}, KeySize)
	ct, _ := EncryptProfile(key, []byte("service information"), nil)
	if _, err := DecryptProfile(wrong, ct); err == nil {
		t.Fatal("decryption under wrong key succeeded")
	}
	for _, i := range []int{0, 16, len(ct) - 1} {
		bad := append([]byte(nil), ct...)
		bad[i] ^= 1
		if _, err := DecryptProfile(key, bad); err == nil {
			t.Fatalf("tampered byte %d accepted", i)
		}
	}
	if _, err := DecryptProfile(key, ct[:20]); err == nil {
		t.Fatal("truncated ciphertext accepted")
	}
}

func TestCiphertextLenMatchesPaperAccounting(t *testing.T) {
	// Paper §IX-A: 200 B PROF → 16 B IV + body + 32 B MAC. The paper reports
	// 248 B (ignoring CBC padding); the true value is 256 B.
	if got := CiphertextLen(200); got != 256 {
		t.Fatalf("CiphertextLen(200) = %d, want 256", got)
	}
}

func TestNonceAndGroupKeyGeneration(t *testing.T) {
	a, err := NewNonce(nil)
	if err != nil || len(a) != NonceSize {
		t.Fatalf("NewNonce: %v len=%d", err, len(a))
	}
	b, _ := NewNonce(nil)
	if bytes.Equal(a, b) {
		t.Fatal("two nonces identical")
	}
	g, err := NewGroupKey(nil)
	if err != nil || len(g) != KeySize {
		t.Fatalf("NewGroupKey: %v len=%d", err, len(g))
	}
}

// Property: the profile cipher round-trips arbitrary plaintexts.
func TestProfileCipherRoundTripProperty(t *testing.T) {
	key := bytes.Repeat([]byte{3}, KeySize)
	f := func(plain []byte) bool {
		ct, err := EncryptProfile(key, plain, nil)
		if err != nil {
			return false
		}
		got, err := DecryptProfile(key, ct)
		if err != nil {
			return false
		}
		return bytes.Equal(got, plain)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: the key schedule separates sessions — different nonce pairs never
// collide on K2 for the same premaster secret.
func TestSessionKeySeparationProperty(t *testing.T) {
	preK := bytes.Repeat([]byte{1}, 32)
	f := func(a, b [NonceSize]byte) bool {
		if a == b {
			return true
		}
		return !bytes.Equal(SessionKey2(preK, a[:], b[:]), SessionKey2(preK, b[:], a[:]))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSigningKeyMarshalRoundTrip(t *testing.T) {
	for _, s := range Strengths {
		key, _ := GenerateSigningKey(s, nil)
		b := key.Marshal()
		got, err := UnmarshalSigningKey(b)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		// The restored key signs verifiably under the original public key.
		msg := []byte("persistence check")
		sig, err := got.Sign(msg)
		if err != nil {
			t.Fatal(err)
		}
		if !key.Public().Verify(msg, sig) {
			t.Fatalf("%v: restored key signs differently", s)
		}
		if !got.Public().Equal(key.Public()) {
			t.Fatalf("%v: restored public key differs", s)
		}
	}
	if _, err := UnmarshalSigningKey(nil); err == nil {
		t.Error("empty key accepted")
	}
	if _, err := UnmarshalSigningKey([]byte{0, 99, 1, 2}); err == nil {
		t.Error("bad strength accepted")
	}
	zero := make([]byte, 2+S128.CoordinateSize())
	zero[0], zero[1] = 0, 128
	if _, err := UnmarshalSigningKey(zero); err == nil {
		t.Error("zero scalar accepted")
	}
}
