package suite

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"encoding"
	"sync"
	"testing"
)

// stdMAC is the reference: crypto/hmac over the concatenated inputs.
func stdMAC(key []byte, parts ...[]byte) []byte {
	m := hmac.New(sha256.New, key)
	for _, p := range parts {
		m.Write(p)
	}
	return m.Sum(nil)
}

func pattern(n int, salt byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i)*7 + salt
	}
	return b
}

// TestMACMatchesStdlib: the primitive is HMAC-SHA-256, at every key and
// message length around the block boundary, whether key and message arrive
// whole or in parts.
func TestMACMatchesStdlib(t *testing.T) {
	sizes := []int{0, 1, sha256.BlockSize - 1, sha256.BlockSize, sha256.BlockSize + 1, 1024}
	for _, kn := range sizes {
		for _, mn := range sizes {
			key, msg := pattern(kn, 1), pattern(mn, 2)
			want := stdMAC(key, msg)
			if got := startMAC(key).sumOf(msg); !bytes.Equal(got, want) {
				t.Errorf("key %d B, message %d B: MAC differs from crypto/hmac", kn, mn)
			}
			m := startMAC(key[:kn/3], key[kn/3:])
			m.write(msg[:mn/2])
			m.writeString(string(msg[mn/2:]))
			if got := m.sum(nil); !bytes.Equal(got, want) {
				t.Errorf("key %d B, message %d B: multi-part input differs from concatenated input", kn, mn)
			}
			m = startMAC(key)
			m.write(msg)
			if !m.equal(want) {
				t.Errorf("key %d B, message %d B: equal rejects the MAC", kn, mn)
			}
			m = startMAC(key)
			m.write(msg)
			if m.equal(want[:len(want)-1]) {
				t.Errorf("key %d B, message %d B: equal accepts a truncated MAC", kn, mn)
			}
		}
	}
}

// sumOf is the one-shot form the tests compare with.
func (m *macState) sumOf(msg []byte) []byte {
	m.write(msg)
	return m.sum(nil)
}

// TestKeyScheduleMatchesStdlib pins every exported derivation to its §V
// formula computed with crypto/hmac: the wire stays byte-identical.
func TestKeyScheduleMatchesStdlib(t *testing.T) {
	preK, grp := pattern(32, 3), pattern(KeySize, 4)
	rs, ro := pattern(NonceSize, 5), pattern(NonceSize, 6)
	th := sha256.Sum256([]byte("transcript"))
	seed := append(append([]byte(LabelSessionKey), rs...), ro...)

	k2 := stdMAC(preK, seed, []byte{1})
	if got := SessionKey2(preK, rs, ro); !bytes.Equal(got, k2) {
		t.Error("SessionKey2 differs from HMAC(preK, label ‖ R_S ‖ R_O ‖ 1)")
	}
	if got := SessionKey3(k2, grp, rs, ro); !bytes.Equal(got, stdMAC(append(append([]byte(nil), k2...), grp...), seed, []byte{1})) {
		t.Error("SessionKey3 differs from HMAC(K2 ‖ K_grp, label ‖ R_S ‖ R_O ‖ 1)")
	}
	if got := PRF(preK, seed, KeySize); !bytes.Equal(got, k2) {
		t.Error("PRF and SessionKey2 disagree on the one-block case")
	}
	t1 := stdMAC(preK, seed, []byte{1})
	t2 := stdMAC(preK, t1, seed, []byte{2})
	t3 := stdMAC(preK, t2, seed, []byte{3})
	if got := PRF(preK, seed, 70); !bytes.Equal(got, append(append(t1, t2...), t3...)[:70]) {
		t.Error("PRF's counter construction differs from T(i) = HMAC(secret, T(i-1) ‖ seed ‖ i)")
	}
	fin := stdMAC(k2, []byte(LabelObjectFinished), th[:])
	if got := FinishedMAC(k2, LabelObjectFinished, th); !bytes.Equal(got, fin) {
		t.Error("FinishedMAC differs from HMAC(K, label ‖ hash)")
	}
	if !VerifyMAC(k2, LabelObjectFinished, th, fin) {
		t.Error("VerifyMAC rejects the reference MAC")
	}
	secret, _ := ResumptionTicket(k2, th)
	if !bytes.Equal(secret, stdMAC(k2, []byte(LabelResumption), th[:])) {
		t.Error("ResumptionTicket's secret differs from HMAC(K2, label ‖ hash)")
	}
	if h := Hint(secret, rs); !bytes.Equal(h[:], stdMAC(secret, []byte(LabelHint), rs)[:HintSize]) {
		t.Error("Hint differs from HMAC(secret, \"hint\" ‖ R_S)[:8]")
	}
	if Hint(secret, rs) == Hint(secret, ro) || Hint(secret, rs) == Hint(k2, rs) {
		t.Error("Hint does not depend on both the secret and R_S")
	}

	// The profile cipher: keys by PRF, tag over IV ‖ ciphertext.
	ct, err := EncryptProfile(k2, []byte("a profile"), nil)
	if err != nil {
		t.Fatal(err)
	}
	macKey := stdMAC(k2, []byte("profile integrity"), []byte{1})
	covered := ct[:len(ct)-MACSize]
	if !bytes.Equal(ct[len(covered):], stdMAC(macKey, covered)) {
		t.Error("EncryptProfile's tag differs from HMAC(PRF(K, \"profile integrity\"), IV ‖ ciphertext)")
	}
}

// FuzzMACMatchesStdlib: any key, any message, any split of either.
func FuzzMACMatchesStdlib(f *testing.F) {
	f.Add([]byte{}, []byte{}, uint8(0))
	f.Add([]byte("k"), []byte("m"), uint8(1))
	f.Add(pattern(sha256.BlockSize, 1), pattern(sha256.BlockSize, 2), uint8(32))
	f.Add(pattern(sha256.BlockSize+1, 3), pattern(sha256.BlockSize-1, 4), uint8(65))
	f.Add(pattern(1024, 5), pattern(1024, 6), uint8(200))
	f.Fuzz(func(t *testing.T, key, msg []byte, cut uint8) {
		kc, mc := min(int(cut), len(key)), min(int(cut), len(msg))
		m := startMAC(key[:kc], key[kc:])
		m.writeString(string(msg[:mc]))
		m.write(msg[mc:])
		want := stdMAC(key, msg)
		if got := m.sum(nil); !bytes.Equal(got, want) {
			t.Fatalf("key %x message %x cut %d: got %x, crypto/hmac says %x", key, msg, cut, got, want)
		}
		var k Key
		k.Set(key[:kc], key[kc:])
		m = k.start()
		m.writeString(string(msg[:mc]))
		m.write(msg[mc:])
		if got := m.sum(nil); !bytes.Equal(got, want) {
			t.Fatalf("key %x message %x cut %d: keyed state gives %x, crypto/hmac says %x", key, msg, cut, got, want)
		}
	})
}

// TestKeyMatchesStdlib: every method of a prepared Key computes what
// crypto/hmac computes over the raw key, and what the []byte form computes,
// at key lengths around the block boundary.
func TestKeyMatchesStdlib(t *testing.T) {
	rs, ro := pattern(NonceSize, 5), pattern(NonceSize, 6)
	grp := pattern(KeySize, 4)
	th := sha256.Sum256([]byte("transcript"))
	plain := pattern(200, 7)
	for _, n := range []int{0, 1, sha256.BlockSize - 1, sha256.BlockSize, sha256.BlockSize + 1, 200} {
		raw := pattern(n, 3)
		var k Key
		k.Set(raw)
		if k == (Key{}) {
			t.Fatalf("key %d B: Set left the zero Key", n)
		}
		var parts Key
		parts.Set(raw[:n/2], raw[n/2:])
		if parts != k {
			t.Errorf("key %d B: a key set in parts differs from the whole", n)
		}

		want := stdMAC(raw, []byte(LabelObjectFinished), th[:])
		var mac [MACSize]byte
		k.FinishedMAC(&mac, LabelObjectFinished, th)
		if !bytes.Equal(mac[:], want) || !bytes.Equal(FinishedMAC(raw, LabelObjectFinished, th), want) {
			t.Errorf("key %d B: FinishedMAC differs from crypto/hmac", n)
		}
		if !k.VerifyMAC(LabelObjectFinished, th, want) {
			t.Errorf("key %d B: VerifyMAC rejects the reference MAC", n)
		}
		if k.VerifyMAC(LabelSubjectFinished, th, want) || k.VerifyMAC(LabelObjectFinished, th, want[:MACSize-1]) {
			t.Errorf("key %d B: VerifyMAC accepts a MAC under another label, or a truncated one", n)
		}

		var k2 [KeySize]byte
		k.SessionKey2(&k2, rs, ro)
		if !bytes.Equal(k2[:], SessionKey2(raw, rs, ro)) {
			t.Errorf("key %d B: Key.SessionKey2 differs from SessionKey2", n)
		}
		var to [KeySize]byte
		if SessionKey2To(&to, raw, rs, ro); to != k2 {
			t.Errorf("key %d B: SessionKey2To differs from SessionKey2", n)
		}
		if SessionKey3To(&to, raw, grp, rs, ro); !bytes.Equal(to[:], SessionKey3(raw, grp, rs, ro)) {
			t.Errorf("key %d B: SessionKey3To differs from SessionKey3", n)
		}

		if h := k.Hint(rs); h != Hint(raw, rs) || !bytes.Equal(h[:], stdMAC(raw, []byte(LabelHint), rs)[:HintSize]) {
			t.Errorf("key %d B: Key.Hint differs from Hint or crypto/hmac", n)
		}

		secretRaw, idRaw := ResumptionTicket(raw, th)
		var secret, wantSecret Key
		wantSecret.Set(secretRaw)
		if id := k.ResumptionTicket(&secret, th); id != idRaw || secret != wantSecret {
			t.Errorf("key %d B: Key.ResumptionTicket differs from ResumptionTicket", n)
		}

		iv := pattern(16, 9)
		ct, err := k.EncryptProfile([]byte("prefix"), plain, bytes.NewReader(iv))
		if err != nil {
			t.Fatal(err)
		}
		ref, err := EncryptProfile(raw, plain, bytes.NewReader(iv))
		if err != nil {
			t.Fatal(err)
		}
		if string(ct[:6]) != "prefix" || !bytes.Equal(ct[6:], ref) {
			t.Errorf("key %d B: Key.EncryptProfile does not append what EncryptProfile returns", n)
		}
		got, err := k.DecryptProfile([]byte("prefix"), ref)
		if err != nil || string(got[:6]) != "prefix" || !bytes.Equal(got[6:], plain) {
			t.Errorf("key %d B: Key.DecryptProfile does not append the plaintext (%v)", n, err)
		}

		k.Wipe()
		if k != (Key{}) {
			t.Errorf("key %d B: Wipe left key material", n)
		}
	}
}

// cbcReference is the profile cipher spelled out with crypto/hmac and
// crypto/cipher's CBC mode: IV ‖ AES-256-CBC(PKCS#7(plain)) ‖ tag.
func cbcReference(t *testing.T, sessionKey, iv, plain []byte) []byte {
	t.Helper()
	block, err := aes.NewCipher(stdMAC(sessionKey, []byte("profile encryption"), []byte{1}))
	if err != nil {
		t.Fatal(err)
	}
	pad := aes.BlockSize - len(plain)%aes.BlockSize
	body := append(append([]byte(nil), plain...), bytes.Repeat([]byte{byte(pad)}, pad)...)
	ct := append([]byte(nil), iv...)
	ct = append(ct, make([]byte, len(body))...)
	cipher.NewCBCEncrypter(block, iv).CryptBlocks(ct[aes.BlockSize:], body)
	return append(ct, stdMAC(stdMAC(sessionKey, []byte("profile integrity"), []byte{1}), ct)...)
}

// TestProfileCBCMatchesStdlib: the hand-rolled CBC is byte for byte
// crypto/cipher's under a fixed IV, and what it decrypts is rejected whole
// when any byte is tampered with or the padding is not PKCS#7.
func TestProfileCBCMatchesStdlib(t *testing.T) {
	raw, iv := pattern(KeySize, 1), pattern(aes.BlockSize, 2)
	var k Key
	k.Set(raw)
	for _, n := range []int{0, 1, 15, 16, 17, 200} {
		plain := pattern(n, 3)
		want := cbcReference(t, raw, iv, plain)
		ct, err := k.EncryptProfile(nil, plain, bytes.NewReader(iv))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ct, want) {
			t.Fatalf("%d B: ciphertext differs from crypto/cipher's CBC", n)
		}
		if got, err := k.DecryptProfile(nil, want); err != nil || !bytes.Equal(got, plain) {
			t.Fatalf("%d B: the reference ciphertext does not decrypt (%v)", n, err)
		}
		for i := range want {
			bad := append([]byte(nil), want...)
			bad[i] ^= 0x80
			if _, err := k.DecryptProfile(nil, bad); err == nil {
				t.Fatalf("%d B: tampered byte %d accepted", n, i)
			}
		}
	}

	// Bodies that decrypt under a valid tag but do not end in PKCS#7 padding,
	// or are no whole number of blocks.
	block, err := aes.NewCipher(stdMAC(raw, []byte("profile encryption"), []byte{1}))
	if err != nil {
		t.Fatal(err)
	}
	tagKey := stdMAC(raw, []byte("profile integrity"), []byte{1})
	seal := func(body []byte) []byte {
		ct := append(append([]byte(nil), iv...), make([]byte, len(body))...)
		if len(body)%aes.BlockSize == 0 {
			cipher.NewCBCEncrypter(block, iv).CryptBlocks(ct[aes.BlockSize:], body)
		}
		return append(ct, stdMAC(tagKey, ct)...)
	}
	for name, body := range map[string][]byte{
		"pad 0":          append(pattern(15, 4), 0),
		"pad 17":         append(pattern(31, 4), 17),
		"pad bytes vary": append(pattern(13, 4), 2, 3, 3),
		"partial block":  pattern(20, 4),
	} {
		if _, err := k.DecryptProfile(nil, seal(body)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestMACStateHoldsNoKeyAfterRelease: what goes back into the pool is a
// reset digest and zeroed buffers — no key block, no chaining value derived
// from one, no result.
func TestMACStateHoldsNoKeyAfterRelease(t *testing.T) {
	fresh, err := sha256.New().(encoding.BinaryMarshaler).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var out [MACSize]byte
	for _, key := range [][]byte{pattern(KeySize, 0x55), pattern(200, 0x66)} {
		var k Key
		k.Set(key)
		for _, start := range []func() *macState{
			func() *macState { return startMAC(key) },
			k.start,
		} {
			for _, end := range []func(m *macState){
				func(m *macState) { m.sum(nil) },
				func(m *macState) { m.sumTo(&out) },
				func(m *macState) { m.equal(make([]byte, MACSize)) },
			} {
				m := start()
				m.writeString(LabelSubjectFinished)
				end(m) // m is back in the pool; nothing else runs, so it is still ours to read
				assertReleased(t, m, fresh)
			}
		}
	}
	var k Key
	k.Set(pattern(200, 0x77))
	m := macPool.Get().(*macState) // Set's state, as it went back
	macPool.Put(m)
	assertReleased(t, m, fresh)
}

// assertReleased fails unless m holds no key, no staged digest, no result
// and a reset digest.
func assertReleased(t *testing.T, m *macState, fresh []byte) {
	t.Helper()
	if m.key != (Key{}) || m.pad != [sha256.BlockSize]byte{} || m.buf != [sha256.Size]byte{} || m.state != [digestStateLen]byte{} {
		t.Fatalf("released state keeps key %x pad %x buf %x staged digest %x", m.key, m.pad, m.buf, m.state)
	}
	state, err := m.h.(encoding.BinaryMarshaler).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(state, fresh) {
		t.Fatalf("released digest is not reset: %x", state)
	}
}

// poolsKeep reports whether a sync.Pool hands back what was just put. Under
// the race detector it drops a quarter of the puts at random, and an
// allocation count then measures the refills.
func poolsKeep() bool {
	var p sync.Pool
	for i := 0; i < 64; i++ {
		p.Put(new(int))
		if p.Get() == nil {
			return false
		}
	}
	return true
}

// The symmetric path allocates what it returns and nothing else.
func TestMACAllocations(t *testing.T) {
	if !poolsKeep() {
		t.Skip("sync.Pool is dropping puts (race detector): allocation counts mean nothing")
	}
	k2, grp := pattern(KeySize, 1), pattern(KeySize, 2)
	rs, ro := pattern(NonceSize, 3), pattern(NonceSize, 4)
	th := sha256.Sum256([]byte("transcript"))
	mac := FinishedMAC(k2, LabelSubjectFinished, th)
	ct, err := EncryptProfile(k2, pattern(200, 5), nil)
	if err != nil {
		t.Fatal(err)
	}
	plain := make([]byte, 0, len(ct))
	var key, secret Key
	key.Set(k2)
	var out [KeySize]byte
	dst := make([]byte, 0, len(ct))
	bad := append([]byte(nil), ct...)
	bad[len(bad)-1] ^= 1 // the tag check fails, and is all DecryptProfile does
	for _, c := range []struct {
		name string
		max  float64
		fn   func()
	}{
		{"FinishedMAC", 1, func() { FinishedMAC(k2, LabelSubjectFinished, th) }},
		{"SessionKey2", 1, func() { SessionKey2(k2, rs, ro) }},
		{"SessionKey3", 1, func() { SessionKey3(k2, grp, rs, ro) }},
		{"ResumptionTicket", 1, func() { ResumptionTicket(k2, th) }},
		{"VerifyMAC", 0, func() { VerifyMAC(k2, LabelSubjectFinished, th, mac) }},
		{"Hint", 0, func() { Hint(k2, rs) }},
		{"DecryptProfile tag check", 0, func() { _, _ = DecryptProfile(k2, bad) }},
		{"Key.Set", 0, func() { key.Set(k2) }},
		{"Key.FinishedMAC", 0, func() { key.FinishedMAC(&out, LabelSubjectFinished, th) }},
		{"Key.VerifyMAC", 0, func() { key.VerifyMAC(LabelSubjectFinished, th, mac) }},
		{"Key.Hint", 0, func() { key.Hint(rs) }},
		{"Key.SessionKey2", 0, func() { key.SessionKey2(&out, rs, ro) }},
		{"SessionKey2To", 0, func() { SessionKey2To(&out, k2, rs, ro) }},
		{"SessionKey3To", 0, func() { SessionKey3To(&out, k2, grp, rs, ro) }},
		{"Key.ResumptionTicket", 0, func() { key.ResumptionTicket(&secret, th) }},
		{"Key.DecryptProfile tag check", 0, func() { _, _ = key.DecryptProfile(plain, bad) }},
		// What is left is the AES key schedule: no mode object, no padded
		// copy, no key slice.
		{"Key.DecryptProfile", 1, func() { _, _ = key.DecryptProfile(plain, ct) }},
		{"Key.EncryptProfile", 1, func() { _, _ = key.EncryptProfile(dst, plain[:200], nil) }},
	} {
		if got := testing.AllocsPerRun(200, c.fn); got > c.max {
			t.Errorf("%s: %.0f allocs/op, want at most %.0f", c.name, got, c.max)
		}
	}
}

// TestMACConcurrent hammers the pooled state from 32 goroutines (the package
// is in the race tier): every result must still be the reference MAC.
func TestMACConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			key, msg := pattern(16+g, byte(g)), pattern(100+g, byte(g))
			want := stdMAC(key, msg)
			for i := 0; i < 200; i++ {
				if got := startMAC(key).sumOf(msg); !bytes.Equal(got, want) {
					t.Errorf("goroutine %d: MAC differs from crypto/hmac", g)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func BenchmarkFinishedMAC(b *testing.B) {
	key := pattern(KeySize, 1)
	th := sha256.Sum256([]byte("transcript"))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		VerifyMAC(key, LabelSubjectFinished, th, key)
	}
}
