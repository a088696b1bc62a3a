package suite

import (
	"bytes"
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
		if got, want := m.sum(nil), stdMAC(key, msg); !bytes.Equal(got, want) {
			t.Fatalf("key %x message %x cut %d: got %x, crypto/hmac says %x", key, msg, cut, got, want)
		}
	})
}

// TestMACStateHoldsNoKeyAfterRelease: what goes back into the pool is a
// reset digest and zeroed buffers — no key block, no chaining value derived
// from one, no result.
func TestMACStateHoldsNoKeyAfterRelease(t *testing.T) {
	fresh, err := sha256.New().(encoding.BinaryMarshaler).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range [][]byte{pattern(KeySize, 0x55), pattern(200, 0x66)} {
		for _, end := range []func(m *macState){
			func(m *macState) { m.sum(nil) },
			func(m *macState) { m.equal(make([]byte, MACSize)) },
		} {
			m := startMAC(key)
			m.writeString(LabelSubjectFinished)
			end(m) // m is back in the pool; nothing else runs, so it is still ours to read
			if m.pad != [sha256.BlockSize]byte{} || m.buf != [sha256.Size]byte{} {
				t.Fatalf("released state keeps pad %x buf %x", m.pad, m.buf)
			}
			state, err := m.h.(encoding.BinaryMarshaler).MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(state, fresh) {
				t.Fatalf("released digest is not reset: %x", state)
			}
		}
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
	ct[len(ct)-1] ^= 1 // the tag check fails, and is all DecryptProfile does
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
		{"DecryptProfile tag check", 0, func() { _, _ = DecryptProfile(k2, ct) }},
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
