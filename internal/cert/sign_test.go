package cert

import (
	"bytes"
	"crypto"
	"crypto/ecdsa"
	"crypto/rand"
	"crypto/sha256"
	"crypto/x509"
	"encoding/asn1"
	"io"
	"math/big"
	"testing"

	"argus/internal/obs"
	"argus/internal/suite"
)

// certDigest returns the digest an admin's signature over c covers.
func certDigest(t *testing.T, c *x509.Certificate) []byte {
	t.Helper()
	var h crypto.Hash
	switch c.SignatureAlgorithm {
	case x509.ECDSAWithSHA256:
		h = crypto.SHA256
	case x509.ECDSAWithSHA384:
		h = crypto.SHA384
	case x509.ECDSAWithSHA512:
		h = crypto.SHA512
	default:
		t.Fatalf("unexpected signature algorithm %v", c.SignatureAlgorithm)
	}
	d := h.New()
	d.Write(c.RawTBSCertificate)
	return d.Sum(nil)
}

// TestIssuedSignaturesPinnedAtEveryStrength issues 500 certificates per
// strength: every signature is exactly maxSigLen bytes, verifies under
// ecdsa.VerifyASN1 against the admin key, and the certificate verifies
// through VerifyCertChain. 50 with -short or -race: the property is not a
// concurrent one, and the race tier would spend a minute on it.
func TestIssuedSignaturesPinnedAtEveryStrength(t *testing.T) {
	n := 500
	if testing.Short() || raceEnabled {
		n = 50
	}
	for _, s := range suite.Strengths {
		t.Run(s.String(), func(t *testing.T) {
			admin, err := NewAdmin(s, "root")
			if err != nil {
				t.Fatal(err)
			}
			key, err := suite.GenerateSigningKey(s, nil)
			if err != nil {
				t.Fatal(err)
			}
			adminPub := &admin.key.StdPrivate().PublicKey
			want := maxSigLen(s)
			for i := 0; i < n; i++ {
				id := IDFromName("entity")
				der, err := admin.IssueCertChain(id, "entity", RoleObject, key.Public())
				if err != nil {
					t.Fatal(err)
				}
				c, err := x509.ParseCertificate(der)
				if err != nil {
					t.Fatal(err)
				}
				if len(c.Signature) != want {
					t.Fatalf("issuance %d: %d B signature, want %d B", i, len(c.Signature), want)
				}
				if !ecdsa.VerifyASN1(adminPub, certDigest(t, c), c.Signature) {
					t.Fatalf("issuance %d: signature does not verify", i)
				}
				if _, err := VerifyCertChain(admin.CACert(), der, s); err != nil {
					t.Fatalf("issuance %d: %v", i, err)
				}
			}
		})
	}
}

// TestSizedSignerAttempts: with n−s standing in for a short s, a pinned
// signature costs 2 ECDSA signatures on average (P(r full-width) ≈ 1/2), not
// the 4 of waiting for r and s both.
func TestSizedSignerAttempts(t *testing.T) {
	key, err := suite.GenerateSigningKey(suite.S128, nil)
	if err != nil {
		t.Fatal(err)
	}
	signer := sizedSigner{key.StdPrivate(), maxSigLen(suite.S128)}
	const n = 2000
	total := 0
	var digest [32]byte
	for i := 0; i < n; i++ {
		if _, err := io.ReadFull(rand.Reader, digest[:]); err != nil {
			t.Fatal(err)
		}
		sig, tries, err := signer.sign(rand.Reader, digest[:], crypto.SHA256)
		if err != nil {
			t.Fatal(err)
		}
		if len(sig) != signer.want {
			t.Fatalf("%d B signature, want %d B", len(sig), signer.want)
		}
		total += tries
	}
	if mean := float64(total) / n; mean > 2.3 {
		t.Fatalf("mean attempts %.2f over %d signatures, want ≤ 2.3 (expected 2.0)", mean, n)
	}
}

// highSSigner signs like sizedSigner but returns only signatures that
// pinWidth had to rewrite to (r, n−s): the form no unmodified ECDSA signer
// would have produced at the pinned width.
type highSSigner struct{ sizedSigner }

func (h highSSigner) Sign(rng io.Reader, digest []byte, opts crypto.SignerOpts) ([]byte, error) {
	n := h.key.Curve.Params().N
	for {
		sig, err := h.key.Sign(rng, digest, opts)
		if err != nil {
			return nil, err
		}
		if len(sig) == h.want {
			continue
		}
		if pinned, ok := pinWidth(sig, n, h.want); ok {
			return pinned, nil
		}
	}
}

// TestPinWidthRewritesShortS: a signature whose r is full-width and whose s
// is short comes back as (r, n−s) at the pinned width; it verifies under
// ecdsa.VerifyASN1, and a certificate carrying it has the issued size and
// verifies through a VerifyCache (the device path), on the miss and the hit.
func TestPinWidthRewritesShortS(t *testing.T) {
	for _, s := range suite.Strengths {
		t.Run(s.String(), func(t *testing.T) {
			admin, err := NewAdmin(s, "root")
			if err != nil {
				t.Fatal(err)
			}
			priv := admin.key.StdPrivate()
			n, want := priv.Curve.Params().N, maxSigLen(s)

			digest := sha256.Sum256([]byte("digest"))
			var raw []byte
			for raw == nil {
				sig, err := priv.Sign(rand.Reader, digest[:], crypto.SHA256)
				if err != nil {
					t.Fatal(err)
				}
				var rs struct{ R, S *big.Int }
				if _, err := asn1.Unmarshal(sig, &rs); err != nil {
					t.Fatal(err)
				}
				if derIntLen(rs.R) == derIntLen(n) && derIntLen(rs.S) < derIntLen(n) {
					raw = sig
				}
			}
			pinned, ok := pinWidth(raw, n, want)
			if !ok || len(pinned) != want {
				t.Fatalf("pinWidth: ok=%v, %d B, want %d B", ok, len(pinned), want)
			}
			if bytes.Equal(pinned, raw) || !ecdsa.VerifyASN1(&priv.PublicKey, digest[:], pinned) {
				t.Fatal("rewritten signature is the original or does not verify")
			}
			var before, after struct{ R, S *big.Int }
			asn1.Unmarshal(raw, &before)
			asn1.Unmarshal(pinned, &after)
			if after.R.Cmp(before.R) != 0 || new(big.Int).Add(after.S, before.S).Cmp(n) != 0 {
				t.Fatal("rewritten signature is not (r, n−s)")
			}

			// A certificate signed in the rewritten form, on the issued template.
			key, err := suite.GenerateSigningKey(s, nil)
			if err != nil {
				t.Fatal(err)
			}
			id := IDFromName("lamp")
			issued, err := admin.IssueCertChain(id, "lamp", RoleObject, key.Public())
			if err != nil {
				t.Fatal(err)
			}
			tmpl, err := x509.ParseCertificate(issued)
			if err != nil {
				t.Fatal(err)
			}
			der, err := x509.CreateCertificate(rand.Reader, tmpl, admin.caCert, tmpl.PublicKey,
				highSSigner{sizedSigner{priv, want}})
			if err != nil {
				t.Fatal(err)
			}
			if len(der) != len(issued) {
				t.Fatalf("rewritten certificate is %d B, issued ones %d B", len(der), len(issued))
			}
			vc := NewVerifyCache(4)
			for i := 0; i < 2; i++ {
				info, err := vc.VerifyCert(admin.CACert(), der, s)
				if err != nil {
					t.Fatalf("lookup %d: %v", i, err)
				}
				if info.ID != id {
					t.Fatalf("lookup %d: id %v, want %v", i, info.ID, id)
				}
			}
			if hits, misses, _ := vc.Stats(); hits != 1 || misses != 1 {
				t.Fatalf("hits=%d misses=%d, want 1 and 1", hits, misses)
			}
		})
	}
}

// TestVerifyCacheTelemetryPerRegistry: caches instrumented on one registry
// share one handle block, a second registry gets its own, and the shared
// counters total what every cache looked up.
func TestVerifyCacheTelemetryPerRegistry(t *testing.T) {
	admin := newVCAdmin(t)
	fx := newVCFixture(t, admin, "plug")
	reg, other := obs.NewRegistry(), obs.NewRegistry()
	a, b, c := NewVerifyCache(4), NewVerifyCache(4), NewVerifyCache(4)
	a.Instrument(reg)
	b.Instrument(reg)
	c.Instrument(other)
	if a.tel.Load() == nil || a.tel.Load() != b.tel.Load() {
		t.Fatal("caches on one registry hold different blocks")
	}
	if c.tel.Load() == a.tel.Load() {
		t.Fatal("a second registry shares the first one's block")
	}
	for _, vc := range []*VerifyCache{a, a, b} {
		if _, err := vc.VerifyCert(admin.CACert(), fx.certDER, admin.Strength()); err != nil {
			t.Fatal(err)
		}
	}
	snap := reg.Snapshot()
	for result, want := range map[string]float64{"hit": 1, "miss": 2} {
		m := snap.Get(obs.MVerifyCacheEvents, obs.L("kind", "cert"), obs.L("result", result))
		if m == nil || m.Value != want {
			t.Fatalf("cert %s = %+v, want %v", result, m, want)
		}
	}
	a.Instrument(nil)
	if a.tel.Load() != nil || b.tel.Load() == nil {
		t.Fatal("Instrument(nil) must detach that cache alone")
	}
}

// BenchmarkIssueCertChain measures one S128 entity-certificate issuance:
// template, TBS marshal, the pinned-width signature and x509's check of it.
// scripts/check_bench.sh gates its allocs/op.
func BenchmarkIssueCertChain(b *testing.B) {
	admin, err := NewAdmin(suite.S128, "root")
	if err != nil {
		b.Fatal(err)
	}
	key, err := suite.GenerateSigningKey(suite.S128, nil)
	if err != nil {
		b.Fatal(err)
	}
	id := IDFromName("bench-entity")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := admin.IssueCertChain(id, "bench-entity", RoleSubject, key.Public()); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSignOnce: concurrent first callers of one message share one signature
// (P-256 signing is randomized, so a second signature would differ), a
// different message gets its own, and both verify under the admin key.
func TestSignOnce(t *testing.T) {
	a, err := NewAdmin(suite.S128, "admin")
	if err != nil {
		t.Fatal(err)
	}
	msg, other := []byte("subject 1 is revoked"), []byte("subject 2 is revoked")
	const callers = 8
	sigs := make([][]byte, callers)
	done := make(chan struct{})
	for i := range sigs {
		go func() {
			defer func() { done <- struct{}{} }()
			sigs[i], _ = a.SignOnce(append([]byte(nil), msg...))
		}()
	}
	for range sigs {
		<-done
	}
	for i, sig := range sigs {
		if !bytes.Equal(sig, sigs[0]) {
			t.Fatalf("caller %d got a second signature", i)
		}
	}
	if !a.Public().Verify(msg, sigs[0]) {
		t.Fatal("SignOnce signature does not verify")
	}
	sig2, err := a.SignOnce(other)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(sig2, sigs[0]) || !a.Public().Verify(other, sig2) || a.Public().Verify(msg, sig2) {
		t.Fatal("a second message did not get its own signature")
	}
}
