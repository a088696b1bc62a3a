package suite

import (
	"crypto/ecdsa"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"io"
	"math/big"
)

// SigningKey is an ECDSA private key with fixed-width wire encodings.
// Argus fixes authentication at ECDSA (the paper rejects RSA as 18x slower
// at 128-bit strength, §IX-B).
type SigningKey struct {
	strength Strength
	priv     *ecdsa.PrivateKey
}

// GenerateSigningKey creates a new ECDSA key at the given strength using
// entropy from rng (crypto/rand.Reader if nil).
func GenerateSigningKey(s Strength, rng io.Reader) (*SigningKey, error) {
	if !s.Valid() {
		return nil, errors.New("suite: invalid strength")
	}
	if rng == nil {
		rng = rand.Reader
	}
	priv, err := ecdsa.GenerateKey(s.Curve(), rng)
	if err != nil {
		return nil, err
	}
	return &SigningKey{strength: s, priv: priv}, nil
}

// Strength returns the key's security strength.
func (k *SigningKey) Strength() Strength { return k.strength }

// Marshal encodes the private key as strength ‖ fixed-width D scalar, for
// the backend's persistent store (never sent on any wire).
func (k *SigningKey) Marshal() []byte {
	cs := k.strength.CoordinateSize()
	out := make([]byte, 2+cs)
	out[0] = byte(int(k.strength) >> 8)
	out[1] = byte(int(k.strength))
	k.priv.D.FillBytes(out[2:])
	return out
}

// UnmarshalSigningKey restores a key marshaled by Marshal.
func UnmarshalSigningKey(b []byte) (*SigningKey, error) {
	if len(b) < 2 {
		return nil, errors.New("suite: truncated signing key")
	}
	s := Strength(int(b[0])<<8 | int(b[1]))
	if !s.Valid() {
		return nil, errors.New("suite: bad strength in signing key")
	}
	cs := s.CoordinateSize()
	if len(b) != 2+cs {
		return nil, errors.New("suite: wrong signing key length")
	}
	d := new(big.Int).SetBytes(b[2:])
	curve := s.Curve()
	if d.Sign() == 0 || d.Cmp(curve.Params().N) >= 0 {
		return nil, errors.New("suite: signing key scalar out of range")
	}
	priv := new(ecdsa.PrivateKey)
	priv.Curve = curve
	priv.D = d
	priv.X, priv.Y = curve.ScalarBaseMult(d.Bytes())
	return &SigningKey{strength: s, priv: priv}, nil
}

// Public returns the fixed-width X‖Y encoding of the public key.
func (k *SigningKey) Public() PublicKey {
	return PublicKey{
		strength: k.strength,
		bytes:    marshalPoint(k.strength, k.priv.PublicKey.X, k.priv.PublicKey.Y),
		std:      &k.priv.PublicKey,
	}
}

// StdPrivate exposes the underlying ecdsa key (used by the cert package to
// drive crypto/x509).
func (k *SigningKey) StdPrivate() *ecdsa.PrivateKey { return k.priv }

// Sign produces a fixed-width r‖s ECDSA signature over SHA-256(msg).
func (k *SigningKey) Sign(msg []byte) ([]byte, error) {
	digest := sha256.Sum256(msg)
	r, s, err := ecdsa.Sign(rand.Reader, k.priv, digest[:])
	if err != nil {
		return nil, err
	}
	cs := k.strength.CoordinateSize()
	sig := make([]byte, 2*cs)
	r.FillBytes(sig[:cs])
	s.FillBytes(sig[cs:])
	return sig, nil
}

// PublicKey is a fixed-width encoded ECDSA public key. Construction parses
// and validates the point once and caches the stdlib form: Verify on a
// 128-bit key otherwise spends ~15% of its time re-deriving big.Int
// coordinates and re-checking curve membership, which at fleet scale turned
// every cache-primed handshake into four redundant point parses. The cache
// rides along value copies (it is a pointer), is invisible to Equal/Bytes/
// Marshal, and a zero or hand-rolled PublicKey simply falls back to parsing
// in Verify.
type PublicKey struct {
	strength Strength
	bytes    []byte
	std      *ecdsa.PublicKey
}

// PublicKeyFromBytes parses a fixed-width X‖Y public key at strength s.
func PublicKeyFromBytes(s Strength, b []byte) (PublicKey, error) {
	if !s.Valid() {
		return PublicKey{}, errors.New("suite: invalid strength")
	}
	if len(b) != s.PointSize() {
		return PublicKey{}, errors.New("suite: wrong public key length")
	}
	x, y, err := unmarshalPoint(s, b)
	if err != nil {
		return PublicKey{}, err
	}
	// Re-marshal so the stored form is canonical.
	return PublicKey{
		strength: s,
		bytes:    marshalPoint(s, x, y),
		std:      &ecdsa.PublicKey{Curve: s.Curve(), X: x, Y: y},
	}, nil
}

// Strength returns the key's security strength.
func (p PublicKey) Strength() Strength { return p.strength }

// Bytes returns the X‖Y encoding (2×CoordinateSize bytes).
func (p PublicKey) Bytes() []byte { return append([]byte(nil), p.bytes...) }

// AppendBytes appends the X‖Y encoding to dst: Bytes without the copy, for a
// caller that hashes the key into a buffer it already has.
func (p PublicKey) AppendBytes(dst []byte) []byte { return append(dst, p.bytes...) }

// IsZero reports whether p is the zero value (no key).
func (p PublicKey) IsZero() bool { return len(p.bytes) == 0 }

// Equal reports whether two public keys are identical.
func (p PublicKey) Equal(q PublicKey) bool {
	if p.strength != q.strength || len(p.bytes) != len(q.bytes) {
		return false
	}
	for i := range p.bytes {
		if p.bytes[i] != q.bytes[i] {
			return false
		}
	}
	return true
}

// Std returns the ecdsa.PublicKey form (the cached parse when available).
func (p PublicKey) Std() (*ecdsa.PublicKey, error) {
	if p.std != nil {
		return p.std, nil
	}
	x, y, err := unmarshalPoint(p.strength, p.bytes)
	if err != nil {
		return nil, err
	}
	return &ecdsa.PublicKey{Curve: p.strength.Curve(), X: x, Y: y}, nil
}

// Verify checks a fixed-width r‖s signature over SHA-256(msg).
func (p PublicKey) Verify(msg, sig []byte) bool {
	if len(sig) != p.strength.SignatureSize() {
		return false
	}
	pub, err := p.Std()
	if err != nil {
		return false
	}
	cs := p.strength.CoordinateSize()
	r := new(big.Int).SetBytes(sig[:cs])
	s := new(big.Int).SetBytes(sig[cs:])
	digest := sha256.Sum256(msg)
	return ecdsa.Verify(pub, digest[:], r, s)
}

func marshalPoint(s Strength, x, y *big.Int) []byte {
	cs := s.CoordinateSize()
	out := make([]byte, 2*cs)
	x.FillBytes(out[:cs])
	y.FillBytes(out[cs:])
	return out
}

func unmarshalPoint(s Strength, b []byte) (x, y *big.Int, err error) {
	cs := s.CoordinateSize()
	if len(b) != 2*cs {
		return nil, nil, errors.New("suite: wrong point length")
	}
	x = new(big.Int).SetBytes(b[:cs])
	y = new(big.Int).SetBytes(b[cs:])
	if !s.Curve().IsOnCurve(x, y) {
		return nil, nil, errors.New("suite: point not on curve")
	}
	return x, y, nil
}
