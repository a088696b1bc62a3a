package cert

import (
	"bytes"
	"crypto/ecdsa"
	"crypto/x509"
	"crypto/x509/pkix"
	"encoding/hex"
	"errors"
	"fmt"
	"math/big"
	"sync/atomic"
	"time"

	"argus/internal/suite"
)

// The paper's backend is "not a single server, but a hierarchy of servers
// run by the admin ... it realizes a chain of trust, and resists collapse
// under the load and a single point of failure" (§II-A). This file provides
// the chain-of-trust half: subordinate admins (per building/department)
// whose issued CERTs and PROFs verify against the single root anchor every
// device holds, so entities provisioned by different sub-backends can still
// authenticate each other.

// chain is the admin's certificate chain up to (excluding) the root: empty
// for the root admin itself.
func (a *Admin) Chain() [][]byte {
	out := make([][]byte, len(a.chain))
	for i, c := range a.chain {
		out[i] = append([]byte(nil), c...)
	}
	return out
}

// NewSubordinate creates a child admin (a sub-backend's signing identity)
// whose CA certificate is signed by this admin. Credentials the child issues
// carry the chain and verify against the root anchor.
func (a *Admin) NewSubordinate(name string) (*Admin, error) {
	key, err := suite.GenerateSigningKey(a.strength, nil)
	if err != nil {
		return nil, err
	}
	a.serial++
	tmpl := &x509.Certificate{
		SerialNumber:          big.NewInt(a.serial),
		Subject:               pkix.Name{CommonName: name, Organization: []string{"Argus Enterprise Backend"}},
		NotBefore:             time.Now().Add(-time.Hour),
		NotAfter:              time.Now().Add(5 * 365 * 24 * time.Hour),
		KeyUsage:              x509.KeyUsageCertSign | x509.KeyUsageDigitalSignature,
		BasicConstraintsValid: true,
		IsCA:                  true,
		MaxPathLenZero:        false,
	}
	der, err := createSizedCert(tmpl, a.caCert, &key.StdPrivate().PublicKey, a.key.StdPrivate(), a.strength)
	if err != nil {
		return nil, err
	}
	caCert, err := x509.ParseCertificate(der)
	if err != nil {
		return nil, err
	}
	childChain := append([][]byte{der}, a.chain...)
	return &Admin{
		strength: a.strength,
		key:      key,
		caCert:   caCert,
		caDER:    der,
		serial:   1,
		chain:    childChain,
	}, nil
}

// IssueCertChain issues an entity certificate like IssueCert but returns the
// full chain encoding: entity DER followed by the admin's intermediate DERs,
// concatenated (x509.ParseCertificates consumes this form). Single-level
// admins return exactly IssueCert's output.
func (a *Admin) IssueCertChain(id ID, name string, role Role, pub suite.PublicKey) ([]byte, error) {
	leaf, err := a.IssueCert(id, name, role, pub)
	if err != nil {
		return nil, err
	}
	out := append([]byte(nil), leaf...)
	for _, inter := range a.chain {
		out = append(out, inter...)
	}
	return out, nil
}

// VerifyCertChain parses certDER (an entity certificate optionally followed
// by intermediate CA certificates) and verifies the chain up to the root
// anchor rootDER. It returns the bound identity like VerifyCert.
func VerifyCertChain(rootDER, certDER []byte, s suite.Strength) (*CertInfo, error) {
	anchor, err := parseAnchor(rootDER)
	if err != nil {
		return nil, err
	}
	return anchor.verifyCert(certDER, s)
}

// trustAnchor is the parsed root certificate and the pool that holds it:
// everything about a chain verification that depends on the anchor alone.
// Immutable once built, and read-only under x509 verification, so every
// verifier of the process shares one.
type trustAnchor struct {
	der   []byte
	root  *x509.Certificate
	roots *x509.CertPool
}

// lastAnchor memoizes the trust anchor parsed last, so a verification miss
// does not parse the root and build its pool again. One entry, compared by
// the anchor bytes: a device trusts one root at a time, anchors come from
// provisions and never from the air, and a rotated root replaces the entry
// the first time it is used. Process-wide rather than per VerifyCache: a
// simulated fleet holds one cache per engine, and a thousand private copies
// of the same parsed certificate are megabytes of pointers for the garbage
// collector to walk.
var lastAnchor atomic.Pointer[trustAnchor]

func parseAnchor(rootDER []byte) (*trustAnchor, error) {
	if a := lastAnchor.Load(); a != nil && bytes.Equal(a.der, rootDER) {
		return a, nil
	}
	root, err := x509.ParseCertificate(rootDER)
	if err != nil {
		return nil, fmt.Errorf("cert: bad trust anchor: %w", err)
	}
	a := &trustAnchor{der: bytes.Clone(rootDER), root: root, roots: x509.NewCertPool()}
	a.roots.AddCert(root)
	lastAnchor.Store(a)
	return a, nil
}

// verifyChain parses chainDER (leaf first, concatenated DER; what names it in
// errors) and verifies the leaf up to the anchor through the rest.
func (a *trustAnchor) verifyChain(chainDER []byte, what string) ([]*x509.Certificate, error) {
	certs, err := x509.ParseCertificates(chainDER)
	if err != nil || len(certs) == 0 {
		return nil, fmt.Errorf("cert: bad %s", what)
	}
	opts := x509.VerifyOptions{Roots: a.roots, KeyUsages: []x509.ExtKeyUsage{x509.ExtKeyUsageAny}}
	if len(certs) > 1 {
		opts.Intermediates = x509.NewCertPool()
		for _, c := range certs[1:] {
			opts.Intermediates.AddCert(c)
		}
	}
	if _, err := certs[0].Verify(opts); err != nil {
		return nil, fmt.Errorf("cert: %s does not verify: %w", what, err)
	}
	return certs, nil
}

// verifyCert is VerifyCertChain against the parsed anchor. The CertInfo
// carries the chain's joint validity window (max NotBefore, min NotAfter over
// every certificate involved) — the interval during which a memoized result,
// or a resumption ticket minted from it, stays trustworthy.
func (a *trustAnchor) verifyCert(certDER []byte, s suite.Strength) (*CertInfo, error) {
	certs, err := a.verifyChain(certDER, "certificate chain")
	if err != nil {
		return nil, err
	}
	info, err := infoFromLeaf(certs[0], s)
	if err != nil {
		return nil, err
	}
	info.NotBefore, info.NotAfter = a.root.NotBefore, a.root.NotAfter
	for _, c := range certs {
		info.NotBefore, info.NotAfter = narrow(info.NotBefore, info.NotAfter, c.NotBefore, c.NotAfter)
	}
	return info, nil
}

// narrow intersects the window [nb, na] with [nb2, na2].
func narrow(nb, na, nb2, na2 time.Time) (time.Time, time.Time) {
	if nb2.After(nb) {
		nb = nb2
	}
	if na2.Before(na) {
		na = na2
	}
	return nb, na
}

// verifyCAChain verifies a chain of CA certificates (leaf first, concatenated
// DER) against the anchor and returns the leaf CA's public key — the key
// that signed a sub-backend's profiles.
func (a *trustAnchor) verifyCAChain(chainDER []byte) (suite.PublicKey, error) {
	certs, err := a.verifyChain(chainDER, "signer chain")
	if err != nil {
		return suite.PublicKey{}, err
	}
	leaf := certs[0]
	if !leaf.IsCA {
		return suite.PublicKey{}, errors.New("cert: profile signer is not a CA")
	}
	pub, ok := leaf.PublicKey.(*ecdsa.PublicKey)
	if !ok {
		return suite.PublicKey{}, errors.New("cert: signer is not ECDSA")
	}
	bits := pub.Curve.Params().BitSize
	var s suite.Strength
	switch bits {
	case 224:
		s = suite.S112
	case 256:
		s = suite.S128
	case 384:
		s = suite.S192
	case 521:
		s = suite.S256
	default:
		return suite.PublicKey{}, errors.New("cert: signer on unsupported curve")
	}
	raw := make([]byte, s.PointSize())
	cs := s.CoordinateSize()
	pub.X.FillBytes(raw[:cs])
	pub.Y.FillBytes(raw[cs:])
	return suite.PublicKeyFromBytes(s, raw)
}

// infoFromLeaf extracts the CertInfo fields from a verified leaf.
func infoFromLeaf(c *x509.Certificate, s suite.Strength) (*CertInfo, error) {
	pub, ok := c.PublicKey.(*ecdsa.PublicKey)
	if !ok {
		return nil, errors.New("cert: not an ECDSA certificate")
	}
	if pub.Curve != s.Curve() {
		return nil, errors.New("cert: wrong curve for strength")
	}
	raw := make([]byte, s.PointSize())
	cs := s.CoordinateSize()
	pub.X.FillBytes(raw[:cs])
	pub.Y.FillBytes(raw[cs:])
	spub, err := suite.PublicKeyFromBytes(s, raw)
	if err != nil {
		return nil, err
	}
	var role Role
	if len(c.Subject.OrganizationalUnit) == 1 {
		switch c.Subject.OrganizationalUnit[0] {
		case "subject":
			role = RoleSubject
		case "object":
			role = RoleObject
		}
	}
	if role == 0 {
		return nil, errors.New("cert: missing role")
	}
	idBytes, err := hex.DecodeString(c.Subject.SerialNumber)
	if err != nil || len(idBytes) != len(ID{}) {
		return nil, errors.New("cert: malformed entity ID")
	}
	var id ID
	copy(id[:], idBytes)
	return &CertInfo{ID: id, Name: c.Subject.CommonName, Role: role, Public: spub}, nil
}
