// Package cert implements the admin-signed credentials issued by the Argus
// backend at bootstrapping (§IV-A):
//
//   - CERT — a public-key certificate binding an entity's identity to its
//     ECDSA public key. Real X.509 is used (via crypto/x509) so certificate
//     sizes match the paper's §IX-A accounting (552 B X.509 ECDSA
//     certificates at 128-bit strength).
//   - PROF — an attribute profile: for subjects, the signed list of
//     non-sensitive attributes; for objects, a service-information variant
//     (functions + attributes) selected per subject category or secret group.
//
// Both are signed by the admin's private key and "cannot be forged/altered";
// every verification chains to the admin public key loaded onto each device.
package cert

import (
	"bytes"
	"crypto"
	"crypto/ecdsa"
	"crypto/rand"
	"crypto/sha256"
	"crypto/x509"
	"crypto/x509/pkix"
	"encoding/asn1"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math/big"
	"sync"
	"time"

	"argus/internal/suite"
)

// maxSigLen returns the DER length of an ECDSA-Sig-Value (SEQUENCE of two
// INTEGERs) whose r and s both take their maximal encoding. r and s are
// uniform below the curve order n, so the longest minimal encoding has
// ceil(bitlen(n)/8) content octets, plus a 0x00 sign octet when bitlen(n) is
// a multiple of 8 (only then can the top bit be set) — reached with
// probability ~1/2 per integer (~3/4 on P-521, whose top octet holds one bit).
func maxSigLen(s suite.Strength) int {
	bits := s.Curve().Params().N.BitLen()
	content := (bits + 7) / 8
	if bits%8 == 0 {
		content++ // leading 0x00 keeps the INTEGER positive
	}
	intLen := 2 + content // tag, length, content
	body := 2 * intLen
	header := 2
	if body >= 128 {
		header = 3 // long-form length (body fits one length octet for all curves)
	}
	return header + body
}

// createSizedCert wraps x509.CreateCertificate so that the DER ECDSA
// signature takes its maximal — and therefore fixed — length. DER encodes r
// and s as minimal-length INTEGERs, so a freshly signed certificate's size
// otherwise varies with the random nonce (±2 B), which would make fixed-seed
// simulation runs non-reproducible at the byte level: RES1 carries this DER
// verbatim, and message size drives virtual airtime. The width is pinned
// inside the signer (see sizedSigner.sign), so the TBS marshal and x509's
// check of its own signature are paid once per certificate, not once per try.
func createSizedCert(tmpl, parent *x509.Certificate, pub any, priv *ecdsa.PrivateKey, s suite.Strength) ([]byte, error) {
	return x509.CreateCertificate(rand.Reader, tmpl, parent, pub, sizedSigner{priv, maxSigLen(s)})
}

// sizedSigner is an ECDSA crypto.Signer whose DER signatures are exactly want
// bytes long.
type sizedSigner struct {
	key  *ecdsa.PrivateKey
	want int
}

func (s sizedSigner) Public() crypto.PublicKey { return &s.key.PublicKey }

func (s sizedSigner) Sign(rng io.Reader, digest []byte, opts crypto.SignerOpts) ([]byte, error) {
	sig, _, err := s.sign(rng, digest, opts)
	return sig, err
}

// sign returns a want-byte signature and the number of ECDSA signatures it
// took. Only a short r costs another signature (see pinWidth), so that is 2
// on average (4/3 on P-521).
func (s sizedSigner) sign(rng io.Reader, digest []byte, opts crypto.SignerOpts) ([]byte, int, error) {
	n := s.key.Curve.Params().N
	for attempt := 1; attempt <= 256; attempt++ {
		sig, err := s.key.Sign(rng, digest, opts)
		if err != nil {
			return nil, attempt, err
		}
		if sig, ok := pinWidth(sig, n, s.want); ok {
			return sig, attempt, nil
		}
	}
	return nil, 256, errors.New("cert: could not produce a fixed-size signature")
}

// pinWidth returns the want-byte form of the DER ECDSA signature sig over a
// curve of order n, if it has one. ECDSA verification accepts (r, s) and
// (r, n−s) alike, and when s falls short of the full width n−s reaches it
// (but for a sliver of s at the middle of the range, ≤ 2^-32 of it): only
// r's width is left to chance.
func pinWidth(sig []byte, n *big.Int, want int) ([]byte, bool) {
	if len(sig) == want {
		return sig, true
	}
	var rs struct{ R, S *big.Int }
	if _, err := asn1.Unmarshal(sig, &rs); err != nil || derIntLen(rs.R) != derIntLen(n) {
		return nil, false
	}
	rs.S.Sub(n, rs.S)
	out, err := asn1.Marshal(rs)
	return out, err == nil && len(out) == want
}

// derIntLen returns the content length of the minimal DER INTEGER encoding
// of a positive x: a 0x00 sign octet is needed exactly when the top bit of
// the leading octet is set.
func derIntLen(x *big.Int) int { return x.BitLen()/8 + 1 }

// Role distinguishes the two registered entity kinds.
type Role byte

const (
	RoleSubject Role = 1 // users' devices (e.g. smartphones)
	RoleObject  Role = 2 // IoT devices offering services
)

// String implements fmt.Stringer.
func (r Role) String() string {
	switch r {
	case RoleSubject:
		return "subject"
	case RoleObject:
		return "object"
	}
	return fmt.Sprintf("role(%d)", byte(r))
}

// ID is a 16-byte entity identifier assigned at registration.
type ID [16]byte

// NewID draws a random identifier from rng (crypto/rand.Reader if nil).
func NewID(rng io.Reader) (ID, error) {
	if rng == nil {
		rng = rand.Reader
	}
	var id ID
	if _, err := io.ReadFull(rng, id[:]); err != nil {
		return ID{}, err
	}
	return id, nil
}

// IDFromName derives a deterministic ID from a human-readable name; used by
// examples and tests for stable identities.
func IDFromName(name string) ID {
	var id ID
	h := sha256.Sum256([]byte("argus-id:" + name))
	copy(id[:], h[:16])
	return id
}

// String renders the ID as hex.
func (id ID) String() string { return hex.EncodeToString(id[:]) }

// Less orders IDs lexicographically by raw bytes — the identical order to
// comparing String() renderings (hex is monotone in the underlying bytes),
// without allocating two strings per comparison. Sorting notification lists
// by rendered hex was ~1/3 of all CPU during fleet-scale churn.
func (id ID) Less(other ID) bool { return bytes.Compare(id[:], other[:]) < 0 }

// Compare orders IDs bytewise (three-way), for slices.SortFunc and friends.
func (id ID) Compare(other ID) int { return bytes.Compare(id[:], other[:]) }

// Admin is the backend's certificate authority: it holds the admin private
// key whose public half (K_admin^pub) is loaded onto every subject device and
// object at bootstrapping.
type Admin struct {
	strength suite.Strength
	key      *suite.SigningKey
	caCert   *x509.Certificate
	caDER    []byte
	serial   int64
	// chain holds the intermediate CA certificates (DER) from this admin up
	// to, but excluding, the root — empty for the root admin. See
	// hierarchy.go (§II-A: the backend is a hierarchy of servers).
	chain [][]byte

	onceMu sync.Mutex
	once   map[string]*onceSig // SignOnce's signatures, by message
}

// onceSig is one SignOnce entry; its mutex makes concurrent first callers
// wait for one signature instead of each making their own.
type onceSig struct {
	mu  sync.Mutex
	sig []byte
}

// NewAdmin creates the admin identity with a self-signed CA certificate.
func NewAdmin(s suite.Strength, name string) (*Admin, error) {
	key, err := suite.GenerateSigningKey(s, nil)
	if err != nil {
		return nil, err
	}
	tmpl := &x509.Certificate{
		SerialNumber:          big.NewInt(1),
		Subject:               pkix.Name{CommonName: name, Organization: []string{"Argus Enterprise Backend"}},
		NotBefore:             time.Now().Add(-time.Hour),
		NotAfter:              time.Now().Add(10 * 365 * 24 * time.Hour),
		KeyUsage:              x509.KeyUsageCertSign | x509.KeyUsageDigitalSignature,
		BasicConstraintsValid: true,
		IsCA:                  true,
	}
	der, err := createSizedCert(tmpl, tmpl, &key.StdPrivate().PublicKey, key.StdPrivate(), s)
	if err != nil {
		return nil, err
	}
	caCert, err := x509.ParseCertificate(der)
	if err != nil {
		return nil, err
	}
	return &Admin{strength: s, key: key, caCert: caCert, caDER: der, serial: 1}, nil
}

// Strength returns the security strength the admin operates at.
func (a *Admin) Strength() suite.Strength { return a.strength }

// Public returns K_admin^pub, loaded onto every device at bootstrapping.
func (a *Admin) Public() suite.PublicKey { return a.key.Public() }

// CACert returns the admin's self-signed certificate (DER), the trust anchor
// for CERT verification.
func (a *Admin) CACert() []byte { return append([]byte(nil), a.caDER...) }

// Sign signs an arbitrary blob with the admin key (used for update
// notifications pushed to the ground network, §IV-A). Verify against
// Public().
func (a *Admin) Sign(msg []byte) ([]byte, error) { return a.key.Sign(msg) }

// SignOnce returns the admin's signature over msg, made the first time any
// caller asks for these exact bytes and returned unchanged to every later
// caller. It is for statements that hold for good and reach many devices —
// "subject X is revoked" — where one signature can serve every copy. Each
// distinct message keeps its signature for the admin's lifetime.
// The returned slice is shared: callers must not modify it.
func (a *Admin) SignOnce(msg []byte) ([]byte, error) {
	a.onceMu.Lock()
	if a.once == nil {
		a.once = make(map[string]*onceSig)
	}
	e := a.once[string(msg)]
	if e == nil {
		e = &onceSig{}
		a.once[string(msg)] = e
	}
	a.onceMu.Unlock()

	e.mu.Lock()
	defer e.mu.Unlock()
	if e.sig == nil {
		sig, err := a.key.Sign(msg)
		if err != nil {
			return nil, err
		}
		e.sig = sig
	}
	return e.sig, nil
}

// Export returns the admin's persistent state: private key, CA certificate,
// issuance serial and intermediate chain. For the backend's store only.
func (a *Admin) Export() (keyBytes, caDER []byte, serial int64, chain [][]byte) {
	return a.key.Marshal(), a.CACert(), a.serial, a.Chain()
}

// RestoreSerial fast-forwards the certificate serial counter to at least n.
// WAL replay (internal/backendsvc) installs logged certificates without
// re-issuing them, so the counter must be advanced explicitly or a later
// live issuance would reuse a serial. Never moves the counter backwards.
func (a *Admin) RestoreSerial(n int64) {
	if n > a.serial {
		a.serial = n
	}
}

// ImportAdmin restores an admin exported by Export.
func ImportAdmin(keyBytes, caDER []byte, serial int64, chain [][]byte) (*Admin, error) {
	key, err := suite.UnmarshalSigningKey(keyBytes)
	if err != nil {
		return nil, err
	}
	caCert, err := x509.ParseCertificate(caDER)
	if err != nil {
		return nil, err
	}
	if serial < 1 {
		return nil, errors.New("cert: invalid admin serial")
	}
	cp := make([][]byte, len(chain))
	for i, c := range chain {
		cp[i] = append([]byte(nil), c...)
	}
	return &Admin{
		strength: key.Strength(),
		key:      key,
		caCert:   caCert,
		caDER:    append([]byte(nil), caDER...),
		serial:   serial,
		chain:    cp,
	}, nil
}

// ReserveSerials reserves n consecutive certificate serials and returns the
// first. Bulk issuance reserves a batch's serials in order up front, then
// issues each with IssueCertChainAt on any goroutine.
func (a *Admin) ReserveSerials(n int) int64 {
	first := a.serial + 1
	a.serial += int64(n)
	return first
}

// IssueCertChain issues an admin-signed X.509 certificate for an entity's
// public key and returns the chain encoding: entity DER followed by the
// admin's intermediate DERs, concatenated (x509.ParseCertificates consumes
// this form). A root admin returns the entity DER alone.
func (a *Admin) IssueCertChain(id ID, name string, role Role, pub suite.PublicKey) ([]byte, error) {
	return a.IssueCertChainAt(a.ReserveSerials(1), id, name, role, pub)
}

// IssueCertChainAt is IssueCertChain under a serial reserved by
// ReserveSerials. It mutates no Admin state, so distinct serials may be
// issued concurrently.
func (a *Admin) IssueCertChainAt(serial int64, id ID, name string, role Role, pub suite.PublicKey) ([]byte, error) {
	std, err := pub.Std()
	if err != nil {
		return nil, err
	}
	// Subject key identifier and OCSP endpoint are included as a real
	// enterprise deployment would; they also bring the DER size to the
	// paper's §IX-A ballpark (552 B at 128-bit strength).
	ski := sha256.Sum256(pub.Bytes())
	tmpl := &x509.Certificate{
		SerialNumber: big.NewInt(serial),
		Subject: pkix.Name{
			CommonName:         name,
			Organization:       []string{"Argus Enterprise"},
			OrganizationalUnit: []string{role.String()},
			SerialNumber:       id.String(),
		},
		NotBefore:    time.Now().Add(-time.Hour),
		NotAfter:     time.Now().Add(2 * 365 * 24 * time.Hour),
		KeyUsage:     x509.KeyUsageDigitalSignature,
		SubjectKeyId: ski[:20],
		OCSPServer:   []string{"https://backend.argus.example/ocsp"},
	}
	leaf, err := createSizedCert(tmpl, a.caCert, std, a.key.StdPrivate(), a.strength)
	if err != nil {
		return nil, err
	}
	for _, inter := range a.chain {
		leaf = append(leaf, inter...)
	}
	return leaf, nil
}

// CertInfo is the verified content of a CERT.
type CertInfo struct {
	ID     ID
	Name   string
	Role   Role
	Public suite.PublicKey
	// NotBefore and NotAfter bound the joint validity of the whole chain.
	NotBefore, NotAfter time.Time
}

// VerifyCert parses certDER — an entity certificate, optionally followed by
// intermediate CA certificates from a sub-backend (§II-A hierarchy) — and
// verifies the chain against the trust anchor caDER. It returns the bound
// identity and public key.
func VerifyCert(caDER, certDER []byte, s suite.Strength) (*CertInfo, error) {
	return VerifyCertChain(caDER, certDER, s)
}
