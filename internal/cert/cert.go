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
	"sync/atomic"
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

// IssueCert creates an admin-signed X.509 certificate for an entity's public
// key. The returned DER bytes are the CERT_X wire field.
func (a *Admin) IssueCert(id ID, name string, role Role, pub suite.PublicKey) ([]byte, error) {
	a.serial++
	return a.issueCertWithSerial(a.serial, id, name, role, pub)
}

// issueCertWithSerial issues a certificate under an already-reserved serial
// number. It mutates no Admin state, so distinct serials may be issued
// concurrently (the batch issuance path below).
func (a *Admin) issueCertWithSerial(serial int64, id ID, name string, role Role, pub suite.PublicKey) ([]byte, error) {
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
	return createSizedCert(tmpl, a.caCert, std, a.key.StdPrivate(), a.strength)
}

// CertRequest describes one certificate in a batch issuance.
type CertRequest struct {
	ID   ID
	Name string
	Role Role
	Pub  suite.PublicKey
}

// IssueCertChainBatch issues one certificate chain per request on a worker
// pool of the given size (workers <= 1 issues sequentially). Serial numbers
// are reserved in request order before any signing starts and results merge
// by index, so the issued certificates are indistinguishable from sequential
// IssueCertChain calls — only the wall-clock time changes. Signing uses only
// immutable Admin state, making the fan-out safe.
func (a *Admin) IssueCertChainBatch(reqs []CertRequest, workers int) ([][]byte, error) {
	serials := make([]int64, len(reqs))
	for i := range reqs {
		a.serial++
		serials[i] = a.serial
	}
	out := make([][]byte, len(reqs))
	err := forEachIndex(len(reqs), workers, func(i int) error {
		leaf, err := a.issueCertWithSerial(serials[i], reqs[i].ID, reqs[i].Name, reqs[i].Role, reqs[i].Pub)
		if err != nil {
			return err
		}
		chain := append([]byte(nil), leaf...)
		for _, inter := range a.chain {
			chain = append(chain, inter...)
		}
		out[i] = chain
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// forEachIndex runs fn(0..n-1) on up to `workers` goroutines (sequentially
// for workers <= 1) and returns the first error by index order. Workers
// write only to distinct indices, so results merge deterministically.
func forEachIndex(n, workers int, fn func(i int) error) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next int64 = -1
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= n {
					return
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
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
