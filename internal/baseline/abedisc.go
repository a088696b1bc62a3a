// Package baseline implements the two alternative discovery schemes the
// paper builds for comparison (§IX): Level 2 discovery on ciphertext-policy
// ABE, and Level 3 discovery on pairing-based secret handshakes (the
// MASHaBLE adaptation). Like the Argus engines, each side is a
// transport.Handler bound to a transport.Endpoint: both run on the same
// ground-network simulator as Argus, their *real* cryptographic cost charged
// to the virtual clock through Endpoint.Compute, so end-to-end discovery
// times are directly comparable (`argus-bench -exp comparison`).
package baseline

import (
	"errors"
	"time"

	"argus/internal/abe"
	"argus/internal/enc"
	"argus/internal/suite"
	"argus/internal/transport"
)

// Message magic bytes: distinct from wire (1–4) and update (0xA5).
const (
	abeQueryMagic    byte = 0xB1
	abeResponseMagic byte = 0xB2
	pbcQueryMagic    byte = 0xB3
	pbcResponseMagic byte = 0xB4
)

// ABEObject is a Level 2 object under the ABE scheme: it holds its PROF
// variants pre-encrypted by the backend (one ciphertext per policy) and
// returns them to any query — access control is entirely in the ciphertext.
// Note the structural trade (§VIII): the object does no per-subject work and
// needs no revocation list, but revoking one subject forces the backend to
// re-encrypt everything the subject's attributes could open.
type ABEObject struct {
	ep transport.Endpoint
	// Variants are the encrypted PROFs: ABE ciphertext plus the profile
	// encrypted under the KEM key.
	Variants []ABEVariant
}

// ABEVariant is one pre-encrypted profile.
type ABEVariant struct {
	CT      []byte // marshaled abe.Ciphertext (KEM)
	Payload []byte // suite.EncryptProfile(kemKey, PROF)
}

// EncryptVariant is the backend-side preparation: encapsulate a key under the
// policy and encrypt the profile with it.
func EncryptVariant(pk *abe.PublicKey, policy *abe.Policy, profile []byte) (ABEVariant, error) {
	ct, key, err := abe.Encrypt(pk, policy)
	if err != nil {
		return ABEVariant{}, err
	}
	ctBytes, err := ct.Marshal()
	if err != nil {
		return ABEVariant{}, err
	}
	payload, err := suite.EncryptProfile(key[:], profile, nil)
	if err != nil {
		return ABEVariant{}, err
	}
	return ABEVariant{CT: ctBytes, Payload: payload}, nil
}

// Bind attaches the object to ep as the endpoint's handler.
func (o *ABEObject) Bind(ep transport.Endpoint) { o.ep = ep; ep.Bind(o) }

// Handle implements transport.Handler: any query gets all variants (2-way
// discovery; the ciphertexts do the scoping).
func (o *ABEObject) Handle(from transport.Addr, payload []byte) {
	if len(payload) == 0 || payload[0] != abeQueryMagic {
		return
	}
	w := enc.NewWriter(256)
	w.U8(abeResponseMagic)
	w.U16(uint16(len(o.Variants)))
	for _, v := range o.Variants {
		w.Bytes32(v.CT)
		w.Bytes16(v.Payload)
	}
	// No object-side computation: ciphertexts were prepared by the backend.
	o.ep.Send(from, w.Bytes())
}

// ABEDiscovery is one successful decryption at the subject.
type ABEDiscovery struct {
	Node    transport.Addr
	Profile []byte
	At      time.Duration
}

// ABESubject is the subject engine: broadcast a query, then attempt ABE
// decryption of every returned variant. The real decryption time is charged
// to the virtual clock — this is where the scheme loses (Fig 6c).
type ABESubject struct {
	ep transport.Endpoint
	PK *abe.PublicKey
	SK *abe.PrivateKey

	Results []ABEDiscovery
}

// Bind attaches the subject to ep as the endpoint's handler.
func (s *ABESubject) Bind(ep transport.Endpoint) { s.ep = ep; ep.Bind(s) }

// Discover broadcasts the query.
func (s *ABESubject) Discover(ttl int) { s.ep.Broadcast([]byte{abeQueryMagic}, ttl) }

// Handle implements transport.Handler.
func (s *ABESubject) Handle(from transport.Addr, payload []byte) {
	if len(payload) == 0 || payload[0] != abeResponseMagic {
		return
	}
	r := enc.NewReader(payload[1:])
	n := int(r.U16())
	for i := 0; i < n; i++ {
		ctBytes := r.Bytes32()
		encProf := r.Bytes16()
		if r.Err() != nil {
			return
		}
		profile, elapsed, err := s.tryDecrypt(ctBytes, encProf)
		if err != nil {
			// Unauthorized for this variant; the failed attempt still cost
			// real time (satisfiability is checked first, so mismatches are
			// cheap — mirroring real CP-ABE implementations).
			s.ep.Compute(elapsed, transport.Func(func() {}))
			continue
		}
		s.ep.Compute(elapsed, transport.Func(func() {
			s.Results = append(s.Results, ABEDiscovery{Node: from, Profile: profile, At: s.ep.Now()})
		}))
	}
}

// tryDecrypt runs the real KEM decryption and measures it.
func (s *ABESubject) tryDecrypt(ctBytes, encProf []byte) (profile []byte, elapsed time.Duration, err error) {
	start := time.Now()
	defer func() { elapsed = time.Since(start) }()
	ct, err := abe.UnmarshalCiphertext(ctBytes)
	if err != nil {
		return nil, 0, err
	}
	key, err := abe.Decrypt(s.PK, s.SK, ct)
	if err != nil {
		return nil, 0, err
	}
	profile, err = suite.DecryptProfile(key[:], encProf)
	if err != nil {
		return nil, 0, errors.New("baseline: KEM key decrypts ABE but not payload")
	}
	return profile, 0, nil
}
