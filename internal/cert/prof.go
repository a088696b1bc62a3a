package cert

import (
	"crypto/x509"
	"errors"
	"fmt"
	"time"

	"argus/internal/attr"
	"argus/internal/enc"
	"argus/internal/suite"
)

// Profile is an attribute profile (PROF) signed by the admin (§IV-A).
//
// A subject PROF lists the subject's non-sensitive attributes and may be
// publicly disclosed (it is carried by QUE2). An object PROF additionally
// lists the provided functions — the service information — and a Level 2 or
// Level 3 object holds multiple PROF variants, one per subject category or
// secret group.
type Profile struct {
	Kind      Role
	Entity    ID
	Variant   uint32    // PROF variant index (0 for subjects)
	Serial    uint64    // issuance serial; bumped on re-issue, checked on revocation
	Issued    time.Time // second granularity on the wire
	Expires   time.Time
	Attrs     attr.Set // non-sensitive attributes
	Functions []string // object service functions; empty for subjects
	Note      string   // free-form service description; also used as size padding
	Sig       []byte   // admin ECDSA signature over the canonical body
	// SignerChain carries the issuing sub-admin's CA certificate chain (DER,
	// leaf first) when the profile was signed by a subordinate backend
	// (§II-A hierarchy); empty when the root admin signed. The chain is
	// self-authenticating, so it lives outside the signed body.
	SignerChain [][]byte
}

const profileVersion = 1

// body returns the canonical signed encoding (everything except Sig).
func (p *Profile) body() []byte {
	w := enc.NewWriter(256)
	w.U8(profileVersion)
	w.U8(byte(p.Kind))
	w.Raw(p.Entity[:])
	w.U32(p.Variant)
	w.U64(p.Serial)
	w.I64(p.Issued.Unix())
	w.I64(p.Expires.Unix())
	names := p.Attrs.Names()
	w.U16(uint16(len(names)))
	for _, n := range names {
		w.String16(n)
		w.String16(p.Attrs[n])
	}
	w.U16(uint16(len(p.Functions)))
	for _, f := range p.Functions {
		w.String16(f)
	}
	w.String16(p.Note)
	return w.Bytes()
}

// Encode returns the full wire encoding (body, signature, signer chain).
func (p *Profile) Encode() []byte {
	body := p.body()
	w := enc.NewWriter(len(body) + len(p.Sig) + 8)
	w.Raw(body)
	w.Bytes16(p.Sig)
	w.U8(byte(len(p.SignerChain)))
	for _, c := range p.SignerChain {
		w.Bytes16(c)
	}
	return w.Bytes()
}

// EncodedLen returns the wire length of the profile, len(p.Encode()), from
// the field lengths.
func (p *Profile) EncodedLen() int {
	n := 1 + 1 + len(p.Entity) + 4 + 8 + 8 + 8 // version … Expires
	n += 2
	for name, val := range p.Attrs {
		n += 2 + len(name) + 2 + len(val)
	}
	n += 2
	for _, f := range p.Functions {
		n += 2 + len(f)
	}
	n += 2 + len(p.Note) + 2 + len(p.Sig) + 1
	for _, c := range p.SignerChain {
		n += 2 + len(c)
	}
	return n
}

// DecodeProfile parses a wire-encoded profile. The signature is not verified;
// call Verify.
func DecodeProfile(b []byte) (*Profile, error) {
	r := enc.NewReader(b)
	if v := r.U8(); v != profileVersion && r.Err() == nil {
		return nil, fmt.Errorf("cert: unsupported profile version %d", v)
	}
	p := &Profile{}
	p.Kind = Role(r.U8())
	copy(p.Entity[:], r.Raw(len(ID{})))
	p.Variant = r.U32()
	p.Serial = r.U64()
	p.Issued = time.Unix(r.I64(), 0).UTC()
	p.Expires = time.Unix(r.I64(), 0).UTC()
	nAttrs := int(r.U16())
	p.Attrs = make(attr.Set, nAttrs)
	for i := 0; i < nAttrs; i++ {
		name := r.String16()
		val := r.String16()
		if r.Err() == nil {
			p.Attrs[name] = val
		}
	}
	nFuncs := int(r.U16())
	for i := 0; i < nFuncs && r.Err() == nil; i++ {
		p.Functions = append(p.Functions, r.String16())
	}
	p.Note = r.String16()
	p.Sig = r.Bytes16()
	nChain := int(r.U8())
	for i := 0; i < nChain && r.Err() == nil; i++ {
		p.SignerChain = append(p.SignerChain, r.Bytes16())
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	if p.Kind != RoleSubject && p.Kind != RoleObject {
		return nil, errors.New("cert: profile has invalid role")
	}
	if len(p.Attrs) != nAttrs {
		return nil, errors.New("cert: profile has duplicate attributes")
	}
	return p, nil
}

// SignProfile signs the profile body with the admin key, setting p.Sig and,
// for subordinate admins, attaching the CA chain that lets devices verify
// against the root anchor.
func (a *Admin) SignProfile(p *Profile) error {
	sig, err := a.key.Sign(p.body())
	if err != nil {
		return err
	}
	p.Sig = sig
	p.SignerChain = a.Chain()
	return nil
}

// Verify checks the admin signature and validity period. now is the
// verification time (use the ground network's virtual clock in simulation).
func (p *Profile) Verify(adminPub suite.PublicKey, now time.Time) error {
	if len(p.Sig) == 0 {
		return errors.New("cert: profile is unsigned")
	}
	if !adminPub.Verify(p.body(), p.Sig) {
		return errors.New("cert: profile signature invalid")
	}
	if now.Before(p.Issued.Add(-time.Hour)) || now.After(p.Expires) {
		return errors.New("cert: profile outside validity period")
	}
	return nil
}

// VerifyAnchored verifies the profile in a possibly hierarchical deployment:
// profiles signed by the root admin verify against rootPub directly; profiles
// carrying a SignerChain verify the chain against the root anchor and then
// the signature against the chain's leaf key.
func (p *Profile) VerifyAnchored(anchorDER []byte, rootPub suite.PublicKey, now time.Time) error {
	if len(p.SignerChain) == 0 {
		return p.Verify(rootPub, now)
	}
	anchor, err := parseAnchor(anchorDER)
	if err != nil {
		return err
	}
	// The chain leaf is the signing sub-admin's CA certificate.
	signerPub, err := anchor.verifyCAChain(p.signerChainDER())
	if err != nil {
		return err
	}
	return p.Verify(signerPub, now)
}

// signerChainDER re-assembles the signer chain, leaf first.
func (p *Profile) signerChainDER() []byte {
	var chainDER []byte
	for _, c := range p.SignerChain {
		chainDER = append(chainDER, c...)
	}
	return chainDER
}

// Window returns the interval in which a successful verification of p keeps
// holding: the profile's own validity (Verify's lower bound is Issued−1h)
// narrowed by every certificate of its signer chain.
func (p *Profile) Window() (notBefore, notAfter time.Time) {
	notBefore, notAfter = p.Issued.Add(-time.Hour), p.Expires
	if len(p.SignerChain) == 0 {
		return notBefore, notAfter
	}
	if certs, err := x509.ParseCertificates(p.signerChainDER()); err == nil {
		for _, c := range certs {
			notBefore, notAfter = narrow(notBefore, notAfter, c.NotBefore, c.NotAfter)
		}
	}
	return notBefore, notAfter
}

// PadNoteTo extends the Note field with spaces so the encoded profile is
// exactly target bytes. It returns an error if the profile is already larger.
// The paper assumes ~200 B profiles (§IX-A); padding also supports the
// constant-RES2-length requirement of indistinguishability (§VI-B): all PROF
// variants of one object are padded to the same length before encryption.
func (p *Profile) PadNoteTo(target int) error {
	cur := p.EncodedLen()
	if cur > target {
		return fmt.Errorf("cert: profile is %d bytes, larger than target %d", cur, target)
	}
	if cur == target {
		return nil
	}
	pad := target - cur
	b := make([]byte, pad)
	for i := range b {
		b[i] = ' '
	}
	p.Note += string(b)
	if got := p.EncodedLen(); got != target {
		return fmt.Errorf("cert: padding failed: %d != %d", got, target)
	}
	return nil
}
