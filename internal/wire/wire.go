// Package wire defines the four Argus discovery messages — QUE1, RES1, QUE2,
// RES2 — for the three protocol versions the paper develops (Fig 3, 4, 5),
// with a deterministic binary codec and the transcript-hash machinery behind
// the finished MACs ("*" in the paper: all the content sent and received so
// far).
//
// Message-size accounting here drives the §IX-A message-overhead experiment:
// at 128-bit strength QUE1 is 28 B of nonce plus a fixed 3-byte header,
// RES1/QUE2/RES2 sizes land within a few bytes of the paper's 772/1008/280.
//
// The codec is canonical: Encode is a pure function of the message fields and
// Decode(Encode(m)).Encode() == Encode(m) for every valid message (fuzzed in
// fuzz_test.go). Retransmission relies on this — a resent QUE2/RES2 must be
// byte-identical to the original its transcript MAC was computed over, and an
// eavesdropper must not be able to tell a resend from a first transmission by
// shape (Case 7).
package wire

import (
	"crypto/sha256"
	"crypto/subtle"
	"encoding"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"slices"
	"sync"

	"argus/internal/enc"
)

// Version selects the protocol iteration from the paper.
type Version byte

const (
	// V10 is Fig 3: concurrent Level 1 + Level 2 discovery.
	V10 Version = 1
	// V20 is Fig 4: adds Level 3 sensitive-attribute secrecy (MAC_{S,3} and
	// MAC_{O,3}), but Levels 2 and 3 remain distinguishable on the wire.
	V20 Version = 2
	// V30 is Fig 5: indistinguishability — QUE2 always carries both subject
	// MACs, Level 3 objects are double-faced.
	V30 Version = 3
)

// String implements fmt.Stringer.
func (v Version) String() string {
	switch v {
	case V10:
		return "v1.0"
	case V20:
		return "v2.0"
	case V30:
		return "v3.0"
	}
	return fmt.Sprintf("v?(%d)", byte(v))
}

// Valid reports whether v is a defined protocol version.
func (v Version) Valid() bool { return v == V10 || v == V20 || v == V30 }

// MsgType tags each wire message.
type MsgType byte

const (
	TQUE1 MsgType = 1
	TRES1 MsgType = 2
	TQUE2 MsgType = 3
	TRES2 MsgType = 4
)

// String implements fmt.Stringer.
func (t MsgType) String() string {
	switch t {
	case TQUE1:
		return "QUE1"
	case TRES1:
		return "RES1"
	case TQUE2:
		return "QUE2"
	case TRES2:
		return "RES2"
	}
	return fmt.Sprintf("MSG(%d)", byte(t))
}

// ResponseMode distinguishes the two RES1 bodies of the concurrent protocol:
// Level 1 objects answer with a plaintext signed profile; Level 2/3 objects
// answer with handshake material and wait for QUE2.
type ResponseMode byte

const (
	ModePublic ResponseMode = 1 // Level 1: plaintext PROF_O
	ModeSecure ResponseMode = 2 // Level 2/3: R_O, CERT_O, KEXM_O, SIG
	// ModeResume is the short RES1 of a Level 2/3 object that recognised the
	// subject by a QUE1 hint (DESIGN.md §15): R_O only. The ticket secret both
	// ends hold stands in for CERT_O, KEXM_O and SIG.
	ModeResume ResponseMode = 3
	// ModePublicKnown is the short RES1 of a Level 1 object to a subject it
	// already sent its current profile to (DESIGN.md §15): ProfileDigest of
	// PROF_O only. The profile the subject verified then stands in for it.
	ModePublicKnown ResponseMode = 4
)

// ProfileDigestSize is the length of a ModePublicKnown body, and
// KnownRES1Size the encoded length of a ModePublicKnown RES1.
const (
	ProfileDigestSize = 16
	KnownRES1Size     = 3 + 2 + ProfileDigestSize
)

// ProfileDigest returns the body of the ModePublicKnown RES1 that stands for
// a ModePublic one carrying prof: the first ProfileDigestSize bytes of
// SHA-256 over the PROF_O encoding.
func ProfileDigest(prof []byte) (d [ProfileDigestSize]byte) {
	sum := sha256.Sum256(prof)
	copy(d[:], sum[:])
	return d
}

// Message is implemented by all four wire messages.
type Message interface {
	// Type returns the message tag.
	Type() MsgType
	// Encode returns the wire bytes (self-describing: Type, Version, body).
	Encode() []byte
	// EncodedSize returns exactly len(Encode()) without encoding.
	EncodedSize() int
	// AppendTo appends the wire bytes to buf and returns the extended slice.
	// It is the zero-alloc seam under Encode: callers that own a buffer (a
	// pooled scratch, a batch frame) encode into it directly; Encode is a
	// thin wrapper allocating exactly EncodedSize. The bytes produced are
	// identical to Encode's — pinned by the golden-corpus equivalence test.
	AppendTo(buf []byte) []byte
}

// appendBytes16 appends a 2-byte big-endian length prefix followed by b —
// the append-style twin of enc.Writer.Bytes16, with the same >64 KiB panic.
func appendBytes16(dst, b []byte) []byte {
	if len(b) > 0xFFFF {
		panic(fmt.Sprintf("enc: field too long (%d bytes)", len(b)))
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(b)))
	return append(dst, b...)
}

// QUE1 is the broadcast discovery query (all levels): it carries the random
// R_S that objects use to detect duplicate queries and that salts the session
// keys.
type QUE1 struct {
	Version Version
	RS      []byte // NonceSize bytes
	// Hints, when set, makes this the hinted QUE1 of a subject that resumes
	// (DESIGN.md §15): HintBlockSize bytes, HintSlots tags of HintSize each,
	// one per object the subject holds a ticket for and random fill otherwise,
	// so neither the length nor any slot tells an outsider how many objects
	// the subject knows. Same tag; the high bit of the R_S length octet marks
	// it, as in the short QUE2.
	Hints []byte
}

// The hint block of a hinted QUE1 has one size whatever the subject knows.
// HintSize is suite.HintSize, which this package does not import: HasHint takes
// what suite.Hint returns, so the two cannot drift apart and still compile.
const (
	HintSize      = 8
	HintSlots     = 8
	HintBlockSize = HintSlots * HintSize
)

// que1Hinted flags the hinted form in QUE1's R_S length octet (R_S is 28 B).
const que1Hinted = 0x80

// Type implements Message.
func (m *QUE1) Type() MsgType { return TQUE1 }

// HasHint reports whether any slot of the hint block equals h, scanning every
// slot whatever it finds.
func (m *QUE1) HasHint(h [HintSize]byte) bool {
	found := 0
	for i := 0; i+HintSize <= len(m.Hints); i += HintSize {
		found |= subtle.ConstantTimeCompare(m.Hints[i:i+HintSize], h[:])
	}
	return found == 1
}

// EncodedSize implements Message.
func (m *QUE1) EncodedSize() int { return 3 + len(m.RS) + len(m.Hints) }

// AppendTo implements Message.
func (m *QUE1) AppendTo(buf []byte) []byte {
	n := byte(len(m.RS))
	if len(m.Hints) > 0 {
		n |= que1Hinted
	}
	buf = append(buf, byte(TQUE1), byte(m.Version), n)
	buf = append(buf, m.RS...)
	return append(buf, m.Hints...)
}

// Encode implements Message.
func (m *QUE1) Encode() []byte {
	return m.AppendTo(make([]byte, 0, m.EncodedSize()))
}

// RES1 is the per-object response to QUE1. Exactly one body is present,
// selected by Mode.
type RES1 struct {
	Version Version
	Mode    ResponseMode

	// ModePublic (Level 1): the plaintext admin-signed profile.
	Prof []byte
	// ModePublicKnown (Level 1): the ProfileDigest of that profile.
	ProfDigest []byte

	// ModeSecure (Level 2/3): object nonce, certificate, ephemeral ECDH
	// public value, and the object's signature over R_S ‖ R_O ‖ KEXM_O.
	// ModeResume: the object nonce alone.
	RO    []byte
	CertO []byte
	KEXMO []byte
	Sig   []byte
}

// Type implements Message.
func (m *RES1) Type() MsgType { return TRES1 }

// AppendSignedPart appends the bytes the object signs — R_S ‖ R_O ‖ KEXM_O
// (§V) — to dst; the zero-alloc form of SignedPart for scratch-buffer
// callers.
func (m *RES1) AppendSignedPart(dst, rs []byte) []byte {
	dst = append(dst, rs...)
	dst = append(dst, m.RO...)
	return append(dst, m.KEXMO...)
}

// SignedPart returns the bytes the object signs: m = R_S ‖ R_O ‖ KEXM_O (§V).
func (m *RES1) SignedPart(rs []byte) []byte {
	return m.AppendSignedPart(make([]byte, 0, len(rs)+len(m.RO)+len(m.KEXMO)), rs)
}

// EncodedSize implements Message.
func (m *RES1) EncodedSize() int {
	switch m.Mode {
	case ModePublic:
		return 3 + 2 + len(m.Prof)
	case ModeSecure:
		return 3 + 8 + len(m.RO) + len(m.CertO) + len(m.KEXMO) + len(m.Sig)
	case ModeResume:
		return 3 + 2 + len(m.RO)
	case ModePublicKnown:
		return 3 + 2 + len(m.ProfDigest)
	}
	return 3
}

// AppendTo implements Message.
func (m *RES1) AppendTo(buf []byte) []byte {
	buf = append(buf, byte(TRES1), byte(m.Version), byte(m.Mode))
	switch m.Mode {
	case ModePublic:
		buf = appendBytes16(buf, m.Prof)
	case ModeSecure:
		buf = appendBytes16(buf, m.RO)
		buf = appendBytes16(buf, m.CertO)
		buf = appendBytes16(buf, m.KEXMO)
		buf = appendBytes16(buf, m.Sig)
	case ModeResume:
		buf = appendBytes16(buf, m.RO)
	case ModePublicKnown:
		buf = appendBytes16(buf, m.ProfDigest)
	}
	return buf
}

// Encode implements Message.
func (m *RES1) Encode() []byte {
	return m.AppendTo(make([]byte, 0, m.EncodedSize()))
}

// QUE2 is the subject's second query, unicast to each Level 2/3 object found
// in phase 1. It carries the subject's profile, certificate and ephemeral
// ECDH value, a signature over the whole transcript so far, and the finished
// MACs.
type QUE2 struct {
	Version Version
	RS      []byte // echoes QUE1's R_S so the object can locate its session
	ProfS   []byte
	CertS   []byte
	KEXMS   []byte
	Sig     []byte // subject signature over "*" (transcript core, see Transcript)
	MACS2   []byte // MAC_{S,2} — always present
	// MACS3 is MAC_{S,3}: absent in v1.0; present in v2.0 only when the
	// subject performs Level 3 discovery (the distinguishability leak);
	// always present in v3.0 (cover-up keys make it universal, §VI-B).
	MACS3 []byte
	// Ticket, when set, makes this the short QUE2 of a resumed session
	// (DESIGN.md §15): it names a secret both ends derived from an earlier
	// handshake, and stands in for ProfS, CertS, KEXMS and Sig, which are
	// not encoded. Same tag; the high bit of the R_S length octet marks it.
	Ticket []byte
}

// que2Short flags the short form in QUE2's R_S length octet (R_S is 28 B).
const que2Short = 0x80

// Type implements Message.
func (m *QUE2) Type() MsgType { return TQUE2 }

// coreSize returns the encoded length of the signature-covered core fields.
func (m *QUE2) coreSize() int {
	if len(m.Ticket) > 0 {
		return 1 + len(m.RS) + 2 + len(m.Ticket)
	}
	return 1 + len(m.RS) + 6 + len(m.ProfS) + len(m.CertS) + len(m.KEXMS)
}

// appendCore appends the fields covered by the subject's signature — in the
// short form, which carries none, the fields the finished MACs cover.
func (m *QUE2) appendCore(buf []byte) []byte {
	if len(m.Ticket) > 0 {
		buf = append(buf, que2Short|byte(len(m.RS)))
		buf = append(buf, m.RS...)
		return appendBytes16(buf, m.Ticket)
	}
	buf = append(buf, byte(len(m.RS)))
	buf = append(buf, m.RS...)
	buf = appendBytes16(buf, m.ProfS)
	buf = appendBytes16(buf, m.CertS)
	return appendBytes16(buf, m.KEXMS)
}

// EncodedSize implements Message.
func (m *QUE2) EncodedSize() int {
	n := 2 + m.coreSize() + 2 + len(m.MACS2)
	if len(m.Ticket) == 0 {
		n += 2 + len(m.Sig)
	}
	if m.Version != V10 {
		n += 2 + len(m.MACS3)
	}
	return n
}

// AppendTo implements Message.
func (m *QUE2) AppendTo(buf []byte) []byte {
	buf = append(buf, byte(TQUE2), byte(m.Version))
	buf = m.appendCore(buf)
	if len(m.Ticket) == 0 {
		buf = appendBytes16(buf, m.Sig)
	}
	buf = appendBytes16(buf, m.MACS2)
	if m.Version != V10 {
		// v2.0 carries MAC_{S,3} only during Level 3 discovery; v3.0 always.
		buf = appendBytes16(buf, m.MACS3)
	}
	return buf
}

// Encode implements Message.
func (m *QUE2) Encode() []byte {
	return m.AppendTo(make([]byte, 0, m.EncodedSize()))
}

// RES2 is the object's final response: the encrypted profile variant and one
// finished MAC. Which key produced the MAC (K2 or K3) is invisible on the
// wire — the field layout is identical, which is what the v3.0
// indistinguishability argument rests on.
type RES2 struct {
	Version    Version
	Ciphertext []byte // [PROF_O] encrypted under K2 or K3
	MACO       []byte // MAC_{O,2} or MAC_{O,3}
}

// Type implements Message.
func (m *RES2) Type() MsgType { return TRES2 }

// Refusal reports whether this is the empty RES2 by which an object declines
// a resumption ticket: the subject then finishes the full handshake from the
// RES1 it holds. It is unauthenticated on purpose — the object has no key to
// sign it with, and a forged one only costs the subject the full handshake.
func (m *RES2) Refusal() bool { return len(m.Ciphertext) == 0 && len(m.MACO) == 0 }

// EncodedSize implements Message.
func (m *RES2) EncodedSize() int { return RES2Size(len(m.Ciphertext), len(m.MACO)) }

// RES2Size returns the encoded length of a RES2 with a ctLen-byte ciphertext
// and a macLen-byte MAC_O.
func RES2Size(ctLen, macLen int) int { return 2 + 4 + ctLen + macLen }

// AppendTo implements Message.
func (m *RES2) AppendTo(buf []byte) []byte {
	buf = append(buf, byte(TRES2), byte(m.Version))
	buf = appendBytes16(buf, m.Ciphertext)
	return appendBytes16(buf, m.MACO)
}

// Encode implements Message.
func (m *RES2) Encode() []byte {
	return m.AppendTo(make([]byte, 0, m.EncodedSize()))
}

// NewRES2Frame appends to buf the encoding of a RES2 with a ctLen-byte
// ciphertext and a macLen-byte MAC_O, everything written but those two fields,
// and returns it with the windows they go in. An object encrypts and MACs
// straight into its answer, so a buf with room for RES2Size bytes makes the
// answer cost no allocation of its own.
func NewRES2Frame(buf []byte, v Version, ctLen, macLen int) (frame, ct, mac []byte) {
	if ctLen > 0xFFFF || macLen > 0xFFFF {
		panic(fmt.Sprintf("enc: field too long (%d bytes)", max(ctLen, macLen)))
	}
	frame = slices.Grow(buf, RES2Size(ctLen, macLen))
	frame = append(frame, byte(TRES2), byte(v))
	frame = binary.BigEndian.AppendUint16(frame, uint16(ctLen))
	ctAt := len(frame)
	frame = binary.BigEndian.AppendUint16(frame[:ctAt+ctLen], uint16(macLen))
	macAt := len(frame)
	frame = frame[:macAt+macLen]
	return frame, frame[ctAt : ctAt+ctLen : ctAt+ctLen], frame[macAt : macAt+macLen : macAt+macLen]
}

// Decode parses any wire message into a fresh value: the form for tools and
// tests. The engines decode each frame into a value of their own with the
// type's DecodeFrom, which Decode dispatches to, so there is one parser. Its
// byte fields are slices of b, not copies: b must be immutable from here on —
// as every delivered payload is (transport.Handler) — and the message may be
// retained as long as b may.
func Decode(b []byte) (Message, error) {
	if len(b) < 2 {
		return nil, enc.ErrTruncated
	}
	var m interface {
		Message
		DecodeFrom(b []byte) error
	}
	switch MsgType(b[0]) {
	case TQUE1:
		m = new(QUE1)
	case TRES1:
		m = new(RES1)
	case TQUE2:
		m = new(QUE2)
	case TRES2:
		m = new(RES2)
	default:
		return nil, fmt.Errorf("wire: unknown message type %d", b[0])
	}
	if err := m.DecodeFrom(b); err != nil {
		return nil, err
	}
	return m, nil
}

// header checks a frame's length, version and type tag, and returns its
// version; the body starts at b[2:].
func header(b []byte, t MsgType) (Version, error) {
	if len(b) < 2 {
		return 0, enc.ErrTruncated
	}
	ver := Version(b[1])
	if !ver.Valid() {
		return 0, fmt.Errorf("wire: unknown version %d", b[1])
	}
	if MsgType(b[0]) != t {
		return 0, fmt.Errorf("wire: %v frame decoded as %v", MsgType(b[0]), t)
	}
	return ver, nil
}

// DecodeFrom parses a QUE1 frame into m, which it resets first: a value
// decoded into again keeps nothing of its last frame. Byte fields are windows
// on b, as with Decode. On error m holds no message.
func (m *QUE1) DecodeFrom(b []byte) error {
	*m = QUE1{}
	ver, err := header(b, TQUE1)
	if err != nil {
		return err
	}
	m.Version = ver
	r := enc.NewReader(b[2:])
	if n := r.U8(); n&que1Hinted != 0 {
		m.RS = r.View(int(n &^ que1Hinted))
		m.Hints = r.View(HintBlockSize)
	} else {
		m.RS = r.View(int(n))
	}
	if err := r.Done(); err != nil {
		return err
	}
	if len(m.RS) == 0 {
		return errQUE1NoRS
	}
	return nil
}

// DecodeFrom parses a RES1 frame into m, which it resets first (see
// QUE1.DecodeFrom).
func (m *RES1) DecodeFrom(b []byte) error {
	*m = RES1{}
	ver, err := header(b, TRES1)
	if err != nil {
		return err
	}
	m.Version = ver
	r := enc.NewReader(b[2:])
	m.Mode = ResponseMode(r.U8())
	switch m.Mode {
	case ModePublic:
		m.Prof = r.View16()
	case ModeSecure:
		m.RO = r.View16()
		m.CertO = r.View16()
		m.KEXMO = r.View16()
		m.Sig = r.View16()
	case ModeResume:
		m.RO = r.View16()
	case ModePublicKnown:
		m.ProfDigest = r.View16()
	default:
		return fmt.Errorf("wire: unknown RES1 mode %d", m.Mode)
	}
	return r.Done()
}

// DecodeFrom parses a QUE2 frame into m, which it resets first (see
// QUE1.DecodeFrom).
func (m *QUE2) DecodeFrom(b []byte) error {
	*m = QUE2{}
	ver, err := header(b, TQUE2)
	if err != nil {
		return err
	}
	m.Version = ver
	r := enc.NewReader(b[2:])
	if n := r.U8(); n&que2Short != 0 {
		m.RS = r.View(int(n &^ que2Short))
		if m.Ticket = r.View16(); len(m.Ticket) == 0 && r.Err() == nil {
			return errQUE2NoTicket
		}
	} else {
		m.RS = r.View(int(n))
		m.ProfS = r.View16()
		m.CertS = r.View16()
		m.KEXMS = r.View16()
		m.Sig = r.View16()
	}
	m.MACS2 = r.View16()
	if ver != V10 {
		m.MACS3 = r.View16()
	}
	return r.Done()
}

// DecodeFrom parses a RES2 frame into m, which it resets first (see
// QUE1.DecodeFrom).
func (m *RES2) DecodeFrom(b []byte) error {
	*m = RES2{}
	ver, err := header(b, TRES2)
	if err != nil {
		return err
	}
	m.Version = ver
	r := enc.NewReader(b[2:])
	m.Ciphertext = r.View16()
	m.MACO = r.View16()
	return r.Done()
}

var (
	errQUE1NoRS     = errors.New("wire: QUE1 missing R_S")
	errQUE2NoTicket = errors.New("wire: short QUE2 missing ticket")
)

// Transcript is "*": all the content sent and received so far, in order, on
// either side of a discovery session, as a running SHA-256. Both sides must
// feed the identical byte sequence to derive matching finished MACs. They
// hash at different cut points — MAC_{S,l} covers the transcript up to QUE2's
// signature, MAC_{O,l} additionally the finished MACs and the RES2 ciphertext
// — and the first cut is a prefix of the second: take Hash, keep adding, take
// it again, and no byte is hashed twice or kept.
//
// A Transcript is a plain value holding the digest in crypto/sha256's
// marshalled form (Add and Hash revive it in a pooled hasher): the zero value
// is the empty transcript, a copy is a fork, and there is nothing to release.
type Transcript struct {
	state [sha256StateLen]byte // all zero: nothing added yet
}

// sha256StateLen is the length of crypto/sha256's marshalled digest: magic,
// eight chaining words, one block of buffered input, the length.
const sha256StateLen = 4 + sha256.Size + sha256.BlockSize + 8

// hasher is a pooled SHA-256 with the buffer its interface calls read and
// write: staged there, a Transcript on a caller's stack stays on it.
type hasher struct {
	h     hash.Hash
	state [sha256StateLen]byte
}

var hasherPool = sync.Pool{New: func() any { return &hasher{h: sha256.New()} }}

// revive borrows a hasher holding t's digest.
func (t *Transcript) revive() *hasher {
	x := hasherPool.Get().(*hasher)
	if x.state = t.state; x.state[0] == 0 { // the marshalled form opens with a magic string
		x.h.Reset()
	} else if err := x.h.(encoding.BinaryUnmarshaler).UnmarshalBinary(x.state[:]); err != nil {
		panic("wire: transcript state: " + err.Error())
	}
	return x
}

// Add appends message bytes to the transcript, part by part.
func (t *Transcript) Add(parts ...[]byte) {
	x := t.revive()
	for _, p := range parts {
		x.h.Write(p)
	}
	state, err := x.h.(encoding.BinaryAppender).AppendBinary(x.state[:0])
	if err != nil || len(state) != len(t.state) || state[0] == 0 {
		panic("wire: crypto/sha256 marshals a state this package does not know")
	}
	t.state = x.state
	hasherPool.Put(x)
}

// Hash returns SHA-256 over the transcript so far, and leaves it open.
func (t *Transcript) Hash() (sum [sha256.Size]byte) {
	x := t.revive()
	copy(sum[:], x.h.Sum(x.state[:0]))
	hasherPool.Put(x)
	return sum
}

// SigInputSizeQUE2 returns exactly len(SigInputQUE2(que1Enc, res1Enc, q)).
func SigInputSizeQUE2(que1Enc, res1Enc []byte, q *QUE2) int {
	return len(que1Enc) + len(res1Enc) + q.coreSize()
}

// AppendSigInputQUE2 appends the QUE2 signature input to dst — the
// zero-alloc form of SigInputQUE2 for callers holding a scratch buffer.
func AppendSigInputQUE2(dst []byte, que1Enc, res1Enc []byte, q *QUE2) []byte {
	dst = append(dst, que1Enc...)
	dst = append(dst, res1Enc...)
	return q.appendCore(dst)
}

// SigInputQUE2 returns the bytes the subject signs in QUE2: the transcript so
// far (QUE1 ‖ RES1) followed by QUE2's core fields (PROF_S, CERT_S, KEXM_S) —
// "all the content sent and received so far" per §V.
func SigInputQUE2(que1Enc, res1Enc []byte, q *QUE2) []byte {
	return AppendSigInputQUE2(make([]byte, 0, SigInputSizeQUE2(que1Enc, res1Enc, q)), que1Enc, res1Enc, q)
}
