package suite

import "crypto/sha256"

// The ASCII labels bound into the key schedule and finished MACs, exactly as
// named in §V of the paper.
const (
	LabelSessionKey      = "session key"
	LabelSubjectFinished = "subject finished"
	LabelObjectFinished  = "object finished"
)

// Resumption labels (DESIGN.md §15; not in the paper): the key schedule of a
// repeat discovery between two ends that completed a handshake before.
const (
	LabelResumption = "resumption secret"
	LabelTicketID   = "resumption ticket"
	LabelHint       = "hint"
)

// TicketIDSize is the byte length of a resumption ticket id on the wire.
const TicketIDSize = 16

// HintSize is the byte length of one QUE1 hint tag.
const HintSize = 8

// PRF is the HMAC-based pseudorandom function HMAC(secret, seed) used
// throughout the key schedule (§V). The output is truncated or expanded to
// size bytes using an HKDF-expand-style counter construction; for the
// standard 32-byte outputs a single HMAC-SHA-256 invocation suffices.
func PRF(secret, seed []byte, size int) []byte {
	out := make([]byte, 0, (size+MACSize-1)/MACSize*MACSize)
	for ctr := byte(1); len(out) < size; ctr++ {
		m := startMAC(secret)
		m.write(out[max(0, len(out)-MACSize):])
		m.write(seed)
		m.writeByte(ctr)
		out = m.sum(out)
	}
	return out[:size]
}

// oneBlock absorbs what PRF(secret, label ‖ a ‖ b, KeySize) hashes, over a
// state keyed with the secret: the one-HMAC case of PRF, which every key of
// the schedule is, without assembling secret or seed.
func oneBlock(m *macState, label string, a, b []byte) *macState {
	m.writeString(label)
	m.write(a)
	m.write(b)
	m.writeByte(1)
	return m
}

// SessionKey2 derives Level 2's session key
//
//	K2 = HMAC(preK, "session key" ‖ R_S ‖ R_O)
//
// from the ECDH premaster secret and the two nonces (§V).
func SessionKey2(preK, rs, ro []byte) []byte {
	return oneBlock(startMAC(preK), LabelSessionKey, rs, ro).sum(nil)
}

// SessionKey2To is SessionKey2 writing K2 into the caller's array.
func SessionKey2To(k2 *[KeySize]byte, preK, rs, ro []byte) {
	oneBlock(startMAC(preK), LabelSessionKey, rs, ro).sumTo(k2)
}

// SessionKey2 derives the session key of a resumed session from the ticket
// secret k is prepared from, which stands in for the ECDH premaster:
//
//	K2′ = HMAC(secret, "session key" ‖ R_S ‖ R_O)
func (k *Key) SessionKey2(k2 *[KeySize]byte, rs, ro []byte) {
	oneBlock(k.start(), LabelSessionKey, rs, ro).sumTo(k2)
}

// SessionKey3 derives Level 3's session key
//
//	K3 = HMAC(K2 ‖ K_i^grp, "session key" ‖ R_S ‖ R_O)
//
// for secret group i (§VI-A). Only a fellow holding the same group key can
// derive the same K3.
func SessionKey3(k2, groupKey, rs, ro []byte) []byte {
	return oneBlock(startMAC(k2, groupKey), LabelSessionKey, rs, ro).sum(nil)
}

// SessionKey3To is SessionKey3 writing K3 into the caller's array.
func SessionKey3To(k3 *[KeySize]byte, k2, groupKey, rs, ro []byte) {
	oneBlock(startMAC(k2, groupKey), LabelSessionKey, rs, ro).sumTo(k3)
}

// ResumptionTicket derives what both ends of a completed handshake keep for
// the next one, with nothing extra on the wire:
//
//	secret = HMAC(K2, "resumption secret" ‖ SHA-256(transcript))
//	id     = SHA-256("resumption ticket" ‖ secret)[:16]
//
// The secret stands in for the ECDH premaster of the next session
// (K2′ = SessionKey2(secret, R_S, R_O)); the id names it in the short QUE2.
// Applied again to K2′ and the resumed session's transcript it is the ratchet:
// every step is one-way, so a secret read off a compromised device opens no
// earlier session, and the public id reveals nothing of the secret it hashes.
func ResumptionTicket(k2 []byte, transcriptHash [sha256.Size]byte) (secret []byte, id [TicketIDSize]byte) {
	m := finished(startMAC(k2), LabelResumption, transcriptHash)
	m.finish()
	id = ticketID(&m.buf)
	secret = append([]byte(nil), m.buf[:]...)
	m.release()
	return secret, id
}

// ResumptionTicket is ResumptionTicket under the prepared K2: it prepares the
// secret into the caller's Key and returns the id.
func (k *Key) ResumptionTicket(secret *Key, transcriptHash [sha256.Size]byte) (id [TicketIDSize]byte) {
	m := finished(k.start(), LabelResumption, transcriptHash)
	m.finish()
	id = ticketID(&m.buf)
	m.prepare(m.buf[:])
	*secret = m.key
	m.h.Reset()
	m.release()
	return id
}

// ticketID hashes a ticket secret into its public id.
func ticketID(secret *[KeySize]byte) (id [TicketIDSize]byte) {
	var in [len(LabelTicketID) + KeySize]byte
	copy(in[copy(in[:], LabelTicketID):], secret[:])
	sum := sha256.Sum256(in[:])
	copy(id[:], sum[:])
	return id
}

// Hint derives the tag by which a subject's QUE1 tells one object — and nobody
// else — that it holds their ticket:
//
//	hint = HMAC(secret, "hint" ‖ R_S)[:8]
//
// R_S is fresh per round and the secret ratchets per session, so no two hints
// of a pairing are alike, and without the secret a hint is random bytes.
func Hint(secret, rs []byte) [HintSize]byte {
	return hint(startMAC(secret), rs)
}

// Hint is Hint under the prepared ticket secret.
func (k *Key) Hint(rs []byte) [HintSize]byte {
	return hint(k.start(), rs)
}

func hint(m *macState, rs []byte) (h [HintSize]byte) {
	m.writeString(LabelHint)
	m.write(rs)
	m.finish()
	copy(h[:], m.buf[:])
	m.release()
	return h
}

// finished absorbs label ‖ transcriptHash into m.
func finished(m *macState, label string, transcriptHash [sha256.Size]byte) *macState {
	m.writeString(label)
	m.buf = transcriptHash
	m.write(m.buf[:])
	return m
}

// FinishedMAC computes a finished MAC
//
//	MAC_{X,l} = HMAC(K_l, label ‖ SHA-256(transcript))
//
// where label is LabelSubjectFinished or LabelObjectFinished and transcript
// is "*": all the content sent and received so far (§V).
func FinishedMAC(sessionKey []byte, label string, transcriptHash [sha256.Size]byte) []byte {
	return finished(startMAC(sessionKey), label, transcriptHash).sum(nil)
}

// VerifyMAC reports whether mac is the finished MAC for the given key, label
// and transcript hash, in constant time.
func VerifyMAC(sessionKey []byte, label string, transcriptHash [sha256.Size]byte, mac []byte) bool {
	return finished(startMAC(sessionKey), label, transcriptHash).equal(mac)
}

// FinishedMAC is FinishedMAC under the prepared session key, written into the
// caller's array.
func (k *Key) FinishedMAC(mac *[MACSize]byte, label string, transcriptHash [sha256.Size]byte) {
	finished(k.start(), label, transcriptHash).sumTo(mac)
}

// VerifyMAC is VerifyMAC under the prepared session key.
func (k *Key) VerifyMAC(label string, transcriptHash [sha256.Size]byte, mac []byte) bool {
	return finished(k.start(), label, transcriptHash).equal(mac)
}
