package suite

import (
	"crypto/hmac"
	"crypto/sha256"
)

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
)

// TicketIDSize is the byte length of a resumption ticket id on the wire.
const TicketIDSize = 16

// PRF is the HMAC-based pseudorandom function HMAC(secret, seed) used
// throughout the key schedule (§V). The output is truncated or expanded to
// size bytes using an HKDF-expand-style counter construction; for the
// standard 32-byte outputs a single HMAC-SHA-256 invocation suffices.
func PRF(secret, seed []byte, size int) []byte {
	out := make([]byte, 0, size)
	var block []byte
	ctr := byte(1)
	for len(out) < size {
		m := hmac.New(sha256.New, secret)
		m.Write(block)
		m.Write(seed)
		m.Write([]byte{ctr})
		block = m.Sum(nil)
		out = append(out, block...)
		ctr++
	}
	return out[:size]
}

// SessionKey2 derives Level 2's session key
//
//	K2 = HMAC(preK, "session key" ‖ R_S ‖ R_O)
//
// from the ECDH premaster secret and the two nonces (§V).
func SessionKey2(preK, rs, ro []byte) []byte {
	seed := make([]byte, 0, len(LabelSessionKey)+len(rs)+len(ro))
	seed = append(seed, LabelSessionKey...)
	seed = append(seed, rs...)
	seed = append(seed, ro...)
	return PRF(preK, seed, KeySize)
}

// SessionKey3 derives Level 3's session key
//
//	K3 = HMAC(K2 ‖ K_i^grp, "session key" ‖ R_S ‖ R_O)
//
// for secret group i (§VI-A). Only a fellow holding the same group key can
// derive the same K3.
func SessionKey3(k2, groupKey, rs, ro []byte) []byte {
	secret := make([]byte, 0, len(k2)+len(groupKey))
	secret = append(secret, k2...)
	secret = append(secret, groupKey...)
	seed := make([]byte, 0, len(LabelSessionKey)+len(rs)+len(ro))
	seed = append(seed, LabelSessionKey...)
	seed = append(seed, rs...)
	seed = append(seed, ro...)
	return PRF(secret, seed, KeySize)
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
	secret = FinishedMAC(k2, LabelResumption, transcriptHash)
	var in [len(LabelTicketID) + sha256.Size]byte
	copy(in[copy(in[:], LabelTicketID):], secret)
	sum := sha256.Sum256(in[:])
	copy(id[:], sum[:])
	return secret, id
}

// FinishedMAC computes a finished MAC
//
//	MAC_{X,l} = HMAC(K_l, label ‖ SHA-256(transcript))
//
// where label is LabelSubjectFinished or LabelObjectFinished and transcript
// is "*": all the content sent and received so far (§V).
func FinishedMAC(sessionKey []byte, label string, transcriptHash [sha256.Size]byte) []byte {
	m := hmac.New(sha256.New, sessionKey)
	m.Write([]byte(label))
	m.Write(transcriptHash[:])
	return m.Sum(nil)
}

// VerifyMAC reports whether mac is the finished MAC for the given key, label
// and transcript hash, in constant time.
func VerifyMAC(sessionKey []byte, label string, transcriptHash [sha256.Size]byte, mac []byte) bool {
	want := FinishedMAC(sessionKey, label, transcriptHash)
	return hmac.Equal(want, mac)
}
