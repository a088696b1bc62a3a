package core

import (
	"crypto/rand"
	"sync/atomic"
	"time"

	"argus/internal/attr"
	"argus/internal/cert"
	"argus/internal/suite"
	"argus/internal/transport"
)

// Session resumption (DESIGN.md §15). Two ends that completed a Level 2/3
// handshake each derive a ticket from K2 and the transcript hash; the next
// discovery between them replaces both signatures, both verifications and
// both ECDH pairs by K2′ = PRF(secret, R_S‖R_O), and everything downstream of
// K2 runs as in a full handshake. The subject's QUE1 says which tickets it
// holds in a block of hints only their objects can read, and an object that
// finds its own answers with the short RES1 — a nonce — instead of generating
// a key and signing for a peer that will look at neither. Every engine with
// an enabled RetryPolicy resumes; the zero policy stays the paper's one-shot
// protocol.

// maxTickets bounds each engine's ticket table, like maxPendingSessions bounds
// its session table: the §VIII scale of one category (10³ peers). Past it the
// longest-unused ticket goes, and its peer pays one full handshake.
const maxTickets = 1024

// ticketID is the public handle of a ticket, carried by the short QUE2.
type ticketID = [suite.TicketIDSize]byte

// ticket is one end's record of a resumable pairing: the ratcheting secret
// plus everything the skipped credential checks had established, so a resumed
// session is bound to the same peer, the same credentials and the same
// validity window as the handshake that minted it.
//
// The subject side also keeps the PROF_O it admin-verified when the chain of
// tickets began: the SHA-256 of its plaintext and the decoded profile. A
// resumed RES2 whose MAC_O verified and whose plaintext hashes to profO, inside
// the profile's window, is that profile, and is not verified again
// (boundProfile); any other plaintext is verified and then bound to the next
// ticket in its place.
type ticket struct {
	id     ticketID
	secret suite.Key // zero in a binding (a session's copy): only a filed ticket holds one
	// The joint validity window of the credentials verified at minting
	// (peer CERT chain and PROF); a ratchet step carries it over unchanged,
	// so no chain of resumptions outlives it.
	notBefore, notAfter time.Time
	used                uint64 // table clock at filing, for eviction

	certO  [32]byte      // subject side: SHA-256 of the CERT_O bytes it was minted under
	profO  [32]byte      // subject side: SHA-256 of the PROF_O plaintext verified at minting
	prof   *cert.Profile // subject side: that PROF_O, decoded (shared, read-only)
	hinted int           // subject side: the last round whose QUE1 carried a hint under it

	subject cert.ID  // object side: the verified subject identity
	attrs   attr.Set // object side: the attributes of the verified PROF_S, for matchVariant
}

// valid reports whether now lies inside the ticket's validity window.
func (t *ticket) valid(now time.Time) bool {
	return !now.Before(t.notBefore) && !now.After(t.notAfter)
}

// boundProfile returns the PROF_O the ticket is bound to if digest is the
// SHA-256 of its plaintext and now lies inside its window, nil otherwise.
func (t *ticket) boundProfile(digest [32]byte, now time.Time) *cert.Profile {
	if t.prof == nil || digest != t.profO {
		return nil
	}
	if nb, na := t.prof.Window(); now.Before(nb) || now.After(na) {
		return nil
	}
	return t.prof
}

// binding returns what a session keeps of t: everything but the secret.
func (t *ticket) binding() ticket {
	b := *t
	b.secret = suite.Key{}
	return b
}

// narrowTo intersects the ticket's window with [nb, na].
func (t *ticket) narrowTo(nb, na time.Time) {
	if nb.After(t.notBefore) {
		t.notBefore = nb
	}
	if na.Before(t.notAfter) {
		t.notAfter = na
	}
}

// decoyTicket is a ticket no object holds. A subject answers with it a short
// RES1 it has no ticket for any more (its own Refresh or an eviction overtook
// the round): the short QUE2 it yields matches nothing, which is what makes
// the object fall back to the signed RES1.
func decoyTicket() *ticket {
	var secret [suite.KeySize]byte
	rand.Read(secret[:])
	t := &ticket{}
	t.secret.Set(secret[:])
	rand.Read(t.id[:])
	return t
}

// ticketTable is a bounded map of tickets by peer address, nil until the first
// is filed. Event-loop only, except size.
type ticketTable struct {
	m     map[transport.Addr]*ticket
	clock uint64
	n     atomic.Int64 // mirrors len(m) for cross-goroutine reads
}

// size returns the number of tickets held; safe from any goroutine.
func (tt *ticketTable) size() int { return int(tt.n.Load()) }

func (tt *ticketTable) get(k transport.Addr) *ticket { return tt.m[k] }

// mint files under k the ticket for the next session of the pairing binding
// describes, derived from the session key and transcript hash of the one that
// just completed, and returns it. binding (peer, credentials, window) is a
// draft after a full handshake and the ticket just used after a resumed
// session — the ratchet. Both ends file under the peer's address, so a
// pairing holds one ticket at a time, and a ratchet step overwrites the one
// on file in place, its secret included. A new peer first evicts the
// longest-unused ticket if the table is full: the scan is linear, and paid
// only by a full handshake that finds maxTickets other peers on file.
func (tt *ticketTable) mint(k transport.Addr, binding *ticket, k2 *suite.Key, tsHash [32]byte) *ticket {
	if tt.m == nil {
		tt.m = make(map[transport.Addr]*ticket)
	}
	t := tt.m[k]
	if t == nil {
		if len(tt.m) >= maxTickets {
			var oldest transport.Addr
			least := tt.clock + 1
			for key, cand := range tt.m {
				if cand.used < least {
					oldest, least = key, cand.used
				}
			}
			tt.drop(oldest)
		}
		t = new(ticket)
		tt.m[k] = t
		tt.n.Store(int64(len(tt.m)))
	}
	*t = *binding
	t.id = k2.ResumptionTicket(&t.secret, tsHash)
	tt.clock++
	t.used = tt.clock
	return t
}

// drop forgets the ticket filed under k and wipes its secret.
func (tt *ticketTable) drop(k transport.Addr) {
	if t := tt.m[k]; t != nil {
		t.secret.Wipe()
		delete(tt.m, k)
		tt.n.Store(int64(len(tt.m)))
	}
}

// recent returns the (at most) len(buf) most recently filed tickets whose
// window holds now, newest first, in buf.
func (tt *ticketTable) recent(buf []*ticket, now time.Time) []*ticket {
	out := buf[:0]
	for _, t := range tt.m {
		if !t.valid(now) {
			continue
		}
		i := len(out)
		if i < len(buf) {
			out = out[:i+1]
		} else if i--; out[i].used > t.used {
			continue
		}
		for ; i > 0 && out[i-1].used < t.used; i-- {
			out[i] = out[i-1]
		}
		out[i] = t
	}
	return out
}

// flush forgets every ticket and wipes every secret.
func (tt *ticketTable) flush() {
	for _, t := range tt.m {
		t.secret.Wipe()
	}
	clear(tt.m)
	tt.n.Store(0)
}
