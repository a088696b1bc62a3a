package core

import (
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
// K2 runs as in a full handshake. Every engine with an enabled RetryPolicy
// resumes; the zero policy stays the paper's one-shot protocol.

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
type ticket struct {
	id     ticketID
	secret []byte
	peer   transport.Addr
	// The joint validity window of the credentials verified at minting
	// (peer CERT chain and PROF); a ratchet step carries it over unchanged,
	// so no chain of resumptions outlives it.
	notBefore, notAfter time.Time
	used                uint64 // table clock at filing, for eviction

	certO [32]byte // subject side: SHA-256 of the CERT_O bytes it was minted under

	subject cert.ID  // object side: the verified subject identity
	attrs   attr.Set // object side: the attributes of the verified PROF_S, for matchVariant
}

// valid reports whether now lies inside the ticket's validity window.
func (t *ticket) valid(now time.Time) bool {
	return !now.Before(t.notBefore) && !now.After(t.notAfter)
}

// minted returns the ticket for the next session of the pairing t describes,
// derived from the session key and transcript hash of the one that just
// completed. t itself is the binding (peer, credentials, window) and is not
// modified: after a full handshake it is a draft without secret, after a
// resumed session it is the ticket just used — the ratchet.
func (t *ticket) minted(k2 []byte, tsHash [32]byte) *ticket {
	next := *t
	next.secret, next.id = suite.ResumptionTicket(k2, tsHash)
	return &next
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

// ticketTable is a bounded map of tickets, nil until the first is filed. The
// subject keys it by object address, the object by ticket id. Event-loop
// only, except size.
type ticketTable[K comparable] struct {
	m     map[K]*ticket
	clock uint64
	n     atomic.Int64 // mirrors len(m) for cross-goroutine reads
}

// size returns the number of tickets held; safe from any goroutine.
func (tt *ticketTable[K]) size() int { return int(tt.n.Load()) }

func (tt *ticketTable[K]) get(k K) *ticket { return tt.m[k] }

// put files t under k, first evicting the longest-unused ticket if the table
// is full. The scan is linear, and paid only by a full handshake — a ratchet
// step replaces a ticket — that finds maxTickets other peers on file.
func (tt *ticketTable[K]) put(k K, t *ticket) {
	if tt.m == nil {
		tt.m = make(map[K]*ticket)
	}
	if _, replace := tt.m[k]; !replace && len(tt.m) >= maxTickets {
		var oldest K
		least := tt.clock + 1
		for key, cand := range tt.m {
			if cand.used < least {
				oldest, least = key, cand.used
			}
		}
		delete(tt.m, oldest)
	}
	tt.clock++
	t.used = tt.clock
	tt.m[k] = t
	tt.n.Store(int64(len(tt.m)))
}

func (tt *ticketTable[K]) drop(k K) {
	delete(tt.m, k)
	tt.n.Store(int64(len(tt.m)))
}

// flush forgets every ticket.
func (tt *ticketTable[K]) flush() {
	clear(tt.m)
	tt.n.Store(0)
}
