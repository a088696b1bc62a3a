// Package core implements the Argus 3-in-1 discovery protocol — the paper's
// primary contribution: concurrent service discovery at three visibility
// levels (public, differentiated, covert), in the three iterations the paper
// develops:
//
//   - v1.0 (Fig 3): Level 1 + Level 2. A 4-way handshake (QUE1, RES1, QUE2,
//     RES2) embedding profile exchange: mutual ECDSA authentication,
//     ephemeral ECDH, session key K2, differentiated PROF variants selected
//     by predicates over the subject's non-sensitive attributes.
//   - v2.0 (Fig 4): adds Level 3 sensitive-attribute secrecy. Fellows prove
//     possession of a shared secret-group key through MAC_{S,3}/MAC_{O,3}
//     under K3 = HMAC(K2‖K_grp, ...). Level 3 traffic remains
//     distinguishable from Level 2 — the weakness v3.0 closes.
//   - v3.0 (Fig 5): indistinguishability. Every QUE2 carries both subject
//     MACs (cover-up keys make that possible for subjects with no sensitive
//     attribute); Level 3 objects are double-faced, answering fellows under
//     K3 and everyone else under K2 with byte-identical message shapes,
//     constant ciphertext lengths and equalized response times.
//
// Engines run real cryptography (internal/suite) and inject *modeled*
// computation time into the simulator's virtual clock through a Costs table,
// reproducing the phone/Pi asymmetry of the paper's testbed.
//
// # Concurrency contract
//
// An engine is single-writer: all message handling, session mutation and
// timer callbacks happen on one goroutine — the engine's event loop, owned by
// the transport.Endpoint the engine is bound to. For the netsim adapter that
// loop is the goroutine driving netsim.Network.Run; for the concurrent
// transports (Mesh, UDP) it is the endpoint's actor goroutine, which drains a
// mailbox of inbound frames, timer callbacks and Do closures strictly
// sequentially. Either way the engine itself never needs locks: Handle,
// Refresh, Revoke, NextGroup and the timer callbacks all execute on that one
// goroutine. Code outside the loop mutates engine state only by submitting a
// closure through Endpoint.Do.
//
// Exactly three read paths are safe from other goroutines while the loop
// runs, because telemetry consumers (the obs HTTP handler, progress
// reporters) poll them live: Results and PendingSessions on both engine
// kinds, and the obs registry itself. Results copies under an internal
// mutex; PendingSessions reads an atomic mirror of the session-table size
// that the event loop republishes after every mutation. Everything else is
// loop-private and intentionally unsynchronized — the -race tests
// TestConcurrentResultsReaders and TestMeshDiscoveryRace enforce exactly
// this boundary.
package core

import (
	"time"

	"argus/internal/backend"
	"argus/internal/cert"
	"argus/internal/suite"
	"argus/internal/transport"
	"argus/internal/wire"
)

// Level re-exports the backend's visibility level for API convenience.
type Level = backend.Level

// Visibility levels.
const (
	L1 = backend.L1
	L2 = backend.L2
	L3 = backend.L3
)

// Costs models the virtual compute time of each cryptographic operation on a
// device class. The zero value charges nothing (instant compute), which is
// what unit tests use; the exp package provides calibrated tables for the
// subject device (phone) and objects (Pi) matching Fig 6(a)/(b).
type Costs struct {
	Sign      time.Duration // ECDSA signature generation
	Verify    time.Duration // ECDSA verification (CERT, SIG, PROF)
	KexGen    time.Duration // ephemeral ECDH parameter generation
	KexShared time.Duration // ECDH shared-secret computation
	HMAC      time.Duration // one HMAC generation or verification
	Cipher    time.Duration // one AES profile encryption or decryption
}

// Discovery is one successfully discovered service.
type Discovery struct {
	// Object identifies the discovered device.
	Object cert.ID
	// Node is the object's transport address: the simulator node's decimal
	// ID under the netsim adapter, a mesh or UDP address otherwise. The type
	// is transport-neutral so results never leak simulator details.
	Node transport.Addr
	// Level is the visibility level the service was discovered at, as
	// perceived by the subject: L1 for public profiles, L2 when RES2
	// verified under K2, L3 when it verified under K3. (A Level 3 object
	// answering its Level 2 face is — correctly — reported as L2.)
	Level Level
	// Group is the secret group the covert service was found through
	// (0 unless Level == L3).
	Group uint64
	// Profile is the verified service information. Discoveries of a profile
	// that has not changed may share it: read-only.
	Profile *cert.Profile
	// At is the virtual time the discovery completed.
	At time.Duration
	// Round is the subject's discovery round that produced this result.
	Round int
}

// sessionKey identifies an in-progress handshake: the peer's transport
// address plus the subject nonce, so concurrent discoveries by different
// subjects (or rounds) never collide.
type sessionKey struct {
	peer transport.Addr
	rs   [suite.NonceSize]byte
}

func mkSessionKey(peer transport.Addr, rs []byte) sessionKey {
	var k sessionKey
	k.peer = peer
	copy(k.rs[:], rs)
	return k
}

// freeListCap bounds every free list: about what one busy round hands back.
// A burst's surplus goes to the collector, so an idle engine holds no more
// than this many spare records of each kind.
const freeListCap = 16

// freeList is an engine's stack of records nothing references any more —
// session records and Level 1 answers — for the next one to reuse instead of
// allocating. put zeroes the record, keys included, so neither state nor key
// material crosses from one session to the next. The list starts empty, so a
// new engine holds nothing it has not used. Event-loop only, like the
// records it holds.
type freeList[T any] struct{ recs []*T }

// get returns a zero record: a reused one if the list holds any.
func (l *freeList[T]) get() *T {
	n := len(l.recs)
	if n == 0 {
		return new(T)
	}
	r := l.recs[n-1]
	l.recs[n-1] = nil
	l.recs = l.recs[:n-1]
	return r
}

// put zeroes r and keeps it for the next get, unless the list is full. The
// caller must hold the last reference to r.
func (l *freeList[T]) put(r *T) {
	var zero T
	*r = zero
	if l.recs == nil {
		l.recs = make([]*T, 0, freeListCap)
	}
	if len(l.recs) < freeListCap {
		l.recs = append(l.recs, r)
	}
}

// transcriptOHash extends the subject's transcript cut — QUE1 ‖ RES1 ‖ QUE2
// core fields ‖ subject signature (§V) — with the finished MACs of QUE2 and
// the RES2 ciphertext, "*" when the object finishes, and hashes that. ts is a
// copy: the caller's cut stays put, so a subject whose RES2 turns out
// corrupted evaluates the retransmission from the same state.
func transcriptOHash(ts wire.Transcript, q *wire.QUE2, ciphertext []byte) [32]byte {
	ts.Add(q.MACS2, q.MACS3, ciphertext)
	return ts.Hash()
}
