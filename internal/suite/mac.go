package suite

import (
	"crypto/sha256"
	"crypto/subtle"
	"hash"
	"sync"
)

// macState is the one keyed-hash primitive behind the key schedule, the
// finished MACs, the resumption ticket and the profile cipher's tag:
// HMAC-SHA-256 (RFC 2104), byte for byte what crypto/hmac computes — the
// differential and fuzz tests pin it there — but over digest state that is
// reused instead of built per call. A session computes some fifteen MACs, and
// hmac.New's two digests, two pads and marshalled states per call were a
// quarter of a session's allocated bytes.
//
// One digest serves both passes: Sum leaves the inner hash intact, so the same
// state is reset and fed the outer pad. Inputs that live on a caller's stack
// (labels, counter bytes, hashes passed by value) are staged through buf, so
// that handing them to the hash.Hash interface does not move them to the heap.
type macState struct {
	h   hash.Hash
	pad [sha256.BlockSize]byte // key ⊕ ipad while absorbing; zero between uses
	buf [sha256.Size]byte      // staging for small inputs, then the result
}

var macPool = sync.Pool{New: func() any { return &macState{h: sha256.New()} }}

// startMAC borrows a state and keys it with the concatenation of key.
func startMAC(key ...[]byte) *macState {
	m := macPool.Get().(*macState)
	m.rekey(key...)
	return m
}

// rekey starts a MAC under the concatenation of key, which may be m.buf: a
// derived key never has to leave the state. Keys longer than a block are
// hashed first (RFC 2104 §2).
func (m *macState) rekey(key ...[]byte) {
	n := 0
	for _, k := range key {
		n += len(k)
	}
	if n > len(m.pad) {
		for _, k := range key {
			m.h.Write(k)
		}
		m.h.Sum(m.pad[:0])
		m.h.Reset()
	} else {
		n = 0
		for _, k := range key {
			n += copy(m.pad[n:], k)
		}
	}
	for i := range m.pad {
		m.pad[i] ^= 0x36
	}
	m.h.Write(m.pad[:])
}

func (m *macState) write(p []byte) { m.h.Write(p) }

func (m *macState) writeString(s string) {
	for len(s) > 0 {
		n := copy(m.buf[:], s)
		m.h.Write(m.buf[:n])
		s = s[n:]
	}
}

func (m *macState) writeByte(b byte) {
	m.buf[0] = b
	m.h.Write(m.buf[:1])
}

// finish leaves the MAC in m.buf and nothing of the key anywhere else.
func (m *macState) finish() {
	inner := m.h.Sum(m.buf[:0])
	m.h.Reset()
	for i := range m.pad {
		m.pad[i] ^= 0x36 ^ 0x5c
	}
	m.h.Write(m.pad[:])
	m.h.Write(inner)
	m.h.Sum(m.buf[:0])
	m.h.Reset()
	m.pad = [sha256.BlockSize]byte{}
}

// release wipes the result and hands the state back.
func (m *macState) release() {
	m.buf = [sha256.Size]byte{}
	macPool.Put(m)
}

// sum appends the MAC to dst and releases the state.
func (m *macState) sum(dst []byte) []byte {
	m.finish()
	dst = append(dst, m.buf[:]...)
	m.release()
	return dst
}

// equal reports in constant time whether mac is the MAC, and releases the
// state.
func (m *macState) equal(mac []byte) bool {
	m.finish()
	ok := subtle.ConstantTimeCompare(m.buf[:], mac) == 1
	m.release()
	return ok
}
