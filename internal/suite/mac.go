package suite

import (
	"crypto/sha256"
	"crypto/subtle"
	"encoding"
	"encoding/binary"
	"hash"
	"sync"
)

// Key is a key prepared for HMAC-SHA-256 (RFC 2104): the SHA-256 chaining
// values after absorbing key⊕ipad and after absorbing key⊕opad. A session key
// is used five or six times a side — MAC_{S,l}, MAC_{O,l}, the profile
// cipher's two keys, the next ticket — and every use of the raw key would
// absorb both pads again, two of the four SHA-256 compressions a short MAC
// costs. Prepared once, each MAC revives the two states instead, the way
// crypto/hmac does between Reset calls.
//
// The zero Key is no key. A Key is a plain value: a copy is a second holder of
// the secret, and Wipe is how a holder lets it go.
type Key struct {
	inner, outer [sha256.Size]byte
}

// Set prepares k from the concatenation of secret.
func (k *Key) Set(secret ...[]byte) {
	m := startMAC(secret...)
	*k = m.key
	m.h.Reset()
	m.release()
}

// Wipe zeroes the prepared key.
func (k *Key) Wipe() { *k = Key{} }

// macState is the one keyed-hash primitive behind the key schedule, the
// finished MACs, the resumption ticket and the profile cipher's tag:
// HMAC-SHA-256, byte for byte what crypto/hmac computes — the differential and
// fuzz tests pin it there — but over digest state that is reused instead of
// built per call. A MAC under a Key revives the key's inner state into the
// digest and, to finish, its outer state; a MAC under raw bytes (startMAC) is
// the one-shot use of the same path: it prepares the Key in the state first.
//
// Inputs that live on a caller's stack (labels, counter bytes, hashes passed
// by value) are staged through buf, so that handing them to the hash.Hash
// interface does not move them to the heap; a marshalled digest is staged
// through state the same way.
type macState struct {
	h     hash.Hash
	key   Key                    // the key the MAC runs under; zero between uses
	pad   [sha256.BlockSize]byte // key ⊕ pad while preparing; zero between uses
	buf   [sha256.Size]byte      // staging for small inputs, then the result
	state [digestStateLen]byte   // a marshalled digest; zero between uses
}

// digestStateLen is the length of crypto/sha256's marshalled digest: magic,
// eight chaining words, one block of buffered input, the length. A digest that
// has absorbed exactly one block marshals as the magic, its chaining value,
// an empty block and the length 64 — which is all a Key has to keep.
const (
	digestMagic    = "sha\x03"
	digestStateLen = len(digestMagic) + sha256.Size + sha256.BlockSize + 8
)

var macPool = sync.Pool{New: func() any { return &macState{h: sha256.New()} }}

// startMAC borrows a state and keys it with the concatenation of key, which
// may be m.buf of another state.
func startMAC(key ...[]byte) *macState {
	m := macPool.Get().(*macState)
	m.prepare(key...)
	return m
}

// start borrows a state keyed with k.
func (k *Key) start() *macState {
	m := macPool.Get().(*macState)
	m.key = *k
	m.revive(&m.key.inner)
	return m
}

// prepare sets m.key from the concatenation of key and leaves the digest in
// the inner state, ready to absorb the message. key may be m.buf: a derived
// key never has to leave the state. Keys longer than a block are hashed first
// (RFC 2104 §2), staged through pad like every key, so that a key in a
// caller's array stays where it is.
func (m *macState) prepare(key ...[]byte) {
	n := 0
	for _, k := range key {
		n += len(k)
	}
	if n > len(m.pad) {
		for _, k := range key {
			for len(k) > 0 {
				c := copy(m.pad[:], k)
				m.h.Write(m.pad[:c])
				k = k[c:]
			}
		}
		m.pad = [sha256.BlockSize]byte{}
		m.h.Sum(m.pad[:0])
		m.h.Reset()
	} else {
		n = 0
		for _, k := range key {
			n += copy(m.pad[n:], k)
		}
	}
	for i := range m.pad {
		m.pad[i] ^= 0x5c
	}
	m.h.Write(m.pad[:])
	m.key.outer = m.chain()
	m.h.Reset()
	for i := range m.pad {
		m.pad[i] ^= 0x5c ^ 0x36
	}
	m.h.Write(m.pad[:])
	m.key.inner = m.chain()
	m.pad = [sha256.BlockSize]byte{}
}

// chain returns the chaining value of a digest that has absorbed one block.
func (m *macState) chain() (cv [sha256.Size]byte) {
	st, err := m.h.(encoding.BinaryAppender).AppendBinary(m.state[:0])
	if err != nil || len(st) != digestStateLen || string(st[:len(digestMagic)]) != digestMagic {
		panic("suite: crypto/sha256 marshals a state this package does not know")
	}
	copy(cv[:], st[len(digestMagic):])
	m.state = [digestStateLen]byte{}
	return cv
}

// revive sets the digest to the state after one block whose chaining value
// is cv.
func (m *macState) revive(cv *[sha256.Size]byte) {
	copy(m.state[copy(m.state[:], digestMagic):], cv[:])
	binary.BigEndian.PutUint64(m.state[digestStateLen-8:], sha256.BlockSize)
	if err := m.h.(encoding.BinaryUnmarshaler).UnmarshalBinary(m.state[:]); err != nil {
		panic("suite: digest state: " + err.Error())
	}
	m.state = [digestStateLen]byte{}
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

// finish leaves the MAC in m.buf and a reset digest; the key stays in m.key
// until release.
func (m *macState) finish() {
	m.h.Sum(m.buf[:0])
	m.revive(&m.key.outer)
	m.h.Write(m.buf[:])
	m.h.Sum(m.buf[:0])
	m.h.Reset()
}

// release wipes the key and the result and hands the state back.
func (m *macState) release() {
	m.key = Key{}
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

// sumTo writes the MAC into out and releases the state.
func (m *macState) sumTo(out *[sha256.Size]byte) {
	m.finish()
	*out = m.buf
	m.release()
}

// equal reports in constant time whether mac is the MAC, and releases the
// state.
func (m *macState) equal(mac []byte) bool {
	m.finish()
	ok := subtle.ConstantTimeCompare(m.buf[:], mac) == 1
	m.release()
	return ok
}
