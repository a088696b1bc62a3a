package wire

import "sync"

// Scratch buffers for the encode hot path. One discovery session assembles
// several transient byte strings — signature inputs, the transcript prefix a
// QUE2 is hashed with — that live for a single handler call and then die. At
// load (20k concurrent sessions) those transients dominated the allocation
// profile, so the engines borrow them here instead of allocating.
//
// Contract: a buffer obtained from GetScratch is returned with length 0 and
// must not be retained after PutScratch. Never put a buffer that anything
// still aliases (cached encodings, a frame handed to Send); the pool is only
// for bytes whose lifetime provably ends inside one event-loop call.

// scratchCap is the default capacity of a pooled buffer: comfortably above
// the largest per-session transient at 128-bit strength (QUE2 signature
// input ≈ 1.8 KiB).
const scratchCap = 4096

// A pooled buffer travels in a *[]byte holder; the holder of a borrowed one
// waits in holderPool for the next put, instead of being boxed anew.
var (
	scratchPool = sync.Pool{
		New: func() any {
			b := make([]byte, 0, scratchCap)
			return &b
		},
	}
	holderPool = sync.Pool{New: func() any { return new([]byte) }}
)

// GetScratch borrows a zero-length scratch buffer from the pool. Append to
// it freely; the result of appends may be a different slice, and that is the
// one to hand back.
func GetScratch() []byte {
	h := scratchPool.Get().(*[]byte)
	b := (*h)[:0]
	*h = nil
	holderPool.Put(h)
	return b
}

// PutScratch returns a scratch buffer to the pool. Buffers that grew beyond
// 64 KiB are dropped so one pathological message cannot pin memory forever.
func PutScratch(b []byte) {
	if cap(b) == 0 || cap(b) > 1<<16 {
		return
	}
	h := holderPool.Get().(*[]byte)
	*h = b[:0]
	scratchPool.Put(h)
}
