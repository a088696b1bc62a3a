package transport

// SlabChunk is the size of the chunks a Slab carves frames from.
const SlabChunk = 4 << 10

// slabAlone is the largest frame a Slab carves from a chunk; a larger one (a
// first-contact RES1 or QUE2 with its certificate) is allocated alone, so that
// one such frame kept for a session never pins a whole chunk.
const slabAlone = SlabChunk / 8

// Slab hands out frame buffers carved from chunks of SlabChunk bytes, so that
// a frame costs no allocation of its own. A carved frame is a closed window on
// its chunk: appending past it reallocates, and no later frame overlaps it. A
// chunk is never reused or written again once its frames are handed out; it
// is garbage when nothing references any of them. So a carved frame may be
// retained and shared as freely as one allocated alone, which is what Send's
// contract (never a pooled buffer) and Handler's (immutable, may be retained)
// ask. The zero Slab is ready and holds no chunk until its first frame. It
// belongs to one goroutine: an engine's event loop, or a UDP read loop.
type Slab struct {
	rest []byte // the current chunk's untaken tail, len == cap
}

// Take returns an empty buffer with room for exactly n bytes, for the caller
// to append the frame into: wire's AppendTo of a message of EncodedSize n.
func (s *Slab) Take(n int) []byte {
	if n > slabAlone {
		return make([]byte, 0, n)
	}
	if len(s.rest) < n {
		s.rest = make([]byte, SlabChunk)
	}
	b := s.rest[:0:n]
	s.rest = s.rest[n:]
	return b
}
