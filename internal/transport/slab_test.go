package transport

import (
	"bytes"
	"testing"
	"unsafe"
)

// span is the address range a slice's capacity covers.
func span(b []byte) (lo, hi uintptr) {
	lo = uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	return lo, lo + uintptr(cap(b))
}

// overlaps reports whether the capacities of a and b share a byte.
func overlaps(a, b []byte) bool {
	alo, ahi := span(a)
	blo, bhi := span(b)
	return alo < bhi && blo < ahi
}

// TestSlabTakesNeverOverlap: frames of every carved size, through several
// chunks, each filled as it is taken. No later take overlaps an earlier frame
// and every frame still holds what was written into it; appending past a
// handed-out frame reallocates instead of writing into the next one.
func TestSlabTakesNeverOverlap(t *testing.T) {
	var s Slab
	var frames [][]byte
	for i := 0; len(frames) < 3*SlabChunk/16; i++ {
		n := 1 + i%slabAlone
		f := s.Take(n)
		if len(f) != 0 || cap(f) != n {
			t.Fatalf("Take(%d) has len %d, cap %d", n, len(f), cap(f))
		}
		for _, g := range frames {
			if overlaps(f, g) {
				t.Fatalf("take %d (%d B) overlaps an earlier frame", len(frames), n)
			}
		}
		frames = append(frames, append(f, bytes.Repeat([]byte{byte(len(frames))}, n)...))
	}
	for i, f := range frames {
		if !bytes.Equal(f, bytes.Repeat([]byte{byte(i)}, len(f))) {
			t.Fatalf("frame %d was written after it was handed out", i)
		}
	}

	a := s.Take(8)
	a = append(a, "12345678"...)
	next := s.Take(8)
	next = append(next, "abcdefgh"...)
	grown := append(a, '9')
	if overlaps(grown, next) || string(next) != "abcdefgh" || string(a) != "12345678" {
		t.Fatalf("appending to a frame wrote into its neighbour: %q, %q", a, next)
	}
}

// TestSlabOversizeAllocatedAlone: a frame larger than slabAlone is allocated
// on its own, and the chunk carries on where it left off, so a retained
// first-contact frame never pins a chunk.
func TestSlabOversizeAllocatedAlone(t *testing.T) {
	var s Slab
	if s.rest != nil {
		t.Fatal("the zero Slab holds a chunk")
	}
	small := s.Take(16)
	chunk := s.rest
	big := s.Take(slabAlone + 1)
	if cap(big) != slabAlone+1 || overlaps(big, small) || overlaps(big, chunk) {
		t.Fatal("an oversize frame was carved from the chunk")
	}
	after := s.Take(16)
	if _, hi := span(small); uintptr(unsafe.Pointer(unsafe.SliceData(after))) != hi {
		t.Fatal("the chunk did not carry on after an oversize frame")
	}
	if top := s.Take(slabAlone); cap(top) != slabAlone || !overlaps(top, chunk) {
		t.Fatal("a frame of exactly slabAlone bytes was not carved")
	}
}

// TestSlabTakeAllocatesPerChunk: carving frames allocates one chunk per
// SlabChunk bytes taken, and nothing per frame.
func TestSlabTakeAllocatesPerChunk(t *testing.T) {
	var s Slab
	const frame = 128
	allocs := testing.AllocsPerRun(10, func() {
		for i := 0; i < SlabChunk/frame; i++ {
			s.Take(frame)
		}
	})
	if allocs != 1 {
		t.Fatalf("a chunk's worth of frames allocates %v times, want 1", allocs)
	}
}
