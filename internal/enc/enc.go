// Package enc provides the small deterministic binary codec used by Argus
// credentials and wire messages: big-endian fixed-width integers and
// length-prefixed byte strings, with a reader that accumulates a single error
// so decoders can be written without per-field error checks.
package enc

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrTruncated is returned when a decoder runs past the end of input.
var ErrTruncated = errors.New("enc: truncated input")

// Writer builds a byte buffer of deterministically encoded fields.
type Writer struct {
	buf []byte
}

// NewWriter returns a Writer with capacity hint n.
func NewWriter(n int) *Writer { return &Writer{buf: make([]byte, 0, n)} }

// Bytes returns the encoded buffer.
func (w *Writer) Bytes() []byte { return w.buf }

// Len returns the number of bytes written so far.
func (w *Writer) Len() int { return len(w.buf) }

// U8 appends a single byte.
func (w *Writer) U8(v byte) { w.buf = append(w.buf, v) }

// U16 appends a big-endian uint16.
func (w *Writer) U16(v uint16) { w.buf = binary.BigEndian.AppendUint16(w.buf, v) }

// U32 appends a big-endian uint32.
func (w *Writer) U32(v uint32) { w.buf = binary.BigEndian.AppendUint32(w.buf, v) }

// U64 appends a big-endian uint64.
func (w *Writer) U64(v uint64) { w.buf = binary.BigEndian.AppendUint64(w.buf, v) }

// I64 appends a big-endian int64 (two's complement).
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// Raw appends b verbatim (fixed-width field; the reader must know the width).
func (w *Writer) Raw(b []byte) { w.buf = append(w.buf, b...) }

// Bytes16 appends a 2-byte length prefix followed by b. Panics if b exceeds
// 64 KiB — wire fields never do.
func (w *Writer) Bytes16(b []byte) {
	if len(b) > 0xFFFF {
		panic(fmt.Sprintf("enc: field too long (%d bytes)", len(b)))
	}
	w.U16(uint16(len(b)))
	w.Raw(b)
}

// Bytes32 appends a 4-byte length prefix followed by b.
func (w *Writer) Bytes32(b []byte) {
	if len(b) > 0x7FFFFFFF {
		panic("enc: field too long")
	}
	w.U32(uint32(len(b)))
	w.Raw(b)
}

// String16 appends a 2-byte length prefix followed by the string bytes.
func (w *Writer) String16(s string) { w.Bytes16([]byte(s)) }

// Reader decodes fields written by Writer. The first decoding error sticks;
// check Err (or use Done) after reading all fields.
type Reader struct {
	buf []byte
	pos int
	err error
}

// NewReader wraps b for decoding.
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// Err returns the first error encountered, if any.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.pos }

// Done returns an error if decoding failed or input remains unconsumed.
func (r *Reader) Done() error {
	if r.err != nil {
		return r.err
	}
	if r.pos != len(r.buf) {
		return fmt.Errorf("enc: %d trailing bytes", len(r.buf)-r.pos)
	}
	return nil
}

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.pos+n > len(r.buf) {
		r.err = ErrTruncated
		return nil
	}
	out := r.buf[r.pos : r.pos+n]
	r.pos += n
	return out
}

// U8 reads one byte.
func (r *Reader) U8() byte {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U16 reads a big-endian uint16.
func (r *Reader) U16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

// U32 reads a big-endian uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

// U64 reads a big-endian uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// I64 reads a big-endian int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// Raw reads exactly n bytes (a fixed-width field). The returned slice is a
// copy and safe to retain.
func (r *Reader) Raw(n int) []byte {
	b := r.take(n)
	if b == nil {
		return nil
	}
	return append([]byte(nil), b...)
}

// View reads exactly n bytes like Raw, but returns a slice of the input
// instead of a copy (nil for n == 0, as Raw does): for decoders whose input
// is immutable and may be retained. Its capacity ends with the field, so an
// append to it cannot reach the bytes that follow.
func (r *Reader) View(n int) []byte {
	b := r.take(n)
	if len(b) == 0 {
		return nil
	}
	return b[:n:n]
}

// Bytes16 reads a 2-byte length-prefixed byte string (copied).
func (r *Reader) Bytes16() []byte {
	n := int(r.U16())
	return r.Raw(n)
}

// View16 reads a 2-byte length-prefixed byte string as a View.
func (r *Reader) View16() []byte {
	n := int(r.U16())
	return r.View(n)
}

// Bytes32 reads a 4-byte length-prefixed byte string (copied).
func (r *Reader) Bytes32() []byte {
	n := int(r.U32())
	return r.Raw(n)
}

// String16 reads a 2-byte length-prefixed string.
func (r *Reader) String16() string { return string(r.Bytes16()) }
