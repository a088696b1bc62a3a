package enc

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestScalarRoundTrip(t *testing.T) {
	w := NewWriter(64)
	w.U8(0xAB)
	w.U16(0xBEEF)
	w.U32(0xDEADBEEF)
	w.U64(0x0123456789ABCDEF)
	w.I64(-42)

	r := NewReader(w.Bytes())
	if got := r.U8(); got != 0xAB {
		t.Errorf("U8 = %x", got)
	}
	if got := r.U16(); got != 0xBEEF {
		t.Errorf("U16 = %x", got)
	}
	if got := r.U32(); got != 0xDEADBEEF {
		t.Errorf("U32 = %x", got)
	}
	if got := r.U64(); got != 0x0123456789ABCDEF {
		t.Errorf("U64 = %x", got)
	}
	if got := r.I64(); got != -42 {
		t.Errorf("I64 = %d", got)
	}
	if err := r.Done(); err != nil {
		t.Errorf("Done: %v", err)
	}
}

func TestBytesAndStrings(t *testing.T) {
	w := NewWriter(0)
	w.Bytes16([]byte("alpha"))
	w.Bytes32([]byte("beta"))
	w.String16("gamma")
	w.Raw([]byte{1, 2, 3})

	r := NewReader(w.Bytes())
	if got := r.Bytes16(); !bytes.Equal(got, []byte("alpha")) {
		t.Errorf("Bytes16 = %q", got)
	}
	if got := r.Bytes32(); !bytes.Equal(got, []byte("beta")) {
		t.Errorf("Bytes32 = %q", got)
	}
	if got := r.String16(); got != "gamma" {
		t.Errorf("String16 = %q", got)
	}
	if got := r.Raw(3); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Errorf("Raw = %v", got)
	}
	if err := r.Done(); err != nil {
		t.Errorf("Done: %v", err)
	}
}

func TestEmptyFields(t *testing.T) {
	w := NewWriter(0)
	w.Bytes16(nil)
	w.String16("")
	r := NewReader(w.Bytes())
	if got := r.Bytes16(); len(got) != 0 {
		t.Errorf("empty Bytes16 = %v", got)
	}
	if got := r.String16(); got != "" {
		t.Errorf("empty String16 = %q", got)
	}
	if err := r.Done(); err != nil {
		t.Error(err)
	}
}

func TestTruncationSticksAsError(t *testing.T) {
	w := NewWriter(0)
	w.U32(7)
	r := NewReader(w.Bytes()[:2])
	if r.U32() != 0 {
		t.Error("truncated U32 returned data")
	}
	if r.Err() != ErrTruncated {
		t.Errorf("Err = %v", r.Err())
	}
	// Subsequent reads stay zero and do not panic.
	if r.U64() != 0 || r.U8() != 0 || r.Bytes16() != nil {
		t.Error("reads after error returned data")
	}
	if r.Done() != ErrTruncated {
		t.Errorf("Done = %v", r.Done())
	}
}

func TestLengthPrefixBeyondInput(t *testing.T) {
	w := NewWriter(0)
	w.U16(1000) // claims 1000 bytes follow
	w.Raw([]byte("short"))
	r := NewReader(w.Bytes())
	if r.Bytes16() != nil {
		t.Error("overlong prefix returned data")
	}
	if r.Err() == nil {
		t.Error("no error for overlong prefix")
	}
}

func TestTrailingBytesDetected(t *testing.T) {
	w := NewWriter(0)
	w.U8(1)
	w.U8(2)
	r := NewReader(w.Bytes())
	r.U8()
	if err := r.Done(); err == nil {
		t.Error("trailing byte not detected")
	}
	if r.Remaining() != 1 {
		t.Errorf("Remaining = %d", r.Remaining())
	}
}

func TestRawReturnsCopy(t *testing.T) {
	src := []byte{9, 9, 9}
	r := NewReader(src)
	got := r.Raw(3)
	src[0] = 1
	if got[0] != 9 {
		t.Error("Raw aliases input")
	}
}

// View and View16 alias the input, stop at the field's end, and agree with
// Raw and Bytes16 on everything else — empty fields and truncation included.
func TestViewBorrowsInput(t *testing.T) {
	w := NewWriter(0)
	w.Raw([]byte{7, 8})
	w.Bytes16([]byte("abc"))
	w.Bytes16(nil)
	w.U8(0xEE)
	src := w.Bytes()

	r := NewReader(src)
	raw, field, empty := r.View(2), r.View16(), r.View16()
	if !bytes.Equal(raw, []byte{7, 8}) || string(field) != "abc" || empty != nil {
		t.Fatalf("View = %v, View16 = %q, empty = %v", raw, field, empty)
	}
	if &field[0] != &src[4] {
		t.Error("View16 copied the field")
	}
	if field = append(field, 'X'); src[7] != 0 {
		t.Error("append to a view reached the following field")
	}
	if r.U8() != 0xEE || r.Done() != nil {
		t.Errorf("reader out of step after views: %v", r.Done())
	}
	short := NewReader([]byte{0, 5, 1})
	if short.View16() != nil || short.Err() != ErrTruncated {
		t.Errorf("truncated view: err = %v", short.Err())
	}
}

func TestOversizeFieldPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Bytes16 with 64KiB+1 did not panic")
		}
	}()
	NewWriter(0).Bytes16(make([]byte, 0x10000))
}

// Property: arbitrary field sequences round-trip.
func TestRoundTripProperty(t *testing.T) {
	f := func(a byte, b uint16, c uint32, d uint64, e int64, blob []byte, s string) bool {
		if len(blob) > 0xFFFF || len(s) > 0xFFFF {
			return true
		}
		w := NewWriter(0)
		w.U8(a)
		w.U16(b)
		w.U32(c)
		w.U64(d)
		w.I64(e)
		w.Bytes16(blob)
		w.String16(s)
		r := NewReader(w.Bytes())
		ok := r.U8() == a && r.U16() == b && r.U32() == c && r.U64() == d && r.I64() == e
		gotBlob := r.Bytes16()
		gotStr := r.String16()
		if !ok || !bytes.Equal(gotBlob, blob) && !(len(blob) == 0 && len(gotBlob) == 0) || gotStr != s {
			return false
		}
		return r.Done() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
