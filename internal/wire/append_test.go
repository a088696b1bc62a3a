package wire

import (
	"bytes"
	"crypto/sha256"
	"sync"
	"testing"

	"argus/internal/enc"
)

// The append-style codec seam must emit byte-identical frames to the
// original writer-based Encode. The legacy encoders are reproduced here
// verbatim (against enc.Writer) so the equivalence is checked against the
// actual pre-refactor bytes, not against the new code's own output.

func legacyEncode(m Message) []byte {
	switch m := m.(type) {
	case *QUE1:
		w := enc.NewWriter(2 + 1 + len(m.RS))
		w.U8(byte(TQUE1))
		w.U8(byte(m.Version))
		if len(m.Hints) > 0 { // the hinted form, not in the pre-refactor codec
			w.U8(0x80 | byte(len(m.RS)))
			w.Raw(m.RS)
			w.Raw(m.Hints)
			return w.Bytes()
		}
		w.U8(byte(len(m.RS)))
		w.Raw(m.RS)
		return w.Bytes()
	case *RES1:
		w := enc.NewWriter(64 + len(m.Prof) + len(m.CertO) + len(m.KEXMO))
		w.U8(byte(TRES1))
		w.U8(byte(m.Version))
		w.U8(byte(m.Mode))
		switch m.Mode {
		case ModePublic:
			w.Bytes16(m.Prof)
		case ModeSecure:
			w.Bytes16(m.RO)
			w.Bytes16(m.CertO)
			w.Bytes16(m.KEXMO)
			w.Bytes16(m.Sig)
		case ModeResume: // the short form, not in the pre-refactor codec
			w.Bytes16(m.RO)
		case ModePublicKnown: // the known answer, not in the pre-refactor codec
			w.Bytes16(m.ProfDigest)
		}
		return w.Bytes()
	case *QUE2:
		cw := enc.NewWriter(64 + len(m.ProfS) + len(m.CertS) + len(m.KEXMS))
		cw.U8(byte(len(m.RS)))
		cw.Raw(m.RS)
		cw.Bytes16(m.ProfS)
		cw.Bytes16(m.CertS)
		cw.Bytes16(m.KEXMS)
		core := cw.Bytes()
		w := enc.NewWriter(8 + len(core) + len(m.Sig) + len(m.MACS2) + len(m.MACS3))
		w.U8(byte(TQUE2))
		w.U8(byte(m.Version))
		w.Raw(core)
		w.Bytes16(m.Sig)
		w.Bytes16(m.MACS2)
		if m.Version != V10 {
			w.Bytes16(m.MACS3)
		}
		return w.Bytes()
	case *RES2:
		w := enc.NewWriter(8 + len(m.Ciphertext) + len(m.MACO))
		w.U8(byte(TRES2))
		w.U8(byte(m.Version))
		w.Bytes16(m.Ciphertext)
		w.Bytes16(m.MACO)
		return w.Bytes()
	}
	panic("unknown message")
}

// goldenCorpusMessages covers every message shape the protocol puts on the
// air plus the degenerate shapes (empty fields, unknown RES1 mode) the old
// encoder handled.
func goldenCorpusMessages() []Message {
	return []Message{
		&QUE1{Version: V10, RS: bytes.Repeat([]byte{1}, 28)},
		&QUE1{Version: V30, RS: bytes.Repeat([]byte{2}, 28)},
		&QUE1{Version: V20, RS: []byte{9}},
		que1HintedFor(V10),
		que1HintedFor(V30),
		res1Short(V20),
		res1Short(V30),
		&RES1{Version: V30, Mode: ModeResume},
		res1Known(V10),
		res1Known(V30),
		&RES1{Version: V30, Mode: ModePublicKnown},
		&RES1{Version: V30, Mode: ModePublic, Prof: bytes.Repeat([]byte{3}, 200)},
		&RES1{Version: V10, Mode: ModePublic},
		&RES1{Version: V20, Mode: ModeSecure, RO: bytes.Repeat([]byte{4}, 28),
			CertO: bytes.Repeat([]byte{5}, 500), KEXMO: bytes.Repeat([]byte{6}, 64),
			Sig: bytes.Repeat([]byte{7}, 64)},
		&RES1{Version: V30, Mode: ModeSecure},
		&RES1{Version: V30, Mode: ResponseMode(0xEE)}, // unknown mode: header only
		que2For(V10, false),
		que2For(V20, false),
		que2For(V20, true),
		que2For(V30, true),
		&QUE2{Version: V30},
		&RES2{Version: V10, Ciphertext: bytes.Repeat([]byte{8}, 256),
			MACO: bytes.Repeat([]byte{9}, 32)},
		&RES2{Version: V30, Ciphertext: bytes.Repeat([]byte{10}, 64),
			MACO: bytes.Repeat([]byte{11}, 32)},
		&RES2{Version: V20},
	}
}

func TestAppendToMatchesLegacyEncode(t *testing.T) {
	for i, m := range goldenCorpusMessages() {
		want := legacyEncode(m)
		if got := m.Encode(); !bytes.Equal(got, want) {
			t.Errorf("msg %d (%T): Encode differs from legacy:\n got %x\nwant %x", i, m, got, want)
		}
		if got := m.AppendTo(nil); !bytes.Equal(got, want) {
			t.Errorf("msg %d (%T): AppendTo(nil) differs from legacy", i, m)
		}
		// Appending after a prefix must leave the prefix intact and add the
		// same bytes.
		prefix := []byte{0xAA, 0xBB}
		got := m.AppendTo(append([]byte(nil), prefix...))
		if !bytes.Equal(got[:2], prefix) || !bytes.Equal(got[2:], want) {
			t.Errorf("msg %d (%T): AppendTo(prefix) corrupted output", i, m)
		}
		if n := m.EncodedSize(); n != len(want) {
			t.Errorf("msg %d (%T): EncodedSize = %d, want %d", i, m, n, len(want))
		}
	}
}

func TestAppendSigInputQUE2Matches(t *testing.T) {
	q := que2For(V30, true)
	que1Enc := (&QUE1{Version: V30, RS: q.RS}).Encode()
	res1Enc := (&RES1{Version: V30, Mode: ModeSecure, RO: bytes.Repeat([]byte{4}, 28),
		CertO: bytes.Repeat([]byte{5}, 500), KEXMO: bytes.Repeat([]byte{6}, 64),
		Sig: bytes.Repeat([]byte{7}, 64)}).Encode()

	want := SigInputQUE2(que1Enc, res1Enc, q)
	got := AppendSigInputQUE2(nil, que1Enc, res1Enc, q)
	if !bytes.Equal(got, want) {
		t.Fatal("AppendSigInputQUE2 differs from SigInputQUE2")
	}
	if n := SigInputSizeQUE2(que1Enc, res1Enc, q); n != len(want) {
		t.Fatalf("SigInputSizeQUE2 = %d, want %d", n, len(want))
	}
}

// TestTranscriptPooledHelpers: the running hash is SHA-256 of the bytes added,
// at every cut; a copy is a fork; and neither Add, Hash nor a scratch
// round-trip allocates once the pools are warm.
func TestTranscriptPooledHelpers(t *testing.T) {
	var ts Transcript
	if ts.Hash() != sha256.Sum256(nil) {
		t.Fatal("empty transcript is not SHA-256 of nothing")
	}
	// Cuts on both sides of the digest's 64-byte block boundary.
	var all []byte
	for _, n := range []int{3, 60, 1, 64, 200, 0, 7} {
		part := bytes.Repeat([]byte{byte(n)}, n)
		all = append(all, part...)
		ts.Add(part[:n/2], part[n/2:])
		if ts.Hash() != sha256.Sum256(all) {
			t.Fatalf("after %d bytes: running hash differs from SHA-256 of the bytes", len(all))
		}
	}

	fork := ts
	fork.Add([]byte("tail"))
	if ts.Hash() != sha256.Sum256(all) {
		t.Fatal("adding to a copy moved the original")
	}
	if fork.Hash() != sha256.Sum256(append(all, "tail"...)) {
		t.Fatal("the copy diverged from the bytes it was fed")
	}

	if !poolsKeep() {
		return
	}
	part := bytes.Repeat([]byte{9}, 300)
	if n := testing.AllocsPerRun(100, func() {
		var ts Transcript
		ts.Add(part, part)
		_ = ts.Hash()
		fork := ts
		fork.Add(part)
		_ = fork.Hash()
		PutScratch(append(GetScratch(), part...))
	}); n != 0 {
		t.Fatalf("transcript and scratch cost %.0f allocs/op, want 0", n)
	}
}

// poolsKeep reports whether a sync.Pool hands back what was just put. Under
// the race detector it drops a quarter of the puts at random, and an
// allocation count then measures the refills.
func poolsKeep() bool {
	var p sync.Pool
	for i := 0; i < 64; i++ {
		p.Put(new(int))
		if p.Get() == nil {
			return false
		}
	}
	return true
}

func TestScratchPoolRoundTrip(t *testing.T) {
	b := GetScratch()
	if len(b) != 0 {
		t.Fatalf("GetScratch returned len %d", len(b))
	}
	b = append(b, bytes.Repeat([]byte{7}, 100)...)
	PutScratch(b)
	PutScratch(nil)                      // cap 0: dropped, no panic
	PutScratch(make([]byte, 0, 1<<16+1)) // oversized: dropped
}

func BenchmarkEncodeQUE2(b *testing.B) {
	m := que2For(V30, true)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = m.Encode()
	}
}

func BenchmarkAppendToQUE2(b *testing.B) {
	m := que2For(V30, true)
	buf := make([]byte, 0, m.EncodedSize())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = m.AppendTo(buf[:0])
	}
}

func BenchmarkDecodeQUE2(b *testing.B) {
	raw := que2For(V30, true).Encode()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(raw); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAppendSigInputQUE2(b *testing.B) {
	q := que2For(V30, true)
	que1Enc := (&QUE1{Version: V30, RS: q.RS}).Encode()
	res1Enc := (&RES1{Version: V30, Mode: ModeSecure, RO: bytes.Repeat([]byte{4}, 28),
		CertO: bytes.Repeat([]byte{5}, 500), KEXMO: bytes.Repeat([]byte{6}, 64),
		Sig: bytes.Repeat([]byte{7}, 64)}).Encode()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf := GetScratch()
		buf = AppendSigInputQUE2(buf, que1Enc, res1Enc, q)
		PutScratch(buf)
	}
}
