package wire

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
)

// TestDecodeNeverPanics hammers Decode with random bytes and mutated valid
// messages: every input must return cleanly (message or error).
func TestDecodeNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))

	// Pure random inputs.
	for i := 0; i < 5000; i++ {
		b := make([]byte, rng.Intn(128))
		rng.Read(b)
		m, err := Decode(b)
		if err == nil && m == nil {
			t.Fatal("nil message with nil error")
		}
	}

	// Mutations of valid messages (bit flips, truncations, extensions).
	valid := [][]byte{
		(&QUE1{Version: V30, RS: make([]byte, 28)}).Encode(),
		que1HintedFor(V30).Encode(),
		res1Short(V30).Encode(),
		res1Known(V20).Encode(),
		res1Known(V30).Encode(),
		(&RES1{Version: V30, Mode: ModePublic, Prof: make([]byte, 200)}).Encode(),
		(&RES1{Version: V20, Mode: ModeSecure, RO: make([]byte, 28),
			CertO: make([]byte, 500), KEXMO: make([]byte, 64), Sig: make([]byte, 64)}).Encode(),
		que2For(V30, true).Encode(),
		(&RES2{Version: V10, Ciphertext: make([]byte, 256), MACO: make([]byte, 32)}).Encode(),
	}
	for _, base := range valid {
		for i := 0; i < 500; i++ {
			b := append([]byte(nil), base...)
			switch rng.Intn(3) {
			case 0: // bit flip
				b[rng.Intn(len(b))] ^= 1 << uint(rng.Intn(8))
			case 1: // truncate
				b = b[:rng.Intn(len(b))]
			case 2: // extend
				b = append(b, byte(rng.Intn(256)))
			}
			Decode(b) // must not panic
		}
	}
}

// TestDecodeEncodedIdempotent: decoding an encoding and re-encoding yields
// identical bytes for each message type (canonical form).
func TestDecodeEncodedIdempotent(t *testing.T) {
	msgs := []Message{
		&QUE1{Version: V30, RS: make([]byte, 28)},
		que1HintedFor(V20),
		res1Short(V20),
		&RES1{Version: V30, Mode: ModePublic, Prof: []byte("prof")},
		&RES1{Version: V30, Mode: ModeSecure, RO: make([]byte, 28),
			CertO: make([]byte, 100), KEXMO: make([]byte, 64), Sig: make([]byte, 64)},
		que2For(V20, true),
		que2For(V10, false),
		que2Resumed(V30),
		&RES2{Version: V30, Ciphertext: make([]byte, 64), MACO: make([]byte, 32)},
	}
	for i, m := range msgs {
		enc1 := m.Encode()
		dec, err := Decode(enc1)
		if err != nil {
			t.Fatalf("msg %d: %v", i, err)
		}
		enc2 := dec.Encode()
		if string(enc1) != string(enc2) {
			t.Errorf("msg %d: re-encoding differs", i)
		}
	}
}

// Native fuzz targets. Seed corpora are golden encodings of every message
// shape the protocol puts on the air, so the fuzzer starts from valid frames
// and mutates toward the decoder's edges. The property under fuzz is the one
// retransmission depends on: any accepted input re-encodes canonically
// (Decode∘Encode is a fixpoint), because resent frames must be byte-identical
// to the originals their MACs were computed over.

// goldenEncodings is the seed corpus shared by the fuzz targets.
func goldenEncodings() [][]byte {
	return [][]byte{
		(&QUE1{Version: V10, RS: bytes.Repeat([]byte{1}, 28)}).Encode(),
		(&QUE1{Version: V30, RS: bytes.Repeat([]byte{2}, 28)}).Encode(),
		que1HintedFor(V10).Encode(),
		que1HintedFor(V30).Encode(),
		res1Short(V10).Encode(),
		res1Short(V30).Encode(),
		(&RES1{Version: V30, Mode: ModePublic, Prof: bytes.Repeat([]byte{3}, 200)}).Encode(),
		(&RES1{Version: V20, Mode: ModeSecure, RO: bytes.Repeat([]byte{4}, 28),
			CertO: bytes.Repeat([]byte{5}, 500), KEXMO: bytes.Repeat([]byte{6}, 64),
			Sig: bytes.Repeat([]byte{7}, 64)}).Encode(),
		que2For(V10, false).Encode(),
		que2For(V20, true).Encode(),
		que2For(V30, true).Encode(),
		que2Resumed(V10).Encode(),
		que2Resumed(V30).Encode(),
		(&RES2{Version: V30}).Encode(), // the resumption refusal
		(&RES2{Version: V10, Ciphertext: bytes.Repeat([]byte{8}, 256),
			MACO: bytes.Repeat([]byte{9}, 32)}).Encode(),
		(&RES2{Version: V30, Ciphertext: bytes.Repeat([]byte{10}, 64),
			MACO: bytes.Repeat([]byte{11}, 32)}).Encode(),
	}
}

// FuzzDecode: Decode must never panic, never return (nil, nil), and every
// accepted input must re-encode canonically.
func FuzzDecode(f *testing.F) {
	for _, b := range goldenEncodings() {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := Decode(b)
		if err != nil {
			return
		}
		if m == nil {
			t.Fatal("nil message with nil error")
		}
		enc := m.Encode()
		m2, err := Decode(enc)
		if err != nil {
			t.Fatalf("re-decode of accepted message failed: %v", err)
		}
		if !bytes.Equal(enc, m2.Encode()) {
			t.Fatalf("encoding not canonical:\n1st %x\n2nd %x", enc, m2.Encode())
		}
	})
}

// FuzzDecodeQUE2 narrows the corpus to QUE2, the most field-rich frame (and
// the one the subject retransmits verbatim): accepted QUE2s must round-trip
// with MAC_{S,3} present exactly when the version carries it.
func FuzzDecodeQUE2(f *testing.F) {
	f.Add(que2For(V10, false).Encode())
	f.Add(que2For(V20, false).Encode())
	f.Add(que2For(V20, true).Encode())
	f.Add(que2For(V30, true).Encode())
	f.Add(que2Resumed(V30).Encode())
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := Decode(b)
		if err != nil {
			return
		}
		q, ok := m.(*QUE2)
		if !ok {
			return
		}
		if !bytes.Equal(q.Encode(), mustDecode(t, q.Encode()).Encode()) {
			t.Fatal("QUE2 encoding not canonical")
		}
		if q.Version == V10 && len(q.MACS3) != 0 {
			t.Fatalf("v1.0 QUE2 decoded with MAC_{S,3} (%d bytes)", len(q.MACS3))
		}
	})
}

// FuzzDecodeRES2 narrows the corpus to RES2, the frame whose length is the
// Case 7 side channel: accepted RES2s must round-trip bytes-identically so a
// cached resend can never change the on-air shape.
func FuzzDecodeRES2(f *testing.F) {
	f.Add((&RES2{Version: V10, Ciphertext: bytes.Repeat([]byte{1}, 256),
		MACO: bytes.Repeat([]byte{2}, 32)}).Encode())
	f.Add((&RES2{Version: V20, Ciphertext: bytes.Repeat([]byte{3}, 128),
		MACO: bytes.Repeat([]byte{4}, 32)}).Encode())
	f.Add((&RES2{Version: V30, Ciphertext: nil, MACO: bytes.Repeat([]byte{5}, 32)}).Encode())
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := Decode(b)
		if err != nil {
			return
		}
		r, ok := m.(*RES2)
		if !ok {
			return
		}
		enc := r.Encode()
		if !bytes.Equal(enc, mustDecode(t, enc).Encode()) {
			t.Fatal("RES2 encoding not canonical")
		}
	})
}

// decoder is a message that decodes in place.
type decoder interface {
	Message
	DecodeFrom(b []byte) error
}

// FuzzDecodeFromReused: a value decoded into again must come out exactly as a
// fresh Decode of the same frame — accepted and rejected alike, equal field by
// field — whatever it held before. The engines decode every frame into a
// value they reuse, so a field the new frame does not carry must not survive
// from the last one: an unhinted QUE1 after a hinted one has no Hints, a full
// QUE2 after a short one no Ticket. Every golden frame of the type is the
// previous decode in turn.
func FuzzDecodeFromReused(f *testing.F) {
	golden := goldenEncodings()
	for _, b := range golden {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		want, wantErr := Decode(b)
		for _, prev := range golden {
			var v decoder
			switch MsgType(prev[0]) {
			case TQUE1:
				v = new(QUE1)
			case TRES1:
				v = new(RES1)
			case TQUE2:
				v = new(QUE2)
			case TRES2:
				v = new(RES2)
			}
			if err := v.DecodeFrom(prev); err != nil {
				t.Fatalf("golden %v frame rejected: %v", v.Type(), err)
			}
			err := v.DecodeFrom(b)
			switch {
			case wantErr != nil || want.Type() != v.Type():
				if err == nil {
					t.Fatalf("%v.DecodeFrom accepted %x, which Decode reads as %v, %v", v.Type(), b, want, wantErr)
				}
			case err != nil:
				t.Fatalf("%v.DecodeFrom after %x rejected %x: %v", v.Type(), prev, b, err)
			case !reflect.DeepEqual(v, want):
				t.Fatalf("%v.DecodeFrom after %x differs from Decode:\nreused %+v\nfresh  %+v", v.Type(), prev, v, want)
			}
		}
	})
}

func mustDecode(t *testing.T, b []byte) Message {
	t.Helper()
	m, err := Decode(b)
	if err != nil {
		t.Fatalf("canonical encoding rejected: %v", err)
	}
	return m
}
