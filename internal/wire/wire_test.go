package wire

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"

	"argus/internal/suite"
)

func nonce(b byte) []byte { return bytes.Repeat([]byte{b}, suite.NonceSize) }

func TestQUE1RoundTrip(t *testing.T) {
	for _, v := range []Version{V10, V20, V30} {
		m := &QUE1{Version: v, RS: nonce(1)}
		got, err := Decode(m.Encode())
		if err != nil {
			t.Fatalf("%v: Decode: %v", v, err)
		}
		q, ok := got.(*QUE1)
		if !ok {
			t.Fatalf("%v: decoded wrong type %T", v, got)
		}
		if q.Version != v || !bytes.Equal(q.RS, m.RS) {
			t.Errorf("%v: round trip mismatch", v)
		}
	}
}

func TestRES1RoundTripPublic(t *testing.T) {
	m := &RES1{Version: V30, Mode: ModePublic, Prof: []byte("signed-profile-bytes")}
	got, err := Decode(m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	r := got.(*RES1)
	if r.Mode != ModePublic || !bytes.Equal(r.Prof, m.Prof) {
		t.Error("public RES1 round trip mismatch")
	}
}

func TestRES1RoundTripSecure(t *testing.T) {
	m := &RES1{
		Version: V30, Mode: ModeSecure,
		RO:    nonce(2),
		CertO: bytes.Repeat([]byte{3}, 565),
		KEXMO: bytes.Repeat([]byte{4}, 64),
		Sig:   bytes.Repeat([]byte{5}, 64),
	}
	got, err := Decode(m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	r := got.(*RES1)
	if !bytes.Equal(r.RO, m.RO) || !bytes.Equal(r.CertO, m.CertO) ||
		!bytes.Equal(r.KEXMO, m.KEXMO) || !bytes.Equal(r.Sig, m.Sig) {
		t.Error("secure RES1 round trip mismatch")
	}
}

func TestRES1SignedPart(t *testing.T) {
	m := &RES1{Mode: ModeSecure, RO: []byte{2, 2}, KEXMO: []byte{4}}
	got := m.SignedPart([]byte{1, 1, 1})
	want := []byte{1, 1, 1, 2, 2, 4}
	if !bytes.Equal(got, want) {
		t.Errorf("SignedPart = %v, want R_S‖R_O‖KEXM_O = %v", got, want)
	}
}

func que2For(v Version, withMAC3 bool) *QUE2 {
	m := &QUE2{
		Version: v,
		RS:      nonce(1),
		ProfS:   bytes.Repeat([]byte{6}, 200),
		CertS:   bytes.Repeat([]byte{7}, 565),
		KEXMS:   bytes.Repeat([]byte{8}, 64),
		Sig:     bytes.Repeat([]byte{9}, 64),
		MACS2:   bytes.Repeat([]byte{10}, 32),
	}
	if withMAC3 {
		m.MACS3 = bytes.Repeat([]byte{11}, 32)
	}
	return m
}

// que2Resumed is the short QUE2 of a resumed session: ticket and MACs only.
func que2Resumed(v Version) *QUE2 {
	m := &QUE2{Version: v, RS: nonce(1), Ticket: bytes.Repeat([]byte{12}, suite.TicketIDSize), MACS2: bytes.Repeat([]byte{10}, 32)}
	if v != V10 {
		m.MACS3 = bytes.Repeat([]byte{11}, 32)
	}
	return m
}

func TestShortQUE2RoundTripAndShape(t *testing.T) {
	for _, v := range []Version{V10, V20, V30} {
		m := que2Resumed(v)
		enc := m.Encode()
		if enc[0] != byte(TQUE2) {
			t.Fatalf("%v: short QUE2 tag = %d, want TQUE2", v, enc[0])
		}
		if len(enc) != m.EncodedSize() {
			t.Errorf("%v: EncodedSize %d != len(Encode) %d", v, m.EncodedSize(), len(enc))
		}
		got, err := Decode(enc)
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		q := got.(*QUE2)
		if !bytes.Equal(q.RS, m.RS) || !bytes.Equal(q.Ticket, m.Ticket) ||
			!bytes.Equal(q.MACS2, m.MACS2) || !bytes.Equal(q.MACS3, m.MACS3) {
			t.Errorf("%v: short QUE2 round trip mismatch", v)
		}
		if q.ProfS != nil || q.CertS != nil || q.KEXMS != nil || q.Sig != nil {
			t.Errorf("%v: short QUE2 decoded credential fields", v)
		}
		// The MACs cover R_S and the ticket through the transcript prefix.
		in := SigInputQUE2([]byte("que1"), []byte("res1"), m)
		if !bytes.Contains(in, m.Ticket) || len(in) != SigInputSizeQUE2([]byte("que1"), []byte("res1"), m) {
			t.Errorf("%v: transcript prefix does not cover the ticket", v)
		}
	}
	// A short form without a ticket would re-encode as a (different) full
	// form, so it is not a message.
	bad := que2Resumed(V30).Encode()
	bad = append(bad[:3+28], append([]byte{0, 0}, bad[3+28+2+suite.TicketIDSize:]...)...)
	if _, err := Decode(bad); err == nil {
		t.Error("short QUE2 with an empty ticket decoded")
	}
	// The refusal is the empty RES2 and nothing else.
	if !(&RES2{Version: V30}).Refusal() || (&RES2{Version: V30, MACO: []byte{1}}).Refusal() {
		t.Error("RES2.Refusal misclassifies")
	}
}

// que1Hinted is the QUE1 of a subject that resumes: R_S and the hint block,
// slot i filled with byte i+1.
func que1HintedFor(v Version) *QUE1 {
	m := &QUE1{Version: v, RS: nonce(1), Hints: make([]byte, HintBlockSize)}
	for i := range m.Hints {
		m.Hints[i] = byte(i/HintSize + 1)
	}
	return m
}

// res1Short is the short RES1 answering a hint: the object nonce alone.
func res1Short(v Version) *RES1 { return &RES1{Version: v, Mode: ModeResume, RO: nonce(2)} }

func TestHintedQUE1AndShortRES1RoundTripAndShape(t *testing.T) {
	if HintSize != suite.HintSize {
		t.Fatalf("wire.HintSize %d != suite.HintSize %d", HintSize, suite.HintSize)
	}
	for _, v := range []Version{V10, V20, V30} {
		q := que1HintedFor(v)
		enc := q.Encode()
		if enc[0] != byte(TQUE1) || len(enc) != q.EncodedSize() || len(enc) != 3+suite.NonceSize+HintBlockSize {
			t.Fatalf("%v: hinted QUE1 is %d B under tag %d, EncodedSize %d", v, len(enc), enc[0], q.EncodedSize())
		}
		got, err := Decode(enc)
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if g := got.(*QUE1); g.Version != v || !bytes.Equal(g.RS, q.RS) || !bytes.Equal(g.Hints, q.Hints) {
			t.Errorf("%v: hinted QUE1 round trip mismatch", v)
		}
		// The plain QUE1 is the paper's, byte for byte, and decodes without hints.
		plain, _ := Decode((&QUE1{Version: v, RS: nonce(1)}).Encode())
		if plain.(*QUE1).Hints != nil {
			t.Errorf("%v: plain QUE1 decoded with a hint block", v)
		}

		r := res1Short(v)
		enc = r.Encode()
		if enc[0] != byte(TRES1) || len(enc) != r.EncodedSize() || len(enc) != 3+2+suite.NonceSize {
			t.Fatalf("%v: short RES1 is %d B, EncodedSize %d", v, len(enc), r.EncodedSize())
		}
		got, err = Decode(enc)
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if g := got.(*RES1); g.Mode != ModeResume || !bytes.Equal(g.RO, r.RO) || g.CertO != nil || g.KEXMO != nil || g.Sig != nil || g.Prof != nil {
			t.Errorf("%v: short RES1 round trip mismatch: %+v", v, g)
		}
	}
	// Every slot is found, nothing else is, and a short block is no block.
	q := que1HintedFor(V30)
	for i := 0; i < HintSlots; i++ {
		var h [HintSize]byte
		copy(h[:], q.Hints[i*HintSize:])
		if !q.HasHint(h) {
			t.Errorf("slot %d not found", i)
		}
	}
	if q.HasHint([HintSize]byte{1, 1, 1, 1, 2, 2, 2, 2}) || (&QUE1{RS: nonce(1)}).HasHint([HintSize]byte{}) {
		t.Error("HasHint matched across a slot boundary, or in no block")
	}
	bad := q.Encode()
	if _, err := Decode(bad[:len(bad)-1]); err == nil {
		t.Error("hinted QUE1 with a truncated block decoded")
	}
	if _, err := Decode(append(bad, 0)); err == nil {
		t.Error("hinted QUE1 with a trailing byte decoded")
	}
}

func TestQUE2RoundTrip(t *testing.T) {
	cases := []struct {
		v        Version
		withMAC3 bool
	}{{V10, false}, {V20, false}, {V20, true}, {V30, true}}
	for _, c := range cases {
		m := que2For(c.v, c.withMAC3)
		got, err := Decode(m.Encode())
		if err != nil {
			t.Fatalf("%v mac3=%v: %v", c.v, c.withMAC3, err)
		}
		q := got.(*QUE2)
		if !bytes.Equal(q.RS, m.RS) || !bytes.Equal(q.ProfS, m.ProfS) ||
			!bytes.Equal(q.CertS, m.CertS) || !bytes.Equal(q.KEXMS, m.KEXMS) ||
			!bytes.Equal(q.Sig, m.Sig) || !bytes.Equal(q.MACS2, m.MACS2) {
			t.Errorf("%v: QUE2 round trip mismatch", c.v)
		}
		if c.v == V10 && q.MACS3 != nil {
			t.Errorf("v1.0 QUE2 decoded a MAC_{S,3}")
		}
		if c.withMAC3 && !bytes.Equal(q.MACS3, m.MACS3) {
			t.Errorf("%v: MAC_{S,3} lost", c.v)
		}
	}
}

func TestQUE2V20CompositionLeak(t *testing.T) {
	// §VI-B: in v2.0, QUE2 has one more component (MAC_{S,3}) when seeking a
	// Level 3 object — the lengths differ, which is the distinguishability
	// leak v3.0 closes.
	l2only := que2For(V20, false).Encode()
	l3 := que2For(V20, true).Encode()
	if len(l3) <= len(l2only) {
		t.Fatal("v2.0 Level 3 QUE2 should be longer than Level 2 QUE2")
	}
	if len(l3)-len(l2only) != suite.MACSize {
		t.Errorf("length delta = %d, want %d (one HMAC)", len(l3)-len(l2only), suite.MACSize)
	}
	// In v3.0 every QUE2 carries both MACs: identical structure whenever.
	a := que2For(V30, true).Encode()
	b := que2For(V30, true)
	b.MACS3 = bytes.Repeat([]byte{0xEE}, 32) // different cover-up MAC, same shape
	if len(a) != len(b.Encode()) {
		t.Error("v3.0 QUE2 lengths differ across subjects")
	}
}

func TestRES2RoundTripAndShape(t *testing.T) {
	m := &RES2{Version: V30, Ciphertext: bytes.Repeat([]byte{12}, 256), MACO: bytes.Repeat([]byte{13}, 32)}
	got, err := Decode(m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	r := got.(*RES2)
	if !bytes.Equal(r.Ciphertext, m.Ciphertext) || !bytes.Equal(r.MACO, m.MACO) {
		t.Error("RES2 round trip mismatch")
	}
	// A MAC_{O,2} RES2 and a MAC_{O,3} RES2 with equal-length ciphertexts are
	// byte-length identical: nothing on the wire says which key was used.
	m2 := &RES2{Version: V30, Ciphertext: bytes.Repeat([]byte{1}, 256), MACO: bytes.Repeat([]byte{2}, 32)}
	if len(m.Encode()) != len(m2.Encode()) {
		t.Error("RES2 shapes differ")
	}
}

func TestDecodeErrors(t *testing.T) {
	good := (&QUE1{Version: V30, RS: nonce(1)}).Encode()
	cases := map[string][]byte{
		"empty":            {},
		"one byte":         {byte(TQUE1)},
		"bad type":         {99, byte(V30), 0},
		"bad version":      {byte(TQUE1), 99, 0},
		"truncated":        good[:len(good)-5],
		"trailing":         append(append([]byte{}, good...), 1, 2),
		"que1 empty nonce": {byte(TQUE1), byte(V30), 0},
		"res1 bad mode":    {byte(TRES1), byte(V30), 9},
	}
	for name, b := range cases {
		if _, err := Decode(b); err == nil {
			t.Errorf("%s: Decode succeeded, want error", name)
		}
	}
}

func TestTranscript(t *testing.T) {
	a := &Transcript{}
	b := &Transcript{}
	a.Add([]byte("que1"))
	a.Add([]byte("res1"))
	b.Add([]byte("que1res1"))
	if a.Hash() != b.Hash() {
		t.Fatal("transcript hash depends on chunking — both sides must agree")
	}
	c := *a
	c.Add([]byte("res2"))
	if a.Hash() == c.Hash() {
		t.Fatal("copy aliases parent")
	}
	a.Add([]byte("res2"))
	if a.Hash() != c.Hash() {
		t.Fatal("copy diverges from identical additions")
	}
}

func TestSigInputQUE2CoversTranscript(t *testing.T) {
	q := que2For(V30, true)
	in1 := SigInputQUE2([]byte("q1"), []byte("r1"), q)
	in2 := SigInputQUE2([]byte("q1"), []byte("r2"), q)
	if bytes.Equal(in1, in2) {
		t.Fatal("signature input ignores RES1 — replay across sessions possible")
	}
	q2 := que2For(V30, true)
	q2.ProfS = bytes.Repeat([]byte{0xAA}, 200)
	if bytes.Equal(in1, SigInputQUE2([]byte("q1"), []byte("r1"), q2)) {
		t.Fatal("signature input ignores PROF_S")
	}
	// The MACs themselves are not under the signature (they are computed
	// after it), so changing them must not change the signature input.
	q3 := que2For(V30, true)
	q3.MACS2 = bytes.Repeat([]byte{0xBB}, 32)
	if !bytes.Equal(in1, SigInputQUE2([]byte("q1"), []byte("r1"), q3)) {
		t.Fatal("signature input should not cover the finished MACs")
	}
}

// Property: all four messages round-trip through Encode/Decode for random
// field contents.
func TestCodecRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	randBytes := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rng}

	f1 := func() bool {
		m := &QUE1{Version: V30, RS: randBytes(suite.NonceSize)}
		got, err := Decode(m.Encode())
		return err == nil && reflect.DeepEqual(got, m)
	}
	f2 := func() bool {
		m := &RES1{Version: V20, Mode: ModeSecure,
			RO: randBytes(28), CertO: randBytes(1 + rng.Intn(600)),
			KEXMO: randBytes(64), Sig: randBytes(64)}
		got, err := Decode(m.Encode())
		return err == nil && reflect.DeepEqual(got, m)
	}
	f3 := func() bool {
		m := que2For(V30, true)
		m.ProfS = randBytes(1 + rng.Intn(400))
		got, err := Decode(m.Encode())
		return err == nil && reflect.DeepEqual(got, m)
	}
	f4 := func() bool {
		m := &RES2{Version: V30, Ciphertext: randBytes(1 + rng.Intn(512)), MACO: randBytes(32)}
		got, err := Decode(m.Encode())
		return err == nil && reflect.DeepEqual(got, m)
	}
	for i, f := range []func() bool{f1, f2, f3, f4} {
		if err := quick.Check(f, cfg); err != nil {
			t.Errorf("message %d: %v", i+1, err)
		}
	}
}

func TestVersionAndTypeStrings(t *testing.T) {
	if V10.String() != "v1.0" || V20.String() != "v2.0" || V30.String() != "v3.0" {
		t.Error("version strings wrong")
	}
	if Version(9).Valid() {
		t.Error("version 9 valid")
	}
	if TQUE1.String() != "QUE1" || TRES2.String() != "RES2" {
		t.Error("type strings wrong")
	}
}

// TestDecodeBorrowsPayload: a decoded message is one allocation — the struct —
// and its byte fields are windows on the payload, each closed at its own end.
func TestDecodeBorrowsPayload(t *testing.T) {
	within := func(field, raw []byte) bool {
		return len(field) > 0 && cap(field) == len(field) &&
			uintptr(unsafe.Pointer(&field[0])) >= uintptr(unsafe.Pointer(&raw[0])) &&
			uintptr(unsafe.Pointer(&field[len(field)-1])) <= uintptr(unsafe.Pointer(&raw[len(raw)-1]))
	}
	full, short := que2For(V30, true), que2For(V30, true)
	short.Ticket = bytes.Repeat([]byte{0x77}, 16)
	for _, m := range []Message{
		&QUE1{Version: V30, RS: full.RS},
		&RES1{Version: V30, Mode: ModePublic, Prof: bytes.Repeat([]byte{1}, 200)},
		&RES1{Version: V30, Mode: ModeSecure, RO: bytes.Repeat([]byte{4}, 28), CertO: bytes.Repeat([]byte{5}, 500),
			KEXMO: bytes.Repeat([]byte{6}, 64), Sig: bytes.Repeat([]byte{7}, 64)},
		full, short,
		&RES2{Version: V30, Ciphertext: bytes.Repeat([]byte{8}, 256), MACO: bytes.Repeat([]byte{9}, 32)},
	} {
		raw := m.Encode()
		got, err := Decode(raw)
		if err != nil || got.Type() != m.Type() {
			t.Fatalf("%v: decoded as %v, %v", m.Type(), got, err)
		}
		var fields [][]byte
		switch d := got.(type) {
		case *QUE1:
			fields = [][]byte{d.RS}
		case *RES1:
			fields = [][]byte{d.Prof, d.RO, d.CertO, d.KEXMO, d.Sig}
		case *QUE2:
			fields = [][]byte{d.RS, d.ProfS, d.CertS, d.KEXMS, d.Sig, d.MACS2, d.MACS3, d.Ticket}
		case *RES2:
			fields = [][]byte{d.Ciphertext, d.MACO}
		}
		for i, f := range fields {
			if len(f) > 0 && !within(f, raw) {
				t.Errorf("%v field %d: copied, or open past its end", m.Type(), i)
			}
		}
		if n := testing.AllocsPerRun(100, func() { _, _ = Decode(raw) }); n != 1 {
			t.Errorf("%v: Decode costs %.0f allocs, want 1", m.Type(), n)
		}
	}
}
