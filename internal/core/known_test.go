package core

// Level 1 known answers (DESIGN.md §15): what a returning subject's Level 1
// round costs on the air, which QUE1s still get the full RES1, and every way
// a known answer can stop matching — each of which must end in the round's
// one discovery.

import (
	"sync"
	"testing"
	"time"

	"argus/internal/attr"
	"argus/internal/netsim"
	"argus/internal/obs"
	"argus/internal/suite"
	"argus/internal/transport"
	"argus/internal/wire"
)

// Frame sizes of a Level 1 round on the air: the hinted QUE1, the full RES1
// of a 264-byte profile, and the known answer that stands for it.
const (
	hintedQUE1Size = 3 + suite.NonceSize + wire.HintBlockSize
	fullRES1Size   = 269
	knownRES1Size  = wire.KnownRES1Size
)

// res1Sizes returns the lengths of the RES1 frames among frames.
func res1Sizes(frames []tapped) []int {
	var out []int
	for _, fr := range frames {
		if fr.msg.Type() == wire.TRES1 {
			out = append(out, len(fr.payload))
		}
	}
	return out
}

// TestKnownAnswerRound: once a subject verified a Level 1 object's profile,
// each of its next rounds is the hinted QUE1 and the 21-byte known answer —
// no verification, the same discovery.
func TestKnownAnswerRound(t *testing.T) {
	f := newResumeFixtureAt(t, 1, L1, netsim.DefaultWiFi())
	o := f.only()
	if got := res1Sizes(f.air.msgs); len(got) != 1 || got[0] != fullRES1Size {
		t.Fatalf("first round's RES1s: %v B, want one of %d", got, fullRES1Size)
	}
	first := f.subject.Results()[0]
	verifies := f.ops(t, "subject", verify)
	for r := 0; r < 5; r++ {
		got, frames := f.round(t)
		if len(got) != 1 || got[0].Level != L1 || got[0].Object != o.ID() || got[0].Profile != first.Profile {
			t.Fatalf("round %d: %+v, want the Level 1 discovery of %v from its verified profile", r, got, o.ID())
		}
		if len(frames) != 2 || len(frames[0].payload) != hintedQUE1Size || len(frames[1].payload) != knownRES1Size ||
			frames[1].msg.(*wire.RES1).Mode != wire.ModePublicKnown {
			for _, fr := range frames {
				t.Logf("%v %d B", fr.msg.Type(), len(fr.payload))
			}
			t.Fatalf("round %d: %d frames, want the %d B QUE1 and the %d B known answer", r, len(frames), hintedQUE1Size, knownRES1Size)
		}
	}
	if d := f.ops(t, "subject", verify) - verifies; d != 0 {
		t.Errorf("known answers cost the subject %d verifications, want 0", d)
	}
	if n := counterValue(t, f.reg, obs.MObjectQue1, obs.L("result", resultKnown)); n != 5 {
		t.Errorf("object counted %d known answers, want 5", n)
	}
	if n := counterValue(t, f.reg, obs.MObjectQue1, obs.L("result", resultPublic)); n != 1 {
		t.Errorf("object counted %d full answers, want 1", n)
	}
	if n := f.retransmissions(t); n != 0 {
		t.Errorf("%d retransmissions, want 0", n)
	}
}

// TestKnownAnswerOnlyForFirstHintedCopy: the known answer goes to the first
// copy of a hinted QUE1 from a subject the object sent its current profile
// before, and nothing else: a paper-form QUE1, a duplicate (cached or not) and
// a stranger's QUE1 get the full RES1. The zero policy never sends one, and
// ignores one.
func TestKnownAnswerOnlyForFirstHintedCopy(t *testing.T) {
	f := newResumeFixtureAt(t, 1, L1, netsim.DefaultWiFi())
	o := f.only()
	alice := f.subject.ep.Addr()
	stranger := f.net.NewEndpoint()
	f.net.Link(stranger.Node(), o.ep.(*netsim.SimEndpoint).Node())
	stranger.Bind(transport.HandlerFunc(func(transport.Addr, []byte) {}))

	que1 := func(hinted bool) []byte {
		q := wire.QUE1{Version: wire.V30, RS: make([]byte, suite.NonceSize)}
		suite.FillNonce((*[suite.NonceSize]byte)(q.RS), nil)
		if hinted {
			q.Hints = make([]byte, wire.HintBlockSize)
		}
		return q.Encode()
	}
	answer := func(from transport.Addr, q []byte) int {
		t.Helper()
		onAir := len(f.air.msgs)
		o.Handle(from, q)
		f.net.Run(f.net.Now() + 100*time.Millisecond) // not to idle: the resend cache expires at TTL/2
		got := res1Sizes(f.air.msgs[onAir:])
		if len(got) != 1 {
			t.Fatalf("%d RES1s for one QUE1", len(got))
		}
		return got[0]
	}
	hinted := que1(true)
	for _, c := range []struct {
		name   string
		from   transport.Addr
		q      []byte
		before func()
		want   int
	}{
		{"paper-form QUE1", alice, que1(false), nil, fullRES1Size},
		{"first hinted copy", alice, hinted, nil, knownRES1Size},
		{"cached duplicate", alice, hinted, nil, fullRES1Size},
		{"duplicate the resend cache shed", alice, hinted, func() {
			var m wire.QUE1
			m.DecodeFrom(hinted)
			delete(o.answers, mkSessionKey(alice, m.RS))
		}, fullRES1Size},
		{"next round", alice, que1(true), nil, knownRES1Size},
		{"stranger", stranger.Addr(), que1(true), nil, fullRES1Size},
		{"stranger's next round", stranger.Addr(), que1(true), nil, knownRES1Size},
	} {
		if c.before != nil {
			c.before()
		}
		if got := answer(c.from, c.q); got != c.want {
			t.Errorf("%s: %d B RES1, want %d", c.name, got, c.want)
		}
	}

	// The zero policy: the paper's answer, every time, and a known answer is
	// no answer.
	d := newDeployment(t)
	d.addSubject("bob", attr.MustSet("position=staff"), wire.V30)
	zo := d.addObject("lamp", L1, attr.MustSet("type=lamp"), nil, wire.V30)
	air := &tap{}
	air.install(d.net)
	for r := 0; r < 3; r++ {
		d.run()
	}
	if got := res1Sizes(air.msgs); len(got) != 3 || got[0] != fullRES1Size || got[1] != fullRES1Size || got[2] != fullRES1Size {
		t.Errorf("zero-policy rounds drew RES1s of %v B, want three of %d", got, fullRES1Size)
	}
	seen := len(d.subject.Results())
	if err := d.subject.Discover(1); err != nil {
		t.Fatal(err)
	}
	d.subject.Handle(zo.ep.Addr(), zo.knownRES1[:])
	if len(d.subject.Results()) != seen {
		t.Error("zero-policy subject took a known answer")
	}
}

// TestKnownAnswerDeadEnds: whatever makes a known answer useless — the
// subject forgot the profile, the object forgot the subject, the answer was
// lost, the digest names another profile — the round ends in its one Level 1
// discovery: at once when the object answers in full, and otherwise after one
// rebroadcast, which draws the full RES1 every duplicate gets. Nothing
// expires, and the next round is the known one again. A known answer whose
// window closed on the clock is dropped the same way, but the full RES1 then
// carries the closed profile: nothing is discovered, and the rebroadcast chain
// runs out on its budget.
func TestKnownAnswerDeadEnds(t *testing.T) {
	rows := []struct {
		name        string
		inject      func(f *resumeFixture, o *Object)
		rebroadcast int64
		closed      bool // the profile closed: no discovery
	}{
		{"subject entry evicted", func(f *resumeFixture, o *Object) { delete(f.subject.known.m, o.ep.Addr()) }, 1, false},
		{"subject CA refresh", func(f *resumeFixture, o *Object) {
			prov := f.subject.prov
			rotated := *prov
			rotated.CACert = append([]byte(nil), prov.CACert...)
			rotated.CACert[len(rotated.CACert)-1] ^= 0xFF
			f.subject.Refresh(&rotated)
			f.subject.Refresh(prov)
		}, 1, false},
		{"object Refresh", func(f *resumeFixture, o *Object) { f.refreshObject(o.Name()) }, 0, false},
		{"object set reset", func(f *resumeFixture, o *Object) { o.known = nil }, 0, false},
		{"known answer lost", func(f *resumeFixture, o *Object) {
			lost := false
			f.net.SetDropFilter(func(_, _ netsim.NodeID, p []byte) bool {
				if m, err := wire.Decode(p); err == nil && !lost && m.Type() == wire.TRES1 && m.(*wire.RES1).Mode == wire.ModePublicKnown {
					lost = true
					return true
				}
				return false
			})
		}, 1, false},
		{"bound window closed", func(f *resumeFixture, o *Object) {
			// A public profile that closes 30 s on, verified in full and then
			// known; the clock runs past its edge.
			f.withLife(30*time.Second, func() { f.refreshObject(o.Name()) })
			f.round(f.t)
			if _, frames := f.round(f.t); len(frames) != 2 || len(frames[1].payload) != knownRES1Size {
				f.t.Fatalf("known round under the short profile: %d frames", len(frames))
			}
			f.idleUntil(max(f.net.Now(), f.closesAt(f.subject.known.m[o.ep.Addr()].notAfter)+time.Second))
		}, int64(DefaultRetry().Que1Retries), true},
		{"digest mismatch", func(f *resumeFixture, o *Object) {
			e := f.subject.known.m[o.ep.Addr()]
			e.digest[0] ^= 0xFF
			f.subject.known.m[o.ep.Addr()] = e
		}, 1, false},
	}
	que1 := []obs.Label{obs.L("msg", msgQUE1), obs.L("cause", obs.CauseTimeout)}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			f := newResumeFixtureAt(t, 1, L1, netsim.DefaultWiFi())
			o := f.only()
			if _, frames := f.round(t); len(frames) != 2 || len(frames[1].payload) != knownRES1Size {
				t.Fatalf("second round: %d frames, want the known exchange", len(frames))
			}
			r.inject(f, o)
			start, expired := f.net.Now(), counterValue(t, f.reg, obs.MSessionsExpired)
			q1 := counterValue(t, f.reg, obs.MRetransmissions, que1...)
			got, frames := f.round(t)
			f.net.SetDropFilter(nil)
			if r.closed {
				if len(got) != 0 {
					t.Fatalf("round past the profile's edge discovered %+v", got)
				}
			} else if len(got) != 1 || got[0].Level != L1 || got[0].Object != o.ID() {
				t.Fatalf("round ended in %+v, want one Level 1 discovery of %v", got, o.ID())
			} else if took := got[0].At - start; took > DefaultRetry().ttl() {
				t.Errorf("discovery after %v, past the round's session lifetime", took)
			}
			if n := counterValue(t, f.reg, obs.MRetransmissions, que1...) - q1; n != r.rebroadcast {
				t.Errorf("%d rebroadcasts, want %d", n, r.rebroadcast)
			}
			if n := counterValue(t, f.reg, obs.MSessionsExpired) - expired; n != 0 {
				t.Errorf("%d sessions expired", n)
			}
			if sizes := res1Sizes(frames); sizes[len(sizes)-1] != fullRES1Size {
				t.Errorf("round's RES1s %v B: the discovery did not come from the full answer", sizes)
			}
			if r.closed {
				return
			}
			if got, frames := f.round(t); len(got) != 1 || len(frames) != 2 || len(frames[1].payload) != knownRES1Size {
				t.Errorf("next round: %d discoveries over %d frames, want 1 over the known exchange", len(got), len(frames))
			}
		})
	}
}

// TestForgedKnownAnswer: a known answer is worth what a replayed Level 1 RES1
// is worth, and no more. Anyone can compute the digest of a public profile and
// send it from the object's address, as anyone can replay the profile from
// there; either gives the subject the discovery it was about to make of the
// genuine profile. From any other address the replayed RES1 verifies — the
// object's profile, found at the attacker's node — while the known answer
// names nothing the subject verified there. A wrong digest from the object's
// address is dropped, costs nothing, and the genuine answer still counts.
func TestForgedKnownAnswer(t *testing.T) {
	f := newResumeFixtureAt(t, 1, L1, netsim.DefaultWiFi())
	o := f.only()
	full := f.air.byType(wire.TRES1)[0].payload
	var res1 wire.RES1
	if err := res1.DecodeFrom(full); err != nil {
		t.Fatal(err)
	}
	digest := wire.ProfileDigest(res1.Prof)
	forged := (&wire.RES1{Version: wire.V30, Mode: wire.ModePublicKnown, ProfDigest: digest[:]}).Encode()
	wrong := append([]byte(nil), forged...)
	wrong[len(wrong)-1] ^= 0xFF
	mallory := transport.Addr("mallory")

	drops := func() int64 { return counterValue(t, f.reg, obs.MKnownAnswerDrops) }
	heavy := []int{sign, verify, kexGen, kexShared}
	cost := func() (n int64) {
		for _, op := range heavy {
			n += f.ops(t, "subject", op)
		}
		return n
	}
	seen, before, dropped := len(f.subject.Results()), cost(), drops()
	if err := f.subject.Discover(1); err != nil {
		t.Fatal(err)
	}
	f.subject.Handle(mallory, forged)
	f.subject.Handle(o.ep.Addr(), wrong)
	if f.subject.heard(mallory) || f.subject.heard(o.ep.Addr()) {
		t.Fatal("a forged known answer was credited as a discovery")
	}
	if d := drops() - dropped; d != 2 {
		t.Errorf("%d known answers dropped, want 2", d)
	}
	if d := cost() - before; d != 0 {
		t.Errorf("forged known answers cost the subject %d public-key operations", d)
	}
	f.net.Run(0)
	if got := f.subject.Results()[seen:]; len(got) != 1 || got[0].Node != o.ep.Addr() || got[0].Object != o.ID() {
		t.Fatalf("round after the forgeries: %+v, want the genuine discovery", got)
	}

	// From the object's address the forgery is the replay's equal.
	for _, replay := range [][]byte{forged, full} {
		seen := len(f.subject.Results())
		if err := f.subject.Discover(1); err != nil {
			t.Fatal(err)
		}
		f.subject.Handle(o.ep.Addr(), replay)
		if !f.subject.heard(o.ep.Addr()) {
			t.Errorf("mode %d from the object's address was not credited", replay[2])
		}
		f.net.Run(0)
		if got := f.subject.Results()[seen:]; len(got) != 1 || got[0].Object != o.ID() || got[0].Node != o.ep.Addr() {
			t.Errorf("mode %d from the object's address: %+v, want the object's one discovery", replay[2], got)
		}
	}
	// From another address only the replay verifies.
	seen = len(f.subject.Results())
	if err := f.subject.Discover(1); err != nil {
		t.Fatal(err)
	}
	f.subject.Handle(mallory, forged)
	f.subject.Handle(mallory, full)
	f.net.Run(0)
	var fromMallory int
	for _, d := range f.subject.Results()[seen:] {
		if d.Node == mallory {
			fromMallory++
		}
	}
	if fromMallory != 1 {
		t.Errorf("%d discoveries at the attacker's address, want 1: the replayed RES1's, not the known answer's", fromMallory)
	}
}

// TestKnownTablesBounded: the subject's profiles stay at maxTickets, the
// least used going first, and the object's set starts over past
// maxSeenQueries subjects; a subject CA refresh empties the one, an object
// Refresh the other.
func TestKnownTablesBounded(t *testing.T) {
	f := newResumeFixtureAt(t, 1, L1, netsim.DefaultWiFi())
	o := f.only()
	s := f.subject
	var res1 wire.RES1
	if err := res1.DecodeFrom(f.air.byType(wire.TRES1)[0].payload); err != nil {
		t.Fatal(err)
	}
	prof := s.known.m[o.ep.Addr()].prof
	for i := 0; i < maxTickets; i++ {
		s.known.file(transport.Addr("peer-"+string(rune('a'+i%26))+string(rune('a'+i/26))), res1.Prof, prof, s.round+1)
	}
	if len(s.known.m) != maxTickets {
		t.Fatalf("subject holds %d profiles, want %d", len(s.known.m), maxTickets)
	}
	if _, ok := s.known.m[o.ep.Addr()]; ok {
		t.Error("the least used profile survived a full table")
	}
	same := *s.prov
	s.Refresh(&same)
	if len(s.known.m) != maxTickets {
		t.Error("a same-anchor Refresh flushed the profiles")
	}
	rotated := same
	rotated.CACert = append([]byte(nil), same.CACert...)
	rotated.CACert[0] ^= 0xFF
	s.Refresh(&rotated)
	if len(s.known.m) != 0 {
		t.Errorf("an anchor change left %d profiles", len(s.known.m))
	}

	rs := make([]byte, suite.NonceSize)
	o.known = nil
	for i := 0; i < maxSeenQueries; i++ {
		o.knownSubject(transport.Addr("subject-"+string(rune(i))), rs)
	}
	if len(o.known) != maxSeenQueries {
		t.Fatalf("object knows %d subjects, want %d", len(o.known), maxSeenQueries)
	}
	o.knownSubject("one-more", rs)
	if len(o.known) != 1 {
		t.Errorf("object knows %d subjects past the bound, want 1 after the reset", len(o.known))
	}
	f.refreshObject(o.Name())
	if o.known != nil {
		t.Error("object Refresh kept the subjects sent the old profile")
	}
}

// recordingEndpoint notes the length of every frame its node sends and
// receives.
type recordingEndpoint struct {
	transport.Endpoint
	h        transport.Handler
	mu       sync.Mutex
	sent, in []int
}

func (r *recordingEndpoint) note(to *[]int, p []byte) {
	r.mu.Lock()
	*to = append(*to, len(p))
	r.mu.Unlock()
}

func (r *recordingEndpoint) Send(to transport.Addr, p []byte) {
	r.note(&r.sent, p)
	r.Endpoint.Send(to, p)
}

func (r *recordingEndpoint) Broadcast(p []byte, ttl int) {
	r.note(&r.sent, p)
	r.Endpoint.Broadcast(p, ttl)
}

func (r *recordingEndpoint) Bind(h transport.Handler) {
	r.h = h
	r.Endpoint.Bind(r)
}

func (r *recordingEndpoint) Handle(from transport.Addr, p []byte) {
	r.note(&r.in, p)
	r.h.Handle(from, p)
}

// reset returns what was noted so far and forgets it.
func (r *recordingEndpoint) reset() (sent, in []int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	sent, in, r.sent, r.in = r.sent, r.in, nil, nil
	return sent, in
}

// TestKnownAnswerOnTheWire: between engines on a transport.Mesh and on UDP
// sockets, a returning subject's Level 1 round is the 95-byte QUE1 and the
// 21-byte known answer, and nothing else.
func TestKnownAnswerOnTheWire(t *testing.T) {
	for _, pn := range pairNets {
		t.Run(pn.prefix+"level-1", func(t *testing.T) {
			var rec *recordingEndpoint
			p := newMeshPairWith(t, pn, func(ep transport.Endpoint) transport.Endpoint {
				rec = &recordingEndpoint{Endpoint: ep}
				return rec
			}, L1)
			if _, in := rec.reset(); len(in) != 1 || in[0] != fullRES1Size {
				t.Fatalf("first round received %v B, want one full RES1 of %d", in, fullRES1Size)
			}
			for r := 0; r < 10; r++ {
				p.round()
				sent, in := rec.reset()
				if len(sent) != 1 || sent[0] != hintedQUE1Size || len(in) != 1 || in[0] != knownRES1Size {
					t.Fatalf("round %d: sent %v B, received %v B; want [%d] and [%d]", r, sent, in, hintedQUE1Size, knownRES1Size)
				}
			}
		})
	}
}
