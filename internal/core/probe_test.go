package core

// The QUE1 rebroadcast decision (subject.go: expect, credit, armQue1): a table
// of rounds on the virtual clock, none of them ended by CompleteRound. A
// round's first QUE1 always goes out; the chain behind it runs while a peer
// the ledger expects is silent, and whoever answers in a blind round.

import (
	"testing"
	"time"

	"argus/internal/attr"
	"argus/internal/groups"
	"argus/internal/netsim"
	"argus/internal/obs"
	"argus/internal/wire"
)

// probeFixture is one staff subject, a fellow of the covert group, in a cell
// with a Level 1, a Level 2 and a Level 3 device under the default policy, on
// links that finish the longest exchange long before the first deadline.
type probeFixture struct {
	*deployment
	reg   *obs.Registry
	opts  []Option
	group groups.ID

	// Frames of the round in flight: when each QUE1 went out, and how many
	// frames of any type (a broadcast is one, however many hear it).
	que1At []time.Duration
	frames int
	// drop, when set, is the round's loss: it sees every frame on its way.
	drop func(from, to netsim.NodeID, m wire.Message) bool
}

var probeLink = netsim.LinkModel{PerMessage: time.Millisecond, BytesPerSecond: 10_000_000, PropagationDelay: time.Millisecond}

func newProbeFixture(t *testing.T, subject string, levels ...Level) *probeFixture {
	t.Helper()
	f := &probeFixture{deployment: newDeployment(t), reg: obs.NewRegistry()}
	f.net = netsim.New(probeLink, 1)
	f.net.Snoop(func(_, _ netsim.NodeID, p []byte) {
		m, err := wire.Decode(p)
		switch now := f.net.Now(); {
		case err != nil:
		case m.Type() != wire.TQUE1:
			f.frames++
		case len(f.que1At) == 0 || f.que1At[len(f.que1At)-1] != now:
			f.frames++
			f.que1At = append(f.que1At, now)
		}
	})
	f.net.SetDropFilter(func(from, to netsim.NodeID, p []byte) bool {
		m, err := wire.Decode(p)
		return err == nil && f.drop != nil && f.drop(from, to, m)
	})
	f.b.AddPolicy(attr.MustParse("position=='staff'"), attr.MustParse("type=='device'"), []string{"use"})
	f.opts = []Option{WithRetry(DefaultRetry()), WithTelemetry(f.reg, nil)}
	sid, _, err := f.b.RegisterSubject(subject, attr.MustSet("position=staff"))
	if err != nil {
		t.Fatal(err)
	}
	grp, err := f.b.Groups.CreateGroup("fellows")
	if err != nil {
		t.Fatal(err)
	}
	if err := f.b.AddSubjectToGroup(sid, grp.ID()); err != nil {
		t.Fatal(err)
	}
	f.group = grp.ID()
	f.attachSubject(sid, wire.V30, f.opts...)
	for _, l := range levels {
		f.join(l)
	}
	return f
}

// join adds a device of the given level to the cell, named after it.
func (f *probeFixture) join(level Level) *Object {
	f.t.Helper()
	name := level.String() + "-" + string(rune('a'+len(f.objects)))
	oid, _, err := f.b.RegisterObject(name, level, attr.MustSet("type=device"), []string{"use"})
	if err != nil {
		f.t.Fatal(err)
	}
	if level == L3 {
		if err := f.b.AddCovertService(oid, f.group, []string{"use", "covert"}); err != nil {
			f.t.Fatal(err)
		}
	}
	return f.attachObject(oid, wire.V30, f.opts...)
}

func (f *probeFixture) at(level Level) *Object {
	for _, o := range f.objects {
		if o.Level() == level {
			return o
		}
	}
	f.t.Fatalf("no %v device in the cell", level)
	return nil
}

func (f *probeFixture) node(o *Object) netsim.NodeID {
	id, _ := netsim.NodeOf(o.ep.Addr())
	return id
}

// round starts a round and runs the simulator until nothing is left to
// happen: every deadline the round armed has fired or was canceled. It
// returns the round's discoveries.
func (f *probeFixture) round() []Discovery {
	f.t.Helper()
	seen := len(f.subject.Results())
	f.que1At, f.frames = nil, 0
	if err := f.subject.Discover(1); err != nil {
		f.t.Fatal(err)
	}
	f.net.Run(0)
	return f.subject.Results()[seen:]
}

// untilQuiet runs lossless rounds until the coming one is not blind: most
// rows below are about what a round does by its ledger.
func (f *probeFixture) untilQuiet() {
	f.t.Helper()
	loss := f.drop
	f.drop = nil
	for (f.subject.round+1)%blindEvery == int(f.subject.prov.ID[15])%blindEvery {
		f.round()
	}
	f.drop = loss
}

// quietRound is the next round that is not blind.
func (f *probeFixture) quietRound() []Discovery {
	f.t.Helper()
	f.untilQuiet()
	return f.round()
}

func (f *probeFixture) retransmitted(labels ...obs.Label) int64 {
	return counterValue(f.t, f.reg, obs.MRetransmissions, labels...)
}

var (
	que1Timeout = []obs.Label{obs.L("msg", msgQUE1), obs.L("cause", obs.CauseTimeout)}
	que1Probe   = []obs.Label{obs.L("msg", msgQUE1), obs.L("cause", obs.CauseProbe)}
)

// wantChain asserts the round in flight rebroadcast QUE1 on the full
// schedule: Que1Retries copies behind the first, each one policy delay after
// the one before — the first of them after the round's last answer.
func (f *probeFixture) wantChain(when string) {
	f.t.Helper()
	p := DefaultRetry()
	if len(f.que1At) != 1+p.Que1Retries {
		f.t.Fatalf("%s: %d QUE1 on the air, want %d", when, len(f.que1At), 1+p.Que1Retries)
	}
	if first := f.que1At[1] - f.que1At[0]; first < p.delay(1) || first > p.delay(1)+50*time.Millisecond {
		f.t.Errorf("%s: first rebroadcast %v after the QUE1, want %v after the last answer", when, first, p.delay(1))
	}
	for i := 2; i < len(f.que1At); i++ {
		if gap := f.que1At[i] - f.que1At[i-1]; gap != p.delay(i) {
			f.t.Errorf("%s: rebroadcast %d came %v after the one before, want %v", when, i, gap, p.delay(i))
		}
	}
}

// TestFirstRoundIsBlind: an engine that has heard nobody rebroadcasts on the
// schedule it always had — exactly the policy's offsets in a cell where
// nothing comes back, the same chain behind the last answer in one where
// everything does — and every copy is a probe.
func TestFirstRoundIsBlind(t *testing.T) {
	f := newProbeFixture(t, "alice", L1)
	f.drop = func(_, _ netsim.NodeID, m wire.Message) bool { return m.Type() == wire.TRES1 }
	f.round()
	want := DefaultRetry().Schedule(DefaultRetry().Que1Retries)
	if len(f.que1At) != len(want) {
		t.Fatalf("%d QUE1 in a silent cell, want %d", len(f.que1At), len(want))
	}
	for i, at := range f.que1At {
		if at -= f.que1At[0]; at != want[i] {
			t.Errorf("QUE1 %d went out %v after the first, want %v", i, at, want[i])
		}
	}

	f = newProbeFixture(t, "alice", L1, L2, L3)
	if got := f.round(); len(got) != 3 {
		t.Fatalf("first round found %d devices, want 3", len(got))
	}
	f.wantChain("first round")
	if probes, timeouts := f.retransmitted(que1Probe...), f.retransmitted(que1Timeout...); probes != 5 || timeouts != 0 {
		t.Errorf("first round: %d probes and %d timeouts, want 5 and 0", probes, timeouts)
	}
}

// TestQuietRoundSendsNothingMore: a lossless round in a known cell is one
// QUE1 and the answers — 1 + 1 + 3 + 3 frames — and when the last discovery
// lands the wheel is empty: nothing waits to fire.
func TestQuietRoundSendsNothingMore(t *testing.T) {
	f := newProbeFixture(t, "alice", L1, L2, L3)
	f.round()
	before := f.retransmitted()
	heard, pendingAtLast := 0, -1
	f.subject.OnDiscovery = func(Discovery) {
		if heard++; heard == 3 {
			pendingAtLast = f.subject.wheel.pending()
		}
	}
	got := f.quietRound()
	if len(got) != 3 {
		t.Fatalf("second round found %d devices, want 3", len(got))
	}
	if f.frames != 8 || len(f.que1At) != 1 {
		t.Errorf("%d frames, %d of them QUE1; want 8 and 1", f.frames, len(f.que1At))
	}
	if n := f.retransmitted() - before; n != 0 {
		t.Errorf("%d retransmissions, want 0", n)
	}
	if pendingAtLast != 0 {
		t.Errorf("%d wheel entries left when the last discovery landed, want 0", pendingAtLast)
	}
	if took := got[2].At - f.que1At[0]; took >= DefaultRetry().Timeout {
		t.Errorf("the last discovery landed after %v: something waited for a timer", took)
	}
}

// TestSilentExpectedPeerDrawsOneRebroadcast: the frame an expected peer's
// discovery hangs on is lost. One rebroadcast goes out one RTO later, as a
// timeout; the peer answers it (a Level 1 device from its cache), and the
// chain ends there.
func TestSilentExpectedPeerDrawsOneRebroadcast(t *testing.T) {
	rows := []struct {
		name  string
		level Level
		lost  wire.MsgType
	}{
		{"the Level 1 device's RES1 is lost", L1, wire.TRES1},
		{"the Level 2 device never hears QUE1", L2, wire.TQUE1},
		{"the Level 3 device never hears QUE1", L3, wire.TQUE1},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			f := newProbeFixture(t, "alice", L1, L2, L3)
			f.round()
			f.untilQuiet()
			victim, lost := f.node(f.at(r.level)), false
			f.drop = func(from, to netsim.NodeID, m wire.Message) bool {
				if !lost && m.Type() == r.lost && (from == victim || to == victim) {
					lost = true
					return true
				}
				return false
			}
			resent, timeouts, probes := f.retransmitted(obs.L("msg", msgRES1)), f.retransmitted(que1Timeout...), f.retransmitted(que1Probe...)
			if got := f.round(); len(got) != 3 || !lost {
				t.Fatalf("%d devices found (frame lost: %v), want 3", len(got), lost)
			}
			if len(f.que1At) != 2 {
				t.Fatalf("%d QUE1 on the air, want 2", len(f.que1At))
			}
			rto := f.subject.rtt.rto(DefaultRetry().Timeout)
			if gap := f.que1At[1] - f.que1At[0]; gap < rto || gap > rto+50*time.Millisecond {
				t.Errorf("rebroadcast after %v, want one RTO (%v) after the last answer", gap, rto)
			}
			if timeouts, probes = f.retransmitted(que1Timeout...)-timeouts, f.retransmitted(que1Probe...)-probes; timeouts != 1 || probes != 0 {
				t.Errorf("%d timeouts and %d probes, want 1 and 0", timeouts, probes)
			}
			// The Level 1 device answered both QUE1s, the second from its cache.
			if n := f.retransmitted(obs.L("msg", msgRES1)) - resent; n != 1 {
				t.Errorf("%d RES1 resent, want the Level 1 device's one", n)
			}
			if n := f.subject.wheel.pending(); n != 0 {
				t.Errorf("%d wheel entries left", n)
			}
		})
	}
}

// TestRebroadcastRestartsAnEvictedSession: RES2 is lost and the object has
// dropped its half of the session, so no QUE2 resend can be answered. The
// peer is expected and silent, the rebroadcast goes out, and the object
// restarts the handshake from it — as it did when every round rebroadcast.
func TestRebroadcastRestartsAnEvictedSession(t *testing.T) {
	f := newProbeFixture(t, "alice", L1, L2)
	f.round()
	f.untilQuiet()
	o, lost := f.at(L2), false
	f.drop = func(_, _ netsim.NodeID, m wire.Message) bool {
		if !lost && m.Type() == wire.TRES2 {
			lost = true
			for _, sess := range o.sessions {
				o.remove(sess)
			}
			return true
		}
		return false
	}
	before := f.retransmitted(que1Timeout...)
	if got := f.round(); len(got) != 2 || !lost {
		t.Fatalf("%d devices found (RES2 lost: %v), want 2", len(got), lost)
	}
	if n := f.retransmitted(que1Timeout...) - before; n < 1 {
		t.Errorf("%d QUE1 timeouts, want the one that restarted the handshake", n)
	}
	if s, obj := f.subject.PendingSessions(), o.PendingSessions(); s != 0 || obj != 0 {
		t.Errorf("sessions left: subject %d, object %d", s, obj)
	}
}

// TestLeaverCostsEightRounds: a device that stops answering — it left, or it
// refuses this subject since a revocation, which on the air is the same
// silence — draws the full chain, as timeouts, in each of the next blindEvery
// rounds, and then nothing: the rounds after that are one QUE1 and the
// answers of who is left.
func TestLeaverCostsEightRounds(t *testing.T) {
	rows := []struct {
		name  string
		leave func(f *probeFixture)
		left  int // devices still answering
		// chain: the silence is total, so nothing resets the chain and it is
		// the policy's schedule. A refusing device still sends its RES1, and
		// that activity restarts the chain each time.
		chain bool
	}{
		{"the Level 2 device leaves", func(f *probeFixture) { f.net.Unlink(f.subjNode, f.node(f.at(L2))) }, 2, true},
		{"the subject is revoked", func(f *probeFixture) {
			for _, o := range f.objects {
				o.Revoke(f.subject.ID())
			}
		}, 1, false},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			f := newProbeFixture(t, "alice", L1, L2, L3)
			f.round()
			r.leave(f)
			for i := 1; i <= blindEvery+4; i++ {
				timeouts, probes := f.retransmitted(que1Timeout...), f.retransmitted(que1Probe...)
				if got := f.round(); len(got) != r.left {
					t.Fatalf("round %d after: %d devices found, want %d", i, len(got), r.left)
				}
				timeouts, probes = f.retransmitted(que1Timeout...)-timeouts, f.retransmitted(que1Probe...)-probes
				switch {
				case i <= blindEvery && r.chain:
					f.wantChain("while the leaver is expected")
					fallthrough
				case i <= blindEvery:
					if timeouts < 5 || probes != 0 {
						t.Errorf("round %d after: %d timeouts and %d probes, want the chain and 0", i, timeouts, probes)
					}
				case f.subject.blind:
					if timeouts != 0 || probes < 5 {
						t.Errorf("round %d after, blind: %d timeouts and %d probes, want 0 and the chain", i, timeouts, probes)
					}
				default:
					if len(f.que1At) != 1 || timeouts+probes != 0 {
						t.Errorf("round %d after: %d QUE1 on the air, want 1", i, len(f.que1At))
					}
				}
			}
			if n := len(f.subject.answered); n != r.left {
				t.Errorf("the ledger holds %d peers, want the %d still answering", n, r.left)
			}
		})
	}
}

// TestNewcomerIsHeard: a device that joins a known cell is found by the next
// round's first QUE1, without a rebroadcast. One that is asleep whenever a
// round begins — it hears nothing in a round's first 100 ms — is out of every
// first QUE1's reach and is found by a blind round's chain, within blindEvery
// rounds; from then on it is expected, and found every round.
func TestNewcomerIsHeard(t *testing.T) {
	f := newProbeFixture(t, "alice", L1, L2)
	f.round()
	f.join(L2)
	if got := f.quietRound(); len(got) != 3 || len(f.que1At) != 1 {
		t.Fatalf("%d devices found over %d QUE1, want 3 over 1", len(got), len(f.que1At))
	}

	sleepy := f.node(f.join(L3))
	f.drop = func(_, to netsim.NodeID, _ wire.Message) bool {
		return to == sleepy && f.net.Now()-f.subject.que1At < 100*time.Millisecond
	}
	for i := 1; ; i++ {
		if i > blindEvery {
			t.Fatalf("the sleepy newcomer was not found in %d rounds", blindEvery)
		}
		got := f.round()
		if len(got) == 4 {
			if !f.subject.blind {
				t.Errorf("round %d found the sleepy newcomer without being blind", i)
			}
			break
		}
		if len(got) != 3 || f.subject.blind {
			t.Fatalf("round %d (blind: %v) found %d devices", i, f.subject.blind, len(got))
		}
		if len(f.que1At) != 1 {
			t.Errorf("round %d: %d QUE1 for a device the ledger does not show, want 1", i, len(f.que1At))
		}
	}
	timeouts := f.retransmitted(que1Timeout...)
	if got := f.quietRound(); len(got) != 4 {
		t.Fatalf("the round after found %d devices, want 4", len(got))
	}
	if len(f.que1At) != 2 || f.retransmitted(que1Timeout...)-timeouts != 1 {
		t.Errorf("%d QUE1, %d of them timeouts; want the first and one timeout for the sleeper",
			len(f.que1At), f.retransmitted(que1Timeout...)-timeouts)
	}
}

// TestBlindRoundsDoNotAlign: two subjects started together are blind together
// in their first round and never again — each on its own eighth round.
func TestBlindRoundsDoNotAlign(t *testing.T) {
	blindRounds := func(name string) (rounds []int) {
		f := newProbeFixture(t, name)
		for r := 1; r <= 1+2*blindEvery; r++ {
			if err := f.subject.Discover(1); err != nil {
				t.Fatal(err)
			}
			if f.subject.blind {
				rounds = append(rounds, r)
			}
		}
		return rounds
	}
	a, b := blindRounds("alice"), blindRounds("bob")
	for _, rounds := range [][]int{a, b} {
		if len(rounds) != 3 || rounds[0] != 1 || rounds[2]-rounds[1] != blindEvery {
			t.Fatalf("blind in rounds %v, want the first and then every %dth", rounds, blindEvery)
		}
	}
	if a[1] == b[1] {
		t.Errorf("both blind in round %d: pick names whose IDs differ mod %d", a[1], blindEvery)
	}
}

// TestRefreshKeepsTheLedger: a re-provisioned subject flushes its tickets, not
// what it knows about who is in the cell — the next round still times out for
// a silent peer.
func TestRefreshKeepsTheLedger(t *testing.T) {
	f := newProbeFixture(t, "alice", L1, L2)
	f.round()
	f.quietRound()
	prov, err := f.b.ProvisionSubject(f.subject.ID())
	if err != nil {
		t.Fatal(err)
	}
	f.subject.Refresh(prov)
	if n := len(f.subject.answered); n != 2 {
		t.Fatalf("ledger holds %d peers after Refresh, want 2", n)
	}
	f.untilQuiet()
	victim, lost := f.node(f.at(L2)), false
	f.drop = func(_, to netsim.NodeID, m wire.Message) bool {
		if !lost && m.Type() == wire.TQUE1 && to == victim {
			lost = true
			return true
		}
		return false
	}
	before := f.retransmitted(que1Timeout...)
	if got := f.round(); len(got) != 2 || !lost {
		t.Fatalf("%d devices found (QUE1 lost: %v), want 2", len(got), lost)
	}
	if n := f.retransmitted(que1Timeout...) - before; n != 1 {
		t.Errorf("%d QUE1 timeouts for the silent peer after Refresh, want 1", n)
	}
}

// TestCompleteRoundStillSilencesEverything: a harness that knows better ends
// the chain whatever the ledger says — in a blind round, and in one with an
// expected peer silent for good.
func TestCompleteRoundStillSilencesEverything(t *testing.T) {
	f := newProbeFixture(t, "alice", L1, L2)
	for _, when := range []string{"a blind round", "a round with a silent peer"} {
		before := f.retransmitted()
		f.que1At = nil
		if err := f.subject.Discover(1); err != nil {
			t.Fatal(err)
		}
		f.net.Run(f.net.Now() + 100*time.Millisecond)
		f.subject.CompleteRound()
		f.net.Run(0)
		if len(f.que1At) != 1 {
			t.Errorf("%s: %d QUE1 on the air after CompleteRound, want 1", when, len(f.que1At))
		}
		if n := f.retransmitted() - before; n != 0 {
			t.Errorf("%s: %d retransmissions, want 0", when, n)
		}
		f.untilQuiet()
		f.net.Unlink(f.subjNode, f.node(f.at(L2)))
	}
}
