package core

// Which horizon a retransmission waits at (retry.go: lightFloor; subject.go:
// que1Wait, que2Wait). A light leg — an answer that costs the peer no
// public-key operation — waits the measured round trip once there is one; a
// full leg, and any leg before the first sample, waits the policy's schedule.

import (
	"testing"
	"time"

	"argus/internal/netsim"
	"argus/internal/obs"
	"argus/internal/transport"
	"argus/internal/wire"
)

func TestRetransmissionHorizons(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	p := DefaultRetry()
	rows := []struct {
		name    string
		samples []time.Duration // fed to the estimator first
		resumed bool            // the QUE2 leg is light
		silent  [2]int          // silent expected peers, and how many of them unhinted
		que1    []time.Duration // que1Wait(1), (2), ...
		que2    []time.Duration // que2Wait(1), (2), ...
	}{
		{"no sample yet: Timeout, light or not", nil, true, [2]int{1, 0},
			[]time.Duration{ms(250), ms(500), ms(1000)}, []time.Duration{ms(250), ms(500), ms(1000)}},
		{"light legs after a sample: the floor G", []time.Duration{ms(2)}, true, [2]int{2, 0},
			[]time.Duration{lightFloor, 2 * lightFloor, 4 * lightFloor}, []time.Duration{lightFloor, 2 * lightFloor, 4 * lightFloor}},
		{"light legs above the floor: srtt + 4·rttvar", []time.Duration{ms(40)}, true, [2]int{1, 0},
			[]time.Duration{ms(120), ms(240), ms(480)}, []time.Duration{ms(120), ms(240), ms(480)}},
		{"full legs after a sample: Timeout stays the floor", []time.Duration{ms(2)}, false, [2]int{2, 1},
			[]time.Duration{ms(250), ms(500), ms(1000)}, []time.Duration{ms(250), ms(500), ms(1000)}},
		{"a full leg above Timeout: the measured horizon", []time.Duration{ms(100)}, false, [2]int{1, 1},
			[]time.Duration{ms(250), ms(500), ms(1000)}, []time.Duration{ms(300), ms(500), ms(1000)}},
		{"nobody silent (a blind round's probes): Timeout", []time.Duration{ms(2)}, true, [2]int{0, 0},
			[]time.Duration{ms(250), ms(500), ms(1000)}, nil},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			s := &Subject{retry: p}
			for _, d := range r.samples {
				s.rtt.observe(d)
			}
			s.silent, s.silentFull = r.silent[0], r.silent[1]
			sess := &subjSession{resumed: r.resumed}
			for i, want := range r.que1 {
				if got := s.que1Wait(i + 1); got != want {
					t.Errorf("que1Wait(%d) = %v, want %v", i+1, got, want)
				}
			}
			for i, want := range r.que2 {
				if got := s.que2Wait(sess, i+1); got != want {
					t.Errorf("que2Wait(%d) = %v, want %v", i+1, got, want)
				}
			}
		})
	}
}

// TestResumedQUE2RetransmitsAtTheHorizon: a resumed session's RES2 is lost.
// The QUE2 goes again one light horizon after it was sent, well inside
// Timeout, and the round completes; with both tickets gone first, the same
// loss on the full handshake waits Timeout.
func TestResumedQUE2RetransmitsAtTheHorizon(t *testing.T) {
	for _, full := range []bool{false, true} {
		name := "resumed"
		if full {
			name = "first contact"
		}
		t.Run(name, func(t *testing.T) {
			f := newProbeFixture(t, "alice", L2)
			f.round()
			f.untilQuiet()
			o := f.at(L2)
			if full {
				f.subject.tickets.flush()
				o.tickets.flush()
			}
			var que2At, horizon []time.Duration
			lost := false
			f.drop = func(_, _ netsim.NodeID, m wire.Message) bool {
				switch m.Type() {
				case wire.TQUE2:
					que2At = append(que2At, f.net.Now())
					for _, sess := range f.subject.sessions {
						horizon = append(horizon, f.subject.que2Wait(sess, 1))
					}
				case wire.TRES2:
					if !lost {
						lost = true
						return true
					}
				}
				return false
			}
			before := f.retransmitted(obs.L("msg", msgQUE2))
			if got := f.round(); len(got) != 1 || !lost {
				t.Fatalf("%d devices found (RES2 lost: %v), want 1", len(got), lost)
			}
			if len(que2At) != 2 || len(horizon) != 2 {
				t.Fatalf("%d QUE2 on the air, want 2", len(que2At))
			}
			if n := f.retransmitted(obs.L("msg", msgQUE2)) - before; n != 1 {
				t.Errorf("%d QUE2 retransmissions, want 1", n)
			}
			// Timed on the air: a frame may wait a millisecond or two for the
			// medium.
			gap, h := que2At[1]-que2At[0], horizon[0]
			if gap < h || gap > h+5*time.Millisecond {
				t.Errorf("QUE2 resent after %v, want its horizon %v", gap, h)
			}
			if light := h < DefaultRetry().Timeout; light == full {
				t.Errorf("horizon %v against Timeout %v: light %v, want %v", h, DefaultRetry().Timeout, light, !full)
			}
		})
	}
}

// TestBlindChainKeepsTheSchedule: a blind round in a cell where everyone
// answered and every answer was light still probes on the policy's schedule —
// the light horizon times out a silent peer, and a blind round has none.
func TestBlindChainKeepsTheSchedule(t *testing.T) {
	f := newProbeFixture(t, "alice", L1, L2, L3)
	f.round()
	for (f.subject.round+1)%blindEvery != int(f.subject.prov.ID[15])%blindEvery {
		f.round()
	}
	if !f.subject.rtt.valid {
		t.Fatal("no round-trip sample after a round")
	}
	probes := f.retransmitted(que1Probe...)
	if got := f.round(); len(got) != 3 || !f.subject.blind {
		t.Fatalf("blind round (%v) found %d devices, want 3", f.subject.blind, len(got))
	}
	f.wantChain("a later blind round", false)
	if n := f.retransmitted(que1Probe...) - probes; n != int64(DefaultRetry().Que1Retries) {
		t.Errorf("%d probes, want %d", n, DefaultRetry().Que1Retries)
	}
}

// TestWheelRearmAllocations holds arming, canceling and re-arming a deadline
// on the production transport to zero allocations: the wheel owns one timer
// and moves it.
func TestWheelRearmAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	m := transport.NewMesh()
	t.Cleanup(m.Close)
	w := newTimerWheel(m.Join())
	var e wheelEntry
	task := wheelFunc(func() {})
	if n := testing.AllocsPerRun(1000, func() { rearm(w, &e, task) }); n != 0 { // AllocsPerRun warms up once
		t.Errorf("arm, cancel and re-arm allocate %v times, want 0", n)
	}
}

// rearm is one arm, cancel and re-arm of e: the timer set, stopped as the
// heap empties, and set again.
func rearm(w *timerWheel, e *wheelEntry, task wheelTask) {
	w.scheduleIn(e, time.Hour, task)
	w.cancel(e)
	w.scheduleIn(e, time.Hour, task)
	w.cancel(e)
}

// BenchmarkWheelRearm is rearm on a Mesh endpoint's timer; make bench-check
// holds it at 0 allocs/op.
func BenchmarkWheelRearm(b *testing.B) {
	m := transport.NewMesh()
	b.Cleanup(m.Close)
	w := newTimerWheel(m.Join())
	var e wheelEntry
	task := wheelFunc(func() {})
	rearm(w, &e, task) // the first Reset makes the timer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rearm(w, &e, task)
	}
}
