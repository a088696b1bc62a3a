package core

// Session-table garbage collection under targeted total loss: if a specific
// message type never arrives, the half-open handshakes it strands must be
// reclaimed at SessionTTL on BOTH sides — a lost RES2 may not leak sessions
// (ISSUE satellite: subject and object maps return to size 0).

import (
	"testing"
	"time"

	"argus/internal/attr"
	"argus/internal/backend"
	"argus/internal/netsim"
	"argus/internal/obs"
	"argus/internal/suite"
	"argus/internal/transport"
	"argus/internal/wire"
)

// dropType installs a drop filter that loses every frame of one wire type —
// "100% RES1 loss" etc. — something a probabilistic FaultModel cannot
// express. netsim stays wire-agnostic; the test supplies the decoder.
func dropType(net *netsim.Network, mt wire.MsgType) {
	net.SetDropFilter(func(_, _ netsim.NodeID, p []byte) bool {
		m, err := wire.Decode(p)
		return err == nil && m.Type() == mt
	})
}

// gcFixture builds a 3-object L2 deployment with retry enabled and a
// registry, returning it plus the policy in force.
func gcFixture(t *testing.T) (*deployment, RetryPolicy, *obs.Registry) {
	t.Helper()
	d := newDeployment(t)
	reg := obs.NewRegistry()
	d.b.AddPolicy(attr.MustParse("position=='staff'"),
		attr.MustParse("type=='device'"), []string{"use"})
	p := DefaultRetry()
	d.addSubject("alice", attr.MustSet("position=staff"), wire.V30,
		WithRetry(p), WithTelemetry(reg, nil))
	for _, n := range []string{"obj-a", "obj-b", "obj-c"} {
		d.addObject(n, L2, attr.MustSet("type=device"), []string{"use"}, wire.V30,
			WithRetry(p), WithTelemetry(reg, nil))
	}
	return d, p, reg
}

func (d *deployment) objectPending() int {
	n := 0
	for _, o := range d.objects {
		n += o.PendingSessions()
	}
	return n
}

// counterValue sums every counter of the family whose labels are a superset
// of the given ones.
func counterValue(t *testing.T, reg *obs.Registry, name string, labels ...obs.Label) int64 {
	t.Helper()
	var total int64
next:
	for _, m := range reg.Snapshot().Metrics {
		if m.Name != name {
			continue
		}
		for _, want := range labels {
			if m.Labels[want.Key] != want.Value {
				continue next
			}
		}
		total += int64(m.Value)
	}
	return total
}

func TestSessionGCUnderTotalRES1Loss(t *testing.T) {
	d, p, reg := gcFixture(t)
	dropType(d.net, wire.TRES1)

	if err := d.subject.Discover(1); err != nil {
		t.Fatal(err)
	}
	d.net.Run(0)

	// No RES1 ever arrived: the subject opened nothing, every object strands
	// one half-open session per QUE1 — all reclaimed by the expiry pass.
	if got := d.subject.PendingSessions(); got != 0 {
		t.Fatalf("subject pending = %d, want 0 (it never saw RES1)", got)
	}
	if got := d.objectPending(); got != 0 {
		t.Fatalf("objects leaked %d sessions after SessionTTL", got)
	}
	if got := counterValue(t, reg, obs.MSessionsExpired, obs.L("role", "object")); got != 3 {
		t.Fatalf("object expiry counter = %d, want 3 (one stranded session each)", got)
	}
	if len(d.subject.Results()) != 0 {
		t.Fatal("discoveries recorded with every RES1 dropped")
	}
	// Regression pin on the expiry budget: the whole round — retries plus
	// GC — settles within SessionTTL plus the last-retry tail and slack.
	// Growing this bound means the expiry schedule regressed.
	budget := p.ttl() + 2*time.Second
	if d.net.Now() > budget {
		t.Fatalf("round settled at %v, budget %v", d.net.Now(), budget)
	}
}

func TestSessionGCUnderTotalRES2Loss(t *testing.T) {
	d, p, reg := gcFixture(t)
	dropType(d.net, wire.TRES2)

	if err := d.subject.Discover(1); err != nil {
		t.Fatal(err)
	}
	d.net.Run(0)

	// The handshake ran to QUE2 on both sides; only the final RES2 vanished.
	// Both tables must drain: the subject's pending sessions and the
	// objects' answered sessions (kept for duplicate-QUE2 resends).
	if got := d.subject.PendingSessions(); got != 0 {
		t.Fatalf("subject leaked %d sessions after SessionTTL", got)
	}
	if got := d.objectPending(); got != 0 {
		t.Fatalf("objects leaked %d sessions after SessionTTL", got)
	}
	if got := counterValue(t, reg, obs.MSessionsExpired, obs.L("role", "subject")); got != 3 {
		t.Fatalf("subject expiry counter = %d, want 3", got)
	}
	if got := counterValue(t, reg, obs.MRetransmissions, obs.L("role", "subject"), obs.L("msg", "que2")); got == 0 {
		t.Fatal("subject never retransmitted QUE2 while RES2 was being dropped")
	}
	if len(d.subject.Results()) != 0 {
		t.Fatal("discoveries recorded with every RES2 dropped")
	}
	// The objects collect their answered sessions at TTL/2, so later probes
	// restart the handshake and every restart's RES1 revives the probe chain:
	// only the round's lifetime ends it. The last restart begins inside the
	// lifetime and its sessions live one more TTL.
	budget := (roundLifetimeTTLs+1)*p.ttl() + 2*time.Second
	if d.net.Now() > budget {
		t.Fatalf("round settled at %v, budget %v", d.net.Now(), budget)
	}
}

// TestRetryDisabledKeepsSeedSessionSemantics pins that the zero policy keeps
// the pre-retry behavior: no expiry timers (sessions prune by round age), no
// resends, and a lost RES2 leaves the session until the next-next round.
func TestRetryDisabledKeepsSeedSessionSemantics(t *testing.T) {
	d := newDeployment(t)
	d.b.AddPolicy(attr.MustParse("position=='staff'"),
		attr.MustParse("type=='device'"), []string{"use"})
	d.addSubject("alice", attr.MustSet("position=staff"), wire.V30)
	d.addObject("obj-a", L2, attr.MustSet("type=device"), []string{"use"}, wire.V30)
	dropType(d.net, wire.TRES2)

	d.run()
	if got := d.subject.PendingSessions(); got != 1 {
		t.Fatalf("subject pending = %d, want 1 (no expiry without retry)", got)
	}
	d.net.SetDropFilter(nil)
	d.run() // round 2: prune keeps round-1 sessions (age 1)
	d.run() // round 3: round-1 session pruned
	if got := d.subject.PendingSessions(); got != 0 {
		t.Fatalf("subject pending = %d after two more rounds, want 0 (round pruning)", got)
	}
}

// TestMeshAdaptiveObjectRestartsExpiredSession proves the expired-duplicate
// restart cue: a QUE1 rebroadcast whose object-side session aged out
// entirely clears the duplicate-suppression entry and is served a fresh
// handshake, while a duplicate with a live session gets the cached RES1.
func TestMeshAdaptiveObjectRestartsExpiredSession(t *testing.T) {
	b, err := backend.New(suite.S128)
	if err != nil {
		t.Fatal(err)
	}
	oid, _, err := b.RegisterObject("device", L2, attr.MustSet("type=device"), []string{"use"})
	if err != nil {
		t.Fatal(err)
	}
	oprov, err := b.ProvisionObject(oid)
	if err != nil {
		t.Fatal(err)
	}

	mesh := transport.NewMesh()
	defer mesh.Close()
	reg := obs.NewRegistry()
	retry := RetryPolicy{Que1Retries: 2, Que2Retries: 2, Timeout: 50 * time.Millisecond,
		SessionTTL: 300 * time.Millisecond}
	obj := NewObject(oprov, wire.V30, Costs{},
		WithEndpoint(mesh.Join()), WithRetry(retry), WithTelemetry(reg, nil))

	// A bare listener stands in for the subject: it sends raw QUE1 frames
	// and counts the RES1s the object answers with.
	lep := mesh.Join()
	var res1s int64
	lep.Bind(transport.HandlerFunc(func(from transport.Addr, payload []byte) {
		if m, err := wire.Decode(payload); err == nil {
			if _, ok := m.(*wire.RES1); ok {
				res1s++
			}
		}
	}))
	count := func() int64 {
		ch := make(chan int64, 1)
		lep.Do(func() { ch <- res1s })
		return <-ch
	}

	rs, err := suite.NewNonce(nil)
	if err != nil {
		t.Fatal(err)
	}
	q := (&wire.QUE1{Version: wire.V30, RS: rs}).Encode()

	lep.Do(func() { lep.Send(obj.ep.Addr(), q) })
	meshPoll(t, 5*time.Second, func() bool { return count() == 1 }, "first RES1")

	// Same R_S while the session is live: duplicate, served the cached RES1.
	lep.Do(func() { lep.Send(obj.ep.Addr(), q) })
	meshPoll(t, 5*time.Second, func() bool { return count() == 2 }, "cached RES1 resend")

	// Let the unanswered session age out entirely, then probe again: the
	// object must treat it as a restart and serve a fresh handshake rather
	// than staying silent forever.
	meshPoll(t, 5*time.Second, func() bool { return obj.PendingSessions() == 0 },
		"object session TTL GC")
	lep.Do(func() { lep.Send(obj.ep.Addr(), q) })
	meshPoll(t, 5*time.Second, func() bool { return count() == 3 }, "fresh RES1 after restart")
}

// TestKarnRecoveredExchangeIsNoRTTSample: a round that recovers through two
// QUE1 probes and one QUE2 retransmission must leave the RTT estimator
// unfed — an answer after a retransmission cannot be matched to one
// transmission (RFC 6298 §3), and timing it from the first would feed every
// recovery's duration back into the timeout (at 20% loss the horizon grew
// 16 s → 41 s → 103 s before the guard).
func TestKarnRecoveredExchangeIsNoRTTSample(t *testing.T) {
	d, p, reg := gcFixture(t)
	left := map[wire.MsgType]int{wire.TRES1: 2 * len(d.objects), wire.TRES2: len(d.objects)}
	d.net.SetDropFilter(func(_, _ netsim.NodeID, payload []byte) bool {
		m, err := wire.Decode(payload)
		if err != nil || left[m.Type()] == 0 {
			return false
		}
		left[m.Type()]--
		return true
	})

	if got := len(d.run()); got != len(d.objects) {
		t.Fatalf("discoveries = %d, want %d (recovery through retransmission)", got, len(d.objects))
	}
	if got := counterValue(t, reg, obs.MRetransmissions, obs.L("role", "subject")); got < 3 {
		t.Fatalf("subject retransmissions = %d, want the two probes and a QUE2 resend", got)
	}
	if got := d.subject.rtt.rto(p.Timeout); got != p.Timeout {
		t.Fatalf("next round's RTO = %v, want the %v floor: a recovered exchange was sampled", got, p.Timeout)
	}
}
