package core

// These tests run the protocol engines on transport.Mesh — every node a real
// goroutine over a bounded mailbox, on the wall clock — instead of the
// deterministic simulator. They are the concurrency half of the transport
// abstraction's acceptance: the same engines that replay byte-identically
// under netsim must survive genuine parallelism under -race, and shed load
// with counted drops instead of deadlocking when flooded.

import (
	"fmt"
	"testing"
	"time"

	"argus/internal/attr"
	"argus/internal/backend"
	"argus/internal/obs"
	"argus/internal/suite"
	"argus/internal/transport"
	"argus/internal/wire"

	"argus/internal/transport/transporttest"
)

// meshRetry is tuned for wall-clock tests: fast retransmission, 1 s session
// GC so leak assertions converge quickly.
func meshRetry() RetryPolicy {
	return RetryPolicy{Que1Retries: 3, Que2Retries: 3, Timeout: 100 * time.Millisecond,
		SessionTTL: time.Second}
}

// meshFleet joins one staff subject and n Level 2 devices it may use to a
// fresh mesh, every engine under the given policy and registry. subjEP, when
// non-nil, wraps the subject's endpoint (fault-injecting tests).
func meshFleet(t *testing.T, n int, retry RetryPolicy, reg *obs.Registry,
	subjEP func(transport.Endpoint) transport.Endpoint) (transport.Endpoint, *Subject, []*Object) {
	t.Helper()
	b, err := backend.New(suite.S128)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.AddPolicy(attr.MustParse("position=='staff'"),
		attr.MustParse("type=='device'"), []string{"use"}); err != nil {
		t.Fatal(err)
	}
	sid, _, err := b.RegisterSubject("alice", attr.MustSet("position=staff"))
	if err != nil {
		t.Fatal(err)
	}
	mesh := transport.NewMesh()
	t.Cleanup(func() { mesh.Close() })

	sprov, err := b.ProvisionSubject(sid)
	if err != nil {
		t.Fatal(err)
	}
	var sep transport.Endpoint = mesh.Join()
	if subjEP != nil {
		sep = subjEP(sep)
	}
	subj := NewSubject(sprov, wire.V30, Costs{},
		WithEndpoint(sep), WithRetry(retry), WithTelemetry(reg, nil))

	objs := make([]*Object, n)
	for i := range objs {
		oid, _, err := b.RegisterObject(fmt.Sprintf("device-%02d", i), L2,
			attr.MustSet("type=device"), []string{"use"})
		if err != nil {
			t.Fatal(err)
		}
		prov, err := b.ProvisionObject(oid)
		if err != nil {
			t.Fatal(err)
		}
		objs[i] = NewObject(prov, wire.V30, Costs{},
			WithEndpoint(mesh.Join()), WithRetry(retry), WithTelemetry(reg, nil))
	}
	// Discover must run on the subject's event loop; Do is the only safe
	// entry from the test goroutine.
	sep.Do(func() {
		if err := subj.Discover(1); err != nil {
			t.Errorf("Discover: %v", err)
		}
	})
	return sep, subj, objs
}

// meshDrained reports whether every engine's session table is empty.
func meshDrained(subj *Subject, objs []*Object) bool {
	if subj.PendingSessions() != 0 {
		return false
	}
	for _, o := range objs {
		if o.PendingSessions() != 0 {
			return false
		}
	}
	return true
}

// meshPoll spins until cond holds or the deadline passes.
func meshPoll(t *testing.T, timeout time.Duration, cond func() bool, what string) {
	t.Helper()
	transporttest.WaitUntil(t, timeout, cond, what)
}

// TestMeshDiscoveryRace: one subject and 32 objects, all concurrent, one
// discovery round. Every object must be found exactly once and no session may
// leak — with the race detector watching every actor goroutine.
func TestMeshDiscoveryRace(t *testing.T) {
	const n = 32
	_, subj, objs := meshFleet(t, n, meshRetry(), nil, nil)

	meshPoll(t, 20*time.Second, func() bool { return len(subj.Results()) >= n },
		fmt.Sprintf("%d concurrent discoveries", n))

	res := subj.Results()
	if len(res) != n {
		t.Fatalf("discoveries = %d, want exactly %d", len(res), n)
	}
	seen := map[transport.Addr]bool{}
	for _, r := range res {
		if r.Level != L2 {
			t.Errorf("node %s discovered at %v, want L2", r.Node, r.Level)
		}
		if seen[r.Node] {
			t.Errorf("node %s discovered twice", r.Node)
		}
		seen[r.Node] = true
	}

	// Sessions on both sides are garbage-collected within the TTL.
	meshPoll(t, 10*time.Second, func() bool { return meshDrained(subj, objs) },
		"session GC on all engines")
}

// TestMeshAdaptiveLosslessZeroRetransmissions: on a lossless transport a
// subject finishes a discovery round with zero retransmissions — the deadline
// wheel keeps deferring while answers flow and, in the blind first round,
// CompleteRound drops the remaining deadlines. The policy leaves lots of headroom between mesh RTT
// (sub-millisecond) and the retransmission floor so a healthy run never
// plausibly hits a deadline even on a slow CI machine.
func TestMeshAdaptiveLosslessZeroRetransmissions(t *testing.T) {
	const n = 8
	reg := obs.NewRegistry()
	retry := RetryPolicy{Que1Retries: 3, Que2Retries: 3, Timeout: 2 * time.Second,
		SessionTTL: 3 * time.Second}
	sep, subj, objs := meshFleet(t, n, retry, reg, nil)

	meshPoll(t, 20*time.Second, func() bool { return len(subj.Results()) >= n },
		"lossless discoveries")
	// The harness knows the round is over; the engine drops its remaining
	// QUE1/QUE2 deadlines without any of them firing.
	sep.Do(subj.CompleteRound)

	meshPoll(t, 10*time.Second, func() bool { return meshDrained(subj, objs) },
		"session GC on all engines")

	if got := counterValue(t, reg, obs.MRetransmissions); got != 0 {
		t.Fatalf("lossless round retransmitted %d times, want 0", got)
	}
	// Subject sessions complete and are deleted before TTL; only the object
	// side ages out its answered sessions (it never learns RES2 arrived).
	if got := counterValue(t, reg, obs.MSessionsExpired, obs.L("role", "subject")); got != 0 {
		t.Fatalf("%d subject sessions expired, want 0", got)
	}

	// The second round needs no harness to end it: the engine has heard
	// everyone its ledger expects, and its wheel is empty the moment it has.
	sep.Do(func() {
		if err := subj.Discover(1); err != nil {
			t.Errorf("Discover: %v", err)
		}
	})
	meshPoll(t, 20*time.Second, func() bool { return len(subj.Results()) >= 2*n },
		"the second round's discoveries")
	armed := make(chan int, 1)
	sep.Do(func() { armed <- subj.wheel.pending() })
	if n := <-armed; n != 0 {
		t.Fatalf("%d deadlines armed after the last discovery of an undeclared round, want 0", n)
	}
	if got := counterValue(t, reg, obs.MRetransmissions); got != 0 {
		t.Fatalf("the second round retransmitted %d times, want 0", got)
	}
}

// que2Dropper wraps a subject's endpoint and swallows the first QUE2 it
// unicasts, simulating a lost frame on an otherwise healthy transport.
type que2Dropper struct {
	transport.Endpoint
	dropped bool
}

func (d *que2Dropper) Send(to transport.Addr, payload []byte) {
	if !d.dropped {
		if m, err := wire.Decode(payload); err == nil {
			if _, ok := m.(*wire.QUE2); ok {
				d.dropped = true
				return
			}
		}
	}
	d.Endpoint.Send(to, payload)
}

// TestMeshAdaptiveQue2DeadlineRecoversLostFrame drops the subject's first
// QUE2 on the floor: the RES2 never comes, the session's wheel deadline
// fires, and the retransmitted QUE2 completes the handshake. This is the
// QUE2 leg of the wheel actually firing, not just being cancelled.
func TestMeshAdaptiveQue2DeadlineRecoversLostFrame(t *testing.T) {
	reg := obs.NewRegistry()
	retry := RetryPolicy{Que1Retries: 3, Que2Retries: 3, Timeout: 100 * time.Millisecond,
		SessionTTL: 5 * time.Second}
	var dropper *que2Dropper
	_, subj, _ := meshFleet(t, 1, retry, reg, func(ep transport.Endpoint) transport.Endpoint {
		dropper = &que2Dropper{Endpoint: ep}
		return dropper
	})

	meshPoll(t, 20*time.Second, func() bool { return len(subj.Results()) >= 1 },
		"discovery despite the dropped QUE2")
	if !dropper.dropped {
		t.Fatal("harness never saw a QUE2 to drop")
	}
	if got := counterValue(t, reg, obs.MRetransmissions,
		obs.L("role", "subject"), obs.L("msg", "que2")); got < 1 {
		t.Fatalf("QUE2 retransmissions = %d, want >= 1 (the wheel deadline must have fired)", got)
	}
}

// TestMeshAdaptiveQue1ScheduleFiresWhenUnanswered is the liveness half: a
// subject nobody answers has no activity to defer on, so the wheel must
// actually fire — walk the whole configured rebroadcast schedule — not just
// cancel quietly.
func TestMeshAdaptiveQue1ScheduleFiresWhenUnanswered(t *testing.T) {
	reg := obs.NewRegistry()
	retry := RetryPolicy{Que1Retries: 2, Que2Retries: 2, Timeout: 30 * time.Millisecond,
		SessionTTL: time.Second}
	meshFleet(t, 0, retry, reg, nil)

	meshPoll(t, 10*time.Second, func() bool {
		return counterValue(t, reg, obs.MRetransmissions,
			obs.L("role", "subject"), obs.L("msg", "que1")) == int64(retry.Que1Retries)
	}, "QUE1 rebroadcast schedule")
}

// TestMeshBackpressureShedsNotDeadlocks wedges a slow object's event loop and
// floods its tiny mailbox. The transport must shed the excess with counted
// drops (argus_transport_mailbox_drops_total) — never block the sender or
// deadlock — and once the object wakes, real discovery still completes and
// its session table still drains.
func TestMeshBackpressureShedsNotDeadlocks(t *testing.T) {
	reg := obs.NewRegistry()
	mesh := transport.NewMesh(transport.WithMailbox(8), transport.WithRegistry(reg))
	defer mesh.Close()

	b, err := backend.New(suite.S128)
	if err != nil {
		t.Fatal(err)
	}
	b.AddPolicy(attr.MustParse("position=='staff'"), attr.MustParse("type=='printer'"), []string{"print"})
	sid, _, _ := b.RegisterSubject("alice", attr.MustSet("position=staff"))
	oid, _, _ := b.RegisterObject("printer", L2, attr.MustSet("type=printer"), []string{"print"})

	oprov, err := b.ProvisionObject(oid)
	if err != nil {
		t.Fatal(err)
	}
	oep := mesh.Join()
	obj := NewObject(oprov, wire.V30, Costs{},
		WithEndpoint(oep), WithRetry(meshRetry()), WithTelemetry(reg, nil))

	// Wedge the object's actor loop so nothing drains, then flood well past
	// the 8-frame mailbox bound. Sends must all return immediately.
	block := make(chan struct{})
	started := make(chan struct{})
	oep.Do(func() { close(started); <-block })
	<-started

	flooder := mesh.Join()
	const flood = 1000
	for i := 0; i < flood; i++ {
		flooder.Send(oep.Addr(), []byte{0xde, 0xad})
	}
	if drops := oep.Drops(); drops < flood-8 {
		t.Fatalf("drops = %d, want >= %d (mailbox bound 8)", drops, flood-8)
	}
	if got := counterValue(t, reg, obs.MTransportMailboxDrops,
		obs.L("addr", string(oep.Addr()))); got != oep.Drops() {
		t.Fatalf("drop counter = %d, endpoint counted %d", got, oep.Drops())
	}

	// Wake the object. The queued garbage lands on the malformed-drop
	// counter; the engine survives and serves a genuine handshake.
	close(block)

	sprov, err := b.ProvisionSubject(sid)
	if err != nil {
		t.Fatal(err)
	}
	sep := mesh.Join()
	subj := NewSubject(sprov, wire.V30, Costs{},
		WithEndpoint(sep), WithRetry(meshRetry()))
	sep.Do(func() {
		if err := subj.Discover(1); err != nil {
			t.Errorf("Discover: %v", err)
		}
	})

	meshPoll(t, 15*time.Second, func() bool { return len(subj.Results()) == 1 },
		"discovery after flood")
	if res := subj.Results(); res[0].Level != L2 {
		t.Fatalf("post-flood discovery level = %v, want L2", res[0].Level)
	}
	meshPoll(t, 10*time.Second, func() bool {
		return subj.PendingSessions() == 0 && obj.PendingSessions() == 0
	}, "session GC after flood")
}
