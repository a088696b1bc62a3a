package core

// Session records come from engine-local free lists (freeList): what a record
// must not be while it is on one, and how many an engine keeps.

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"argus/internal/attr"
	"argus/internal/backend"
	"argus/internal/netsim"
	"argus/internal/suite"
	"argus/internal/transport"
	"argus/internal/wire"
)

func TestFreeListBoundedAndZeroed(t *testing.T) {
	var l freeList[subjSession]
	if r := l.get(); r == nil || r.k2 != (suite.Key{}) {
		t.Fatal("an empty list must hand out a zero record")
	}
	var recs []*subjSession
	for i := 0; i < 3*freeListCap; i++ {
		r := l.get()
		r.k2.Set([]byte("secret"))
		r.macS2[0], r.pending = 1, 1
		recs = append(recs, r)
	}
	for _, r := range recs {
		l.put(r)
	}
	if len(l.recs) != freeListCap {
		t.Fatalf("the list keeps %d records, cap %d", len(l.recs), freeListCap)
	}
	for _, r := range recs {
		if r.k2 != (suite.Key{}) || r.macS2[0] != 0 || r.pending != 0 {
			t.Fatal("put left state in a record")
		}
	}
	if r := l.get(); r != recs[freeListCap-1] {
		t.Fatal("get does not hand out the last record kept")
	}
}

// stepWatch wraps an engine's simulator endpoint and checks, at every compute
// step handed out and around every step run, that no record on a free list of
// the fleet has a step pending: such a record could be handed to a new session
// while the old one's continuation is still to run.
type stepWatch struct {
	transport.Endpoint
	w *pendingWatch
}

// pendingWatch is what the stepWatches of one fleet share.
type pendingWatch struct {
	t        *testing.T
	pending  map[transport.Task]int
	subjects []*Subject
	objects  []*Object
	// QUE2 steps of subject sessions that ran after the session left the
	// table: superseded by a newer one under its key, or given up (expired,
	// refused, pruned). releasedByRun counts those whose record their own Run
	// returned to the free list.
	superseded, givenUp, releasedByRun int
	// objectGone counts the steps of object sessions that ran after the
	// session left the table.
	objectGone int
}

func (e stepWatch) Compute(cost time.Duration, task transport.Task) {
	e.w.check()
	e.w.pending[task]++
	e.Endpoint.Compute(cost, watchedStep{task, e.w})
}

type watchedStep struct {
	task transport.Task
	w    *pendingWatch
}

func (st watchedStep) Run() {
	w := st.w
	w.check()
	if os, ok := st.task.(*objSession); ok && os.gone {
		w.objectGone++
	}
	sess, _ := st.task.(*subjSession)
	dropped := sess != nil && sess.gone && sess.prof == nil
	var s *Subject
	if dropped {
		s = sess.s
		if cur := s.sessions[sess.key]; cur != nil && cur != sess {
			w.superseded++
		} else {
			w.givenUp++
		}
	}
	if w.pending[st.task]--; w.pending[st.task] == 0 {
		delete(w.pending, st.task)
	}
	st.task.Run()
	if dropped && slices.Contains(s.sessFree.recs, sess) {
		w.releasedByRun++
	}
	w.check()
}

func (w *pendingWatch) check() {
	w.t.Helper()
	for _, s := range w.subjects {
		for _, r := range s.sessFree.recs {
			if w.pending[r] > 0 {
				w.t.Fatalf("a subject session record is on the free list with %d steps pending", w.pending[r])
			}
		}
	}
	for _, o := range w.objects {
		for _, r := range o.free.recs {
			if w.pending[r] > 0 {
				w.t.Fatalf("an object session record is on the free list with %d steps pending", w.pending[r])
			}
		}
	}
}

// watchedFleet is one staff subject and n Level 2 devices on one simulator
// hop, under the given policy and compute costs, every endpoint watched.
type watchedFleet struct {
	net     *netsim.Network
	subject *Subject
	objects []*Object
	w       *pendingWatch
}

func newWatchedFleet(t *testing.T, n int, policy RetryPolicy, costs Costs) *watchedFleet {
	t.Helper()
	b, err := backend.New(suite.S128)
	if err != nil {
		t.Fatal(err)
	}
	b.AddPolicy(attr.MustParse("position=='staff'"), attr.MustParse("type=='device'"), []string{"use"})
	f := &watchedFleet{net: netsim.New(netsim.DefaultWiFi(), 1), w: &pendingWatch{t: t, pending: map[transport.Task]int{}}}
	sid, _, err := b.RegisterSubject("alice", attr.MustSet("position=staff"))
	if err != nil {
		t.Fatal(err)
	}
	sprov, err := b.ProvisionSubject(sid)
	if err != nil {
		t.Fatal(err)
	}
	sep := f.net.NewEndpoint()
	f.subject = NewSubject(sprov, wire.V30, costs, WithEndpoint(stepWatch{sep, f.w}), WithRetry(policy))
	f.w.subjects = []*Subject{f.subject}
	for i := 0; i < n; i++ {
		oid, _, err := b.RegisterObject("device-"+string(rune('a'+i)), L2, attr.MustSet("type=device"), []string{"use"})
		if err != nil {
			t.Fatal(err)
		}
		prov, err := b.ProvisionObject(oid)
		if err != nil {
			t.Fatal(err)
		}
		oep := f.net.NewEndpoint()
		o := NewObject(prov, wire.V30, costs, WithEndpoint(stepWatch{oep, f.w}), WithRetry(policy))
		f.net.Link(sep.Node(), oep.Node())
		f.objects = append(f.objects, o)
	}
	f.w.objects = f.objects
	return f
}

// pendingSession returns a filed subject session whose QUE2 step is pending.
func (f *watchedFleet) pendingSession() *subjSession {
	for _, sess := range f.subject.sessions {
		if sess.pending > 0 {
			return sess
		}
	}
	return nil
}

// slowCosts are compute costs under which a subject's QUE2 step takes tens of
// milliseconds of virtual time, so the simulator runs it well after the RES1.
var slowCosts = Costs{Sign: 10 * time.Millisecond, Verify: 10 * time.Millisecond, KexGen: 5 * time.Millisecond,
	KexShared: 5 * time.Millisecond, HMAC: 50 * time.Microsecond, Cipher: 300 * time.Microsecond}

// TestPendingStepHoldsRecord: a subject session superseded, expired or refused
// while the simulator still owes it its QUE2 step is gone from the table at
// once, but its record is not handed out again until that step has run — then
// the step's own Run returns it to the free list. The watch checks the same at
// every step of the rest of the run.
func TestPendingStepHoldsRecord(t *testing.T) {
	for _, how := range []string{"superseded", "expired", "refused"} {
		t.Run(how, func(t *testing.T) {
			f := newWatchedFleet(t, 3, DefaultRetry(), slowCosts)
			s := f.subject
			if err := s.Discover(1); err != nil {
				t.Fatal(err)
			}
			for end := f.net.Now() + time.Second; f.pendingSession() == nil && f.net.Now() < end; {
				f.net.Run(f.net.Now() + time.Millisecond)
			}
			sess := f.pendingSession()
			if sess == nil {
				t.Fatal("no session with its QUE2 step pending")
			}
			switch how {
			case "superseded":
				// What a restart RES1 does: a new session under the key.
				n := s.newSession(sess.key.peer)
				var k2 [suite.KeySize]byte
				s.sendQUE2(n, sess.ro, &k2, ops{})
				if s.sessions[sess.key] != n {
					t.Fatal("the new session was not filed over the old")
				}
			case "expired":
				s.expire(sess)
			case "refused":
				sess.resumed = true
				s.refused(sess)
			}
			if !sess.gone || sess.pending == 0 {
				t.Fatalf("after the drop: gone %v, steps pending %d; want true and 1", sess.gone, sess.pending)
			}
			if slices.Contains(s.sessFree.recs, sess) {
				t.Fatal("the record went to the free list with its step pending")
			}
			if s.newSession(sess.key.peer) == sess {
				t.Fatal("the record was handed out again with its step pending")
			}
			f.net.Run(0)
			if f.w.releasedByRun == 0 {
				t.Fatal("no dropped session's record was released by its own step")
			}
		})
	}
}

// TestObjectPendingStepHoldsRecord: an object session removed while the
// simulator still owes it a step keeps its record until that step has run —
// under the zero policy, which consumes a session with the QUE2 its RES2 step
// answers, and under an enabled one, whose sessions expire while their RES1
// steps queue behind a burst of rounds.
func TestObjectPendingStepHoldsRecord(t *testing.T) {
	short := RetryPolicy{Que1Retries: 1, Que2Retries: 1, Timeout: 100 * time.Millisecond, SessionTTL: 100 * time.Millisecond}
	for name, policy := range map[string]RetryPolicy{"one-shot": {}, "expired": short} {
		t.Run(name, func(t *testing.T) {
			f := newWatchedFleet(t, 3, policy, slowCosts)
			rounds := 1
			if policy.Enabled() {
				rounds = 16 // 16 QUE1s at once: 240 ms of RES1 steps an object
			}
			for i := 0; i < rounds; i++ {
				if err := f.subject.Discover(1); err != nil {
					t.Fatal(err)
				}
			}
			f.net.Run(0)
			if f.w.objectGone == 0 {
				t.Fatal("no object step ran after its session was removed")
			}
			for _, o := range f.objects {
				if len(o.free.recs) == 0 {
					t.Fatal("an object's records did not come back to its free list")
				}
			}
		})
	}
}

// TestPendingStepsUnderBacklog: a subject whose QUE2 steps queue up behind one
// another for longer than the session TTL, against objects whose sessions
// expire meanwhile, sees sessions expire and be superseded by restarts while
// their steps are pending — and no record is on a free list while a step of
// it is, on either side.
func TestPendingStepsUnderBacklog(t *testing.T) {
	// A full QUE2 step costs the subject 60 ms: six of them queue for 360 ms
	// against a 300 ms TTL.
	policy := RetryPolicy{Que1Retries: 3, Que2Retries: 3, Timeout: 100 * time.Millisecond, SessionTTL: 300 * time.Millisecond}
	costs := Costs{Sign: 20 * time.Millisecond, Verify: 20 * time.Millisecond, KexGen: 10 * time.Millisecond,
		KexShared: 10 * time.Millisecond, HMAC: 50 * time.Microsecond, Cipher: 300 * time.Microsecond}
	f := newWatchedFleet(t, 6, policy, costs)
	for round := 0; round < 4; round++ {
		if err := f.subject.Discover(1); err != nil {
			t.Fatal(err)
		}
		f.net.Run(0)
	}
	t.Logf("steps run after their session left the table: %d superseded, %d given up; %d records released by their step",
		f.w.superseded, f.w.givenUp, f.w.releasedByRun)
	if f.w.superseded == 0 || f.w.givenUp == 0 {
		t.Fatal("the backlog did not both supersede and give up a session with its step pending")
	}
	if f.w.releasedByRun != f.w.superseded+f.w.givenUp {
		t.Errorf("%d of %d dropped sessions' records were released by their step", f.w.releasedByRun, f.w.superseded+f.w.givenUp)
	}
	if len(f.subject.Results()) == 0 {
		t.Fatal("no discovery under the backlog")
	}
	if len(f.subject.sessFree.recs) == 0 {
		t.Fatal("no subject record came back to the free list")
	}
}

// TestBurstLeavesAtMostTheCap: a round against many more objects than the cap,
// every answer's step queued behind the others, has far more records live at
// once than a free list keeps. Once it has drained, each engine holds at most
// the cap of free records.
func TestBurstLeavesAtMostTheCap(t *testing.T) {
	n := 3 * freeListCap
	f := newWatchedFleet(t, n, DefaultRetry(), slowCosts)
	got := 0
	f.subject.OnDiscovery = func(Discovery) {
		if got++; got == n {
			f.subject.CompleteRound()
		}
	}
	if err := f.subject.Discover(1); err != nil {
		t.Fatal(err)
	}
	peak := 0
	for f.net.Now() < 10*time.Second && got < n {
		f.net.Run(f.net.Now() + 10*time.Millisecond)
		peak = max(peak, len(f.subject.sessions))
	}
	f.net.Run(0) // the objects' resend caches drain too
	if got != n || peak <= freeListCap {
		t.Fatalf("%d discoveries with at most %d sessions live at once; want %d and more than %d", got, peak, n, freeListCap)
	}
	if k := len(f.subject.sessFree.recs); k != freeListCap {
		t.Errorf("the subject keeps %d free records after the burst, want the cap %d", k, freeListCap)
	}
	for _, o := range f.objects {
		if k := len(o.free.recs); k > freeListCap {
			t.Errorf("an object keeps %d free records, cap %d", k, freeListCap)
		}
	}
}

// TestCachedAnswerOutlivesRecord: an answered handshake leaves the session
// table for the resend cache at once, but its record is not released while
// the RES2 step that sends the answer is pending, and a duplicate QUE2 meanwhile
// draws nothing. Once the step has run, the cache holds the RES2 it sent and
// the record is free. Records are reused round after round while every cached
// answer is resent byte for byte.
func TestCachedAnswerOutlivesRecord(t *testing.T) {
	f := newResumeFixture(t, 1)
	o, sAddr := f.only(), f.subject.ep.Addr()
	o.costs = slowCosts
	// runUntil steps the simulator until done holds or a second has passed.
	// A round takes ≈ 0.2 s, so the answers of the rounds below stay
	// cached: for half a TTL, 4 s.
	runUntil := func(done func() bool) {
		for end := f.net.Now() + time.Second; !done() && f.net.Now() < end; {
			f.net.Run(f.net.Now() + time.Millisecond)
		}
	}
	onAir := func(mt wire.MsgType, from int) [][]byte {
		var out [][]byte
		for _, m := range f.air.msgs[from:] {
			if m.msg.Type() == mt {
				out = append(out, m.payload)
			}
		}
		return out
	}
	f.inRound = 0
	start := len(f.air.msgs)
	if err := f.subject.Discover(1); err != nil {
		t.Fatal(err)
	}
	var sess *objSession
	runUntil(func() bool {
		for _, a := range o.answers {
			sess = a.sess
		}
		return sess != nil
	})
	if sess == nil {
		t.Fatal("no answer with its RES2 step pending")
	}
	if !sess.gone || sess.pending != 1 || o.sessions[sess.key] == sess || slices.Contains(o.free.recs, sess) {
		t.Fatalf("answered session: gone %v, steps pending %d, filed %v, free %v; want true, 1, false, false",
			sess.gone, sess.pending, o.sessions[sess.key] == sess, slices.Contains(o.free.recs, sess))
	}
	key := sess.key
	que2 := onAir(wire.TQUE2, start)
	if len(que2) != 1 {
		t.Fatalf("%d QUE2s on the air, want 1", len(que2))
	}
	o.Handle(sAddr, que2[0]) // a duplicate while the answer is being built
	n := len(f.subject.Results())
	runUntil(func() bool { return len(f.subject.Results()) > n })
	res2 := onAir(wire.TRES2, start)
	if len(res2) != 1 {
		t.Fatalf("%d RES2s on the air, want the one answer", len(res2))
	}
	if a := o.answers[key]; a.sess != nil || !bytes.Equal(a.enc, res2[0]) {
		t.Fatal("the cache does not hold the RES2 the step sent")
	}
	if !slices.Contains(o.free.recs, sess) {
		t.Fatal("the record was not released once its step had run")
	}

	type exchange struct{ que2, res2 []byte }
	ex := []exchange{{que2[0], res2[0]}}
	for i := 0; i < 4; i++ {
		f.inRound = 0
		from, n := len(f.air.msgs), len(f.subject.Results())
		if err := f.subject.Discover(1); err != nil {
			t.Fatal(err)
		}
		runUntil(func() bool { return len(f.subject.Results()) > n })
		q, r := onAir(wire.TQUE2, from), onAir(wire.TRES2, from)
		if len(q) != 1 || len(r) != 1 {
			t.Fatalf("round %d: %d QUE2s and %d RES2s, want 1 and 1", i, len(q), len(r))
		}
		ex = append(ex, exchange{q[0], r[0]})
	}
	if len(o.answers) != len(ex) || len(o.free.recs) != 1 {
		t.Fatalf("%d answers cached and %d free records; want %d and the one record every round reused",
			len(o.answers), len(o.free.recs), len(ex))
	}
	for i, e := range ex {
		from := len(f.air.msgs)
		o.Handle(sAddr, e.que2)
		runUntil(func() bool { return len(onAir(wire.TRES2, from)) > 0 })
		if r := onAir(wire.TRES2, from); len(r) != 1 || !bytes.Equal(r[0], e.res2) {
			t.Errorf("round %d: %d RES2s resent, want one byte-identical to the answer", i, len(r))
		}
	}
}
