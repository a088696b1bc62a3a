package transport

import (
	"fmt"
	"testing"
	"time"
)

// handlerFunc adapts a func to Handler for mailbox-level tests.
type handlerFunc func(from Addr, payload []byte)

func (f handlerFunc) Handle(from Addr, payload []byte) { f(from, payload) }

// waitCond polls until cond holds or the deadline passes. (Poll directly:
// transporttest imports this package, so an in-package test cannot.)
func waitCond(t *testing.T, cond func() bool, what string) {
	t.Helper()
	if !Poll(10*time.Second, DefaultPollStep, cond) {
		t.Fatalf("timed out waiting for %s", what)
	}
}

// Control work enqueued while a deep frame backlog drains must jump the
// queue at the next batch boundary — after at most mailboxBatch frames —
// not wait for the whole backlog. The interleaving is deterministic: the
// handler runs on the actor loop, so a ctrl fn it enqueues is visible at
// the boundary re-check that follows its batch.
func TestMailboxCtrlPreemptsFrameBacklog(t *testing.T) {
	mb := newMailbox(512)
	var order []string
	done := make(chan struct{})
	const total = 2*mailboxBatch + 20
	h := handlerFunc(func(_ Addr, payload []byte) {
		order = append(order, string(payload))
		if len(order) == 1 {
			mb.enqueueCtrl(func() { order = append(order, "ctrl") })
		}
		if string(payload) == fmt.Sprintf("f%03d", total-1) {
			// Runs on the loop after this batch: happens-after every append.
			mb.enqueueCtrl(func() { close(done) })
		}
	})

	// Park the loop in a blocking ctrl fn so the backlog builds up and the
	// next swap sees all frames at once.
	entered := make(chan struct{})
	gate := make(chan struct{})
	go mb.run(h)
	defer func() { mb.close(); <-mb.loopDone }()
	mb.enqueueCtrl(func() { close(entered); <-gate })
	<-entered

	for i := 0; i < total; i++ {
		mb.enqueueMsg("peer", []byte(fmt.Sprintf("f%03d", i)))
	}
	close(gate)
	<-done

	// order is only written by the loop; done closing happens-after the
	// final append.
	if len(order) != total+1 {
		t.Fatalf("got %d entries, want %d", len(order), total+1)
	}
	// The ctrl enqueued while frame 0 was being handled runs exactly at the
	// first batch boundary.
	if order[mailboxBatch] != "ctrl" {
		t.Fatalf("order[%d] = %q, want ctrl at the batch boundary", mailboxBatch, order[mailboxBatch])
	}
	// Frames stay FIFO around the preemption.
	want := 0
	for _, e := range order {
		if e == "ctrl" {
			continue
		}
		if e != fmt.Sprintf("f%03d", want) {
			t.Fatalf("frame order broken: got %q, want f%03d", e, want)
		}
		want++
	}
	if mb.delivered.Load() != int64(total) {
		t.Fatalf("delivered = %d, want %d", mb.delivered.Load(), total)
	}
}

// Shedding is unchanged by batching: frames beyond the bound are dropped
// with a counted drop while everything under it is delivered.
func TestMailboxShedAccountingUnderBacklog(t *testing.T) {
	const limit = 100
	mb := newMailbox(limit)
	delivered := 0
	h := handlerFunc(func(_ Addr, _ []byte) { delivered++ })

	entered := make(chan struct{})
	gate := make(chan struct{})
	go mb.run(h)
	defer func() { mb.close(); <-mb.loopDone }()
	mb.enqueueCtrl(func() { close(entered); <-gate })
	<-entered

	for i := 0; i < limit+25; i++ {
		mb.enqueueMsg("peer", []byte{1})
	}
	close(gate)
	waitCond(t, func() bool { return mb.delivered.Load() == limit }, "backlog drain")
	if got := mb.drops.Load(); got != 25 {
		t.Fatalf("drops = %d, want 25", got)
	}
}

// A retry timer can fire on an endpoint's loop after Close detached it from
// the segment but before the loop stopped. On a mesh whose last endpoint is
// closing, that broadcast finds an empty segment — it must reach nobody, not
// panic sizing the peer snapshot.
func TestMeshBroadcastDuringClose(t *testing.T) {
	mesh := NewMesh()
	ep := mesh.Join()
	ep.Bind(handlerFunc(func(Addr, []byte) {}))

	entered, release := make(chan struct{}), make(chan struct{})
	ep.Do(func() {
		close(entered)
		<-release
		ep.Broadcast([]byte{1}, 1)
	})
	<-entered
	closed := make(chan struct{})
	go func() {
		ep.Close()
		close(closed)
	}()
	waitCond(t, func() bool { _, ok := mesh.lookup(ep.Addr()); return !ok }, "endpoint detached")
	close(release)
	<-closed
}

// Both queues are double-buffered: once the loop has drained each of them a
// few times, a timer fire or Do closure and a delivered frame reuse the
// drained slices, and the round trip through the mailbox allocates nothing.
func TestMailboxSteadyStateAllocatesNothing(t *testing.T) {
	mb := newMailbox(16)
	ran := make(chan struct{})
	fn := func() { ran <- struct{}{} }
	go mb.run(handlerFunc(func(Addr, []byte) { ran <- struct{}{} }))
	defer func() { mb.close(); <-mb.loopDone }()

	payload := []byte{1}
	if n := testing.AllocsPerRun(200, func() {
		mb.enqueueCtrl(fn)
		<-ran
		mb.enqueueMsg("peer", payload)
		<-ran
		// Two at once: the loop may be mid-drain when the second arrives, which
		// is when the spare buffer is the one appended to.
		mb.enqueueCtrl(fn)
		mb.enqueueCtrl(fn)
		<-ran
		<-ran
	}); n != 0 {
		t.Fatalf("enqueue→drain costs %.0f allocs per round in steady state, want 0", n)
	}
}
