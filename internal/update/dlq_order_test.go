package update

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"argus/internal/attr"
	"argus/internal/backend"
	"argus/internal/cert"
	"argus/internal/obs"
	"argus/internal/suite"
	"argus/internal/transport"
	"argus/internal/transport/transporttest"
)

// TestDLQOfflineWindowInterleaving pins the wire contract across repeated
// offline windows: live pushes, parked pushes and redeliveries interleave
// into one strictly increasing sequence stream, each notification
// effectuating exactly once in push order.
func TestDLQOfflineWindowInterleaving(t *testing.T) {
	r := newDLQRig(t)

	revoke := func(subject cert.ID) {
		t.Helper()
		if err := r.dist.RevokeSubject(subject, []cert.ID{r.off}); err != nil {
			t.Fatal(err)
		}
	}
	reprovision := func() {
		t.Helper()
		if err := r.dist.Reprovision([]cert.ID{r.off}); err != nil {
			t.Fatal(err)
		}
	}

	want := []Kind{KindReprovision, KindRevokeSubject, KindReprovision, KindReprovision, KindRevokeSubject}
	reprovision() // live
	r.dist.MarkOffline(r.off)
	revoke(r.sid) // parked
	if got := r.dist.Reattach(r.off, ""); got != 1 {
		t.Fatalf("first reattach redelivered %d, want 1", got)
	}
	reprovision() // live again
	r.dist.MarkOffline(r.off)
	reprovision()  // parked
	revoke(r.sid2) // parked
	if got := r.dist.Reattach(r.off, ""); got != 2 {
		t.Fatalf("second reattach redelivered %d, want 2", got)
	}
	r.net.Run(0)

	if len(r.applied) != len(want) {
		t.Fatalf("applied %d notifications, want %d: seqs %v", len(r.applied), len(want), r.applied)
	}
	for i := 1; i < len(r.applied); i++ {
		if r.applied[i] <= r.applied[i-1] {
			t.Fatalf("sequence regressed on the wire: %v", r.applied)
		}
	}
	for i, k := range r.kinds {
		if k != want[i] {
			t.Fatalf("kind order = %v, want %v", r.kinds, want)
		}
	}
	if r.offAg.Rejected() != 0 {
		t.Fatalf("rejected = %d, want 0 (replay check fired on reordered delivery)", r.offAg.Rejected())
	}
	if got := r.dist.Redelivered(); got != 3 {
		t.Fatalf("redelivered = %d, want 3", got)
	}
}

// TestDLQConcurrentPushReattach is the regression for a wire-ordering bug:
// push used to release the distributor lock before handing the frame to the
// transport, so a concurrent push — or a MarkOffline/Reattach cycle, which
// redelivers under the lock — could put a higher sequence number on the wire
// first. The destination's replay check then silently dropped the stalled
// lower sequence: lost, not reordered. Hammering pushes against
// offline/reattach churn on the concurrent Mesh transport makes that
// interleaving likely; with sends issued under the lock, nothing is lost and
// the destination observes strictly increasing sequences.
func TestDLQConcurrentPushReattach(t *testing.T) {
	const (
		pushers   = 8
		perPusher = 150
		cycles    = 300
		total     = pushers * perPusher
	)

	b, err := backend.New(suite.S128)
	if err != nil {
		t.Fatal(err)
	}
	oid, _, err := b.RegisterObject("lock", backend.L2, attr.MustSet("type=lock"), []string{"open"})
	if err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	// Mailbox and DLQ capacity are sized to the run so neither backpressure
	// nor eviction can account for a missing notification.
	mesh := transport.NewMesh(transport.WithMailbox(total+64), transport.WithRegistry(reg))
	defer mesh.Close()

	var mu sync.Mutex
	var seqs []uint64
	agent := NewAgent(b.AdminPublic(), nil, func(n *Notification) {
		mu.Lock()
		seqs = append(seqs, n.Seq)
		mu.Unlock()
	})
	ep := mesh.Join()
	ep.Bind(agent)

	dist := NewDistributor(b.Admin(), mesh.Join(), WithDLQCapacity(total))
	dist.Instrument(reg)
	dist.Register(oid, ep.Addr())

	churnDone := make(chan struct{})
	go func() {
		defer close(churnDone)
		for i := 0; i < cycles; i++ {
			dist.MarkOffline(oid)
			runtime.Gosched()
			dist.Reattach(oid, "")
		}
	}()
	var wg sync.WaitGroup
	for p := 0; p < pushers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perPusher; i++ {
				if err := dist.Reprovision([]cert.ID{oid}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	<-churnDone
	dist.Reattach(oid, "") // flush anything parked in the final offline window

	applied := func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(seqs)
	}
	transporttest.WaitUntil(t, 30*time.Second, func() bool { return applied() == total },
		"every pushed notification to effectuate")
	drops := ep.Drops()
	mesh.Close() // drain the actor loop so the agent's counters are settled

	if agent.Applied() != total || agent.Rejected() != 0 {
		t.Fatalf("applied/rejected = %d/%d, want %d/0 — a send raced a redelivery and was replay-dropped",
			agent.Applied(), agent.Rejected(), total)
	}
	for i := 1; i < len(seqs); i++ {
		if seqs[i] <= seqs[i-1] {
			t.Fatalf("destination observed non-increasing sequences at %d: %d then %d", i, seqs[i-1], seqs[i])
		}
	}
	if got := dist.Sent(); got != total {
		t.Fatalf("sent = %d, want %d (live sends + redeliveries, nothing lost)", got, total)
	}
	if got := dist.DLQDepth(); got != 0 {
		t.Fatalf("DLQ depth = %d, want 0 after final reattach", got)
	}
	if v := counterValue(reg, obs.MUpdateDLQEvictions); v != 0 {
		t.Fatalf("evictions = %v, want 0 (capacity sized to the run)", v)
	}
	if drops != 0 {
		t.Fatalf("mailbox shed %d frames; accounting is untrustworthy", drops)
	}
}
