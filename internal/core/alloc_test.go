package core

import (
	"runtime"
	"testing"

	"argus/internal/attr"
	"argus/internal/backend"
	"argus/internal/cert"
	"argus/internal/suite"
	"argus/internal/transport"
	"argus/internal/wire"
)

// meshSessionBudget is the allocation ceiling of one resumed L2 or L3 session
// between engines on a transport.Mesh, the path cmd/argus-node ships: 7.5
// measured (the four frames, the two session records, the two AES key
// schedules, and the timers the wheels arm through time.AfterFunc, less the
// frames a round shares), plus one.
const meshSessionBudget = 8.5

// meshPair is one subject and two objects on a fresh Mesh, under the default
// retry policy and one verify cache: a Level 2 object and a Level 3 one whose
// secret group the subject belongs to, so every round is one L2 and one L3
// session. round starts a round and waits until both are recorded.
type meshPair struct {
	subj  *Subject
	round func()
}

func newMeshPair(tb testing.TB) *meshPair {
	tb.Helper()
	b, err := backend.New(suite.S128)
	if err != nil {
		tb.Fatal(err)
	}
	b.AddPolicy(attr.MustParse("position=='staff'"), attr.MustParse("type=='device'"), []string{"use"})
	g, err := b.Groups.CreateGroup("night-shift")
	if err != nil {
		tb.Fatal(err)
	}
	sid, _, err := b.RegisterSubject("alice", attr.MustSet("position=staff"))
	if err != nil {
		tb.Fatal(err)
	}
	if err := b.AddSubjectToGroup(sid, g.ID()); err != nil {
		tb.Fatal(err)
	}
	l2, _, err := b.RegisterObject("printer", L2, attr.MustSet("type=device"), []string{"use"})
	if err != nil {
		tb.Fatal(err)
	}
	l3, _, err := b.RegisterObject("locker", L3, attr.MustSet("type=device"), []string{"use"})
	if err != nil {
		tb.Fatal(err)
	}
	if err := b.AddCovertService(l3, g.ID(), []string{"open"}); err != nil {
		tb.Fatal(err)
	}

	mesh := transport.NewMesh()
	tb.Cleanup(mesh.Close)
	vc := cert.NewVerifyCache(0)
	for _, oid := range []cert.ID{l2, l3} {
		prov, err := b.ProvisionObject(oid)
		if err != nil {
			tb.Fatal(err)
		}
		NewObject(prov, wire.V30, Costs{}, WithEndpoint(mesh.Join()), WithRetry(DefaultRetry()), WithVerifyCache(vc))
	}
	sprov, err := b.ProvisionSubject(sid)
	if err != nil {
		tb.Fatal(err)
	}
	sep := mesh.Join()
	subj := NewSubject(sprov, wire.V30, Costs{}, WithEndpoint(sep), WithRetry(DefaultRetry()), WithVerifyCache(vc))

	done := make(chan struct{}, 1)
	found := 0
	subj.OnDiscovery = func(Discovery) {
		if found++; found == 2 {
			subj.CompleteRound()
			done <- struct{}{}
		}
	}
	start := func() {
		found = 0
		if err := subj.Discover(1); err != nil {
			panic(err)
		}
	}
	p := &meshPair{subj: subj, round: func() {
		sep.Do(start)
		<-done
	}}
	p.round() // the full handshakes, which mint the tickets
	return p
}

// TestMeshSessionAllocations holds the real path to its allocation budget:
// 1 000 resumed L2 and L3 sessions between engines on a transport.Mesh, every
// allocation of every goroutine counted, the test's own round closure
// included. A continuation that closes over its session again, a message
// decoded onto the heap, a nonce or a peer list made per frame shows here.
func TestMeshSessionAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	p := newMeshPair(t)
	const rounds = 500
	for i := 0; i < 20; i++ { // resumed from here on; let the queues grow to size
		p.round()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		p.round()
	}
	runtime.ReadMemStats(&after)
	perSession := float64(after.Mallocs-before.Mallocs) / (2 * rounds)
	t.Logf("%.2f allocations per resumed session (budget %.1f)", perSession, meshSessionBudget)
	if perSession > meshSessionBudget {
		t.Fatalf("a resumed session on a Mesh allocates %.2f times, budget %.1f", perSession, meshSessionBudget)
	}
	if got := len(p.subj.Results()); got != 2*(1+20+rounds) {
		t.Fatalf("%d discoveries, want %d", got, 2*(1+20+rounds))
	}
}

// BenchmarkMeshSession measures one resumed round — one L2 and one L3 session
// — between engines on a transport.Mesh, each node its own goroutine.
func BenchmarkMeshSession(b *testing.B) {
	b.Run("resumed", func(b *testing.B) {
		p := newMeshPair(b)
		p.round()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.round()
		}
	})
}
