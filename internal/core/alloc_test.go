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

// meshSessionBudget is the allocation ceiling of one session between engines
// on a transport.Mesh, the path cmd/argus-node ships, measured plus one. A
// resumed L2 or L3 session measured 7.5: the four frames, the two session
// records and the two AES key schedules, less the frames a round shares. A
// Level 1 session measured 2.0: its QUE1 and the object's session record (4.0
// while the subject's Level 1 continuation was a closure and a verify-cache
// lookup copied the admin key and built a hasher).
var meshSessionBudget = map[Level]float64{L1: 3, L2: 8.5}

// meshPair is one subject and the given objects on a fresh Mesh, under the
// default retry policy and one verify cache. A Level 3 object's secret group
// is one the subject belongs to, so every round is one session per object at
// its level. round starts a round and waits until every one is recorded.
type meshPair struct {
	subj  *Subject
	n     int // sessions a round
	round func()
}

func newMeshPair(tb testing.TB, levels ...Level) *meshPair {
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
	var oids []cert.ID
	for i, level := range levels {
		oid, _, err := b.RegisterObject(level.String()+"-"+string(rune('a'+i)), level, attr.MustSet("type=device"), []string{"use"})
		if err != nil {
			tb.Fatal(err)
		}
		if level == L3 {
			if err := b.AddCovertService(oid, g.ID(), []string{"open"}); err != nil {
				tb.Fatal(err)
			}
		}
		oids = append(oids, oid)
	}

	mesh := transport.NewMesh()
	tb.Cleanup(mesh.Close)
	vc := cert.NewVerifyCache(0)
	for _, oid := range oids {
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
		if found++; found == len(levels) {
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
	p := &meshPair{subj: subj, n: len(levels), round: func() {
		sep.Do(start)
		<-done
	}}
	p.round() // the full handshakes, which mint the tickets
	return p
}

// TestMeshSessionAllocations holds the real path to its allocation budget:
// 1 000 resumed L2 and L3 sessions, and 500 Level 1 ones, between engines on
// a transport.Mesh, every allocation of every goroutine counted, the test's
// own round closure included. A continuation that closes over its session
// again, a message decoded onto the heap, a nonce, a peer list or a cache key
// made per frame shows here.
func TestMeshSessionAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	for name, levels := range map[string][]Level{"resumed": {L2, L3}, "level-1": {L1}} {
		t.Run(name, func(t *testing.T) {
			p := newMeshPair(t, levels...)
			budget := meshSessionBudget[levels[0]]
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
			perSession := float64(after.Mallocs-before.Mallocs) / float64(p.n*rounds)
			t.Logf("%.2f allocations per session (budget %.1f)", perSession, budget)
			if perSession > budget {
				t.Fatalf("a session on a Mesh allocates %.2f times, budget %.1f", perSession, budget)
			}
			if got := len(p.subj.Results()); got != p.n*(1+20+rounds) {
				t.Fatalf("%d discoveries, want %d", got, p.n*(1+20+rounds))
			}
		})
	}
}

// BenchmarkMeshSession measures one resumed round — one L2 and one L3 session
// — between engines on a transport.Mesh, each node its own goroutine.
func BenchmarkMeshSession(b *testing.B) {
	b.Run("resumed", func(b *testing.B) {
		p := newMeshPair(b, L2, L3)
		p.round()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.round()
		}
	})
}
