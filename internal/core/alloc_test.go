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
// on a transport.Mesh, measured plus a half. A resumed L2 or L3 session
// measured 2.15: the two AES key schedules (aes.NewCipher returns an
// interface, so the schedule escapes) and its share of the chunks its frames
// are carved from (transport.Slab). It measured 5.5 while each of its frames
// and its half of the round's QUE1 were allocations of their own, and 7.5
// while both session records were allocated per session. A Level 1 session
// measured 0.03, its share of the subject's chunks (1.0 while its QUE1 was
// allocated, 2.0 while the object allocated its resend entry, 4.0 while the
// subject's Level 1 continuation was a closure and a verify-cache lookup
// copied the admin key and built a hasher).
var meshSessionBudget = map[Level]float64{L1: 0.5, L2: 2.65}

// udpSessionBudget is the same ceiling between engines on UDP sockets on
// loopback — transport.UDPEndpoint, the path cmd/argus-node ships — measured
// plus one. A resumed session measured 2.30 and a Level 1 one 0.12: what the
// socket adds is its read loops' chunks, since a read loop carves each
// payload from its slab and interns each source's Addr. They measured 25.5
// and 11.0 while the read loop allocated the sender's *UDPAddr, its string
// Addr and a payload copy per frame, and 28.0 and 13.0 while the session
// records were allocated per session.
var udpSessionBudget = map[Level]float64{L1: 1.1, L2: 3.3}

// pairNet is a transport a meshPair runs on: open starts a fresh network of
// it and returns how to join it, with the endpoints a new one's broadcasts
// reach. prefix names its subtests and sub-benchmarks.
type pairNet struct {
	prefix string
	budget map[Level]float64
	open   func(tb testing.TB) func(peers []transport.Addr) transport.Endpoint
}

// pairNets are the transports a session's allocations are measured on: the
// in-process Mesh, and UDP sockets on loopback.
var pairNets = []pairNet{
	{"", meshSessionBudget, func(tb testing.TB) func([]transport.Addr) transport.Endpoint {
		mesh := transport.NewMesh()
		tb.Cleanup(mesh.Close)
		return func([]transport.Addr) transport.Endpoint { return mesh.Join() }
	}},
	{"udp-", udpSessionBudget, func(tb testing.TB) func([]transport.Addr) transport.Endpoint {
		return func(peers []transport.Addr) transport.Endpoint {
			cfg := transport.UDPConfig{Listen: "127.0.0.1:0"}
			for _, p := range peers {
				cfg.Peers = append(cfg.Peers, string(p))
			}
			ep, err := transport.ListenUDP(cfg)
			if err != nil {
				tb.Fatal(err)
			}
			tb.Cleanup(func() { ep.Close() })
			return ep
		}
	}},
}

// meshPair is one subject and the given objects on a fresh transport, under
// the default retry policy and one verify cache. A Level 3 object's secret
// group is one the subject belongs to, so every round is one session per
// object at its level. round starts a round and waits until every one is
// recorded.
type meshPair struct {
	subj  *Subject
	objs  []*Object
	n     int // sessions a round
	round func()
}

// warmRounds is how many rounds warm runs: enough for the objects' resend
// caches to fill.
const warmRounds = maxResendCache + 20

// warm runs the resumed rounds that let the queues grow to size and the
// objects' resend caches fill, so that from then on every answer cached sheds
// one whose record the next session reuses.
func (p *meshPair) warm() {
	for i := 0; i < warmRounds; i++ {
		p.round()
	}
}

func newMeshPair(tb testing.TB, pn pairNet, levels ...Level) *meshPair {
	tb.Helper()
	return newMeshPairWith(tb, pn, nil, levels...)
}

// newMeshPairWith is newMeshPair with the subject's endpoint passed through
// wrap, when not nil.
func newMeshPairWith(tb testing.TB, pn pairNet, wrap func(transport.Endpoint) transport.Endpoint, levels ...Level) *meshPair {
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

	join := pn.open(tb)
	vc := cert.NewVerifyCache(0)
	var addrs []transport.Addr
	var objs []*Object
	for _, oid := range oids {
		prov, err := b.ProvisionObject(oid)
		if err != nil {
			tb.Fatal(err)
		}
		ep := join(nil)
		objs = append(objs, NewObject(prov, wire.V30, Costs{}, WithEndpoint(ep), WithRetry(DefaultRetry()), WithVerifyCache(vc)))
		addrs = append(addrs, ep.Addr())
	}
	sprov, err := b.ProvisionSubject(sid)
	if err != nil {
		tb.Fatal(err)
	}
	sep := join(addrs)
	if wrap != nil {
		sep = wrap(sep)
	}
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
	p := &meshPair{subj: subj, objs: objs, n: len(levels), round: func() {
		sep.Do(start)
		<-done
	}}
	p.round() // the full handshakes, which mint the tickets
	return p
}

// TestMeshSessionAllocations holds the real path to its allocation budget:
// 1 000 resumed L2 and L3 sessions, and 500 Level 1 ones, between engines on
// a transport.Mesh and between UDP sockets on loopback, every allocation of
// every goroutine counted, the test's own round closure included. A
// continuation that closes over its session again, a session record made per
// session again, a message decoded onto the heap, a nonce, a peer list or a
// cache key made per frame shows here.
func TestMeshSessionAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	for _, pn := range pairNets {
		for name, levels := range map[string][]Level{"resumed": {L2, L3}, "level-1": {L1}} {
			t.Run(pn.prefix+name, func(t *testing.T) {
				sessionAllocations(t, newMeshPair(t, pn, levels...), pn.budget[levels[0]])
			})
		}
	}
}

// sessionAllocations fails t if a session of p allocates more than budget
// times once p is warm.
func sessionAllocations(t *testing.T, p *meshPair, budget float64) {
	const rounds = 500
	p.warm()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		p.round()
	}
	runtime.ReadMemStats(&after)
	perSession := float64(after.Mallocs-before.Mallocs) / float64(p.n*rounds)
	t.Logf("%.2f allocations per session (budget %.2f)", perSession, budget)
	if perSession > budget {
		t.Fatalf("a session allocates %.2f times, budget %.2f", perSession, budget)
	}
	if want := p.n * (1 + warmRounds + rounds); len(p.subj.Results()) != want {
		t.Fatalf("%d discoveries, want %d", len(p.subj.Results()), want)
	}
}

// BenchmarkMeshSession measures one resumed round — one L2 and one L3 session
// — and one Level 1 round between engines on a transport.Mesh (resumed,
// level-1) and between UDP sockets on loopback (udp-resumed, udp-level-1),
// each node its own goroutine.
func BenchmarkMeshSession(b *testing.B) {
	for _, pn := range pairNets {
		for _, round := range []struct {
			name   string
			levels []Level
		}{{"resumed", []Level{L2, L3}}, {"level-1", []Level{L1}}} {
			b.Run(pn.prefix+round.name, func(b *testing.B) {
				p := newMeshPair(b, pn, round.levels...)
				p.warm()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					p.round()
				}
			})
		}
	}
}
