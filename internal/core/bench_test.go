package core

import (
	"testing"

	"argus/internal/attr"
	"argus/internal/backend"
	"argus/internal/cert"
	"argus/internal/netsim"
	"argus/internal/suite"
	"argus/internal/wire"
)

// BenchmarkWarmHandshake measures one L2 discovery round against a single
// object with a warm credential verify cache — QUE1 broadcast, RES1, QUE2,
// RES2, MAC checks, and the session bookkeeping around them — under the
// default retry policy, in its two regimes:
//
//   - first-contact: no ticket on either side (both are dropped before every
//     round), so the round is the full handshake plus the minting of the
//     ticket. The per-session nonce signatures and ECDH are never cacheable,
//     so this is the floor a first contact costs; its allocs/op is what the
//     zero-alloc codec seam is held to (BENCH_9.json), and resumption must
//     not make it dearer.
//   - resumed: every round after the first runs on the ticket of the one
//     before. What is left is the object's RES1 (key generation, signature)
//     and HMACs.
func BenchmarkWarmHandshake(b *testing.B) {
	b.Run("first-contact", func(b *testing.B) { benchHandshake(b, false) })
	b.Run("resumed", func(b *testing.B) { benchHandshake(b, true) })
}

func benchHandshake(b *testing.B, resume bool) {
	be, err := backend.New(suite.S128)
	if err != nil {
		b.Fatal(err)
	}
	net := netsim.New(netsim.DefaultWiFi(), 1)
	vc := cert.NewVerifyCache(0)

	be.AddPolicy(
		attr.MustParse("position=='manager'"),
		attr.MustParse("type=='multimedia'"),
		[]string{"play"})
	sid, _, err := be.RegisterSubject("bench-subject", attr.MustSet("position=manager"))
	if err != nil {
		b.Fatal(err)
	}
	sprov, err := be.ProvisionSubject(sid)
	if err != nil {
		b.Fatal(err)
	}
	sep := net.NewEndpoint()
	subj := NewSubject(sprov, wire.V20, Costs{}, WithEndpoint(sep), WithVerifyCache(vc), WithRetry(DefaultRetry()))
	// One answer is the whole round: without the declaration every round
	// would also drain its quiescence probes.
	subj.OnDiscovery = func(Discovery) { subj.CompleteRound() }

	oid, _, err := be.RegisterObject("bench-object", L2, attr.MustSet("type=multimedia"), []string{"play"})
	if err != nil {
		b.Fatal(err)
	}
	oprov, err := be.ProvisionObject(oid)
	if err != nil {
		b.Fatal(err)
	}
	oep := net.NewEndpoint()
	obj := NewObject(oprov, wire.V20, Costs{}, WithEndpoint(oep), WithVerifyCache(vc), WithRetry(DefaultRetry()))
	net.Link(sep.Node(), oep.Node())

	// Prime: first round pays the cold chain verifications.
	if err := subj.Discover(1); err != nil {
		b.Fatal(err)
	}
	net.Run(0)
	if got := len(subj.Results()); got != 1 {
		b.Fatalf("priming round: %d discoveries, want 1", got)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !resume {
			subj.tickets.flush()
			obj.tickets.flush()
		}
		if err := subj.Discover(1); err != nil {
			b.Fatal(err)
		}
		net.Run(0)
	}
	b.StopTimer()
	if got := len(subj.Results()); got != b.N+1 {
		b.Fatalf("completed %d discoveries, want %d", len(subj.Results()), b.N+1)
	}
	if subj.Tickets() != 1 {
		b.Fatal("no ticket on file after the last round")
	}
}
