package update

import (
	"bytes"
	"fmt"
	"math"
	"testing"
	"time"

	"argus/internal/cert"
	"argus/internal/obs"
	"argus/internal/suite"
	"argus/internal/transport"
)

// sink is a gateway endpoint that keeps what it sends (when keep is set) and
// delivers nothing: the tests here read frames, not radios.
type sink struct {
	keep bool
	sent [][]byte
}

func (s *sink) Addr() transport.Addr                  { return "gw" }
func (s *sink) Now() time.Duration                    { return 0 }
func (s *sink) Broadcast([]byte, int)                 {}
func (s *sink) NewTimer(func()) transport.Timer       { return nil }
func (s *sink) Compute(time.Duration, transport.Task) {}
func (s *sink) Do(fn func())                          { fn() }
func (s *sink) Bind(transport.Handler)                {}
func (s *sink) Close() error                          { return nil }
func (s *sink) Send(_ transport.Addr, payload []byte) {
	if s.keep {
		s.sent = append(s.sent, payload)
	}
}

// signed returns n's wire form with its admin signature attached the way
// the distributor would attach it.
func signed(t testing.TB, admin *cert.Admin, n Notification) []byte {
	t.Helper()
	sig, err := admin.Sign(n.signedBody())
	if err != nil {
		t.Fatal(err)
	}
	n.Sig = sig
	return n.Encode()
}

// TestRevocationSignedOnce: one revocation pushed through three distributors
// built on one admin carries byte-identical signatures on every frame. P-256
// signing is randomized, so a second signature anywhere would differ: the
// admin signed once. A reprovision is still signed per push.
func TestRevocationSignedOnce(t *testing.T) {
	admin, err := cert.NewAdmin(suite.S128, "admin")
	if err != nil {
		t.Fatal(err)
	}
	subject := cert.IDFromName("alice")
	var sinks []*sink
	for d := 0; d < 3; d++ {
		s := &sink{keep: true}
		sinks = append(sinks, s)
		dist := NewDistributor(admin, s)
		var targets []cert.ID
		for k := 0; k < 2; k++ {
			id := cert.IDFromName(fmt.Sprintf("lock-%d-%d", d, k))
			dist.Register(id, transport.Addr(id.String()))
			targets = append(targets, id)
		}
		if err := dist.RevokeSubject(subject, targets); err != nil {
			t.Fatal(err)
		}
		if err := dist.Reprovision(targets); err != nil {
			t.Fatal(err)
		}
	}
	var revSig []byte
	var reprovSigs [][]byte
	for d, s := range sinks {
		if len(s.sent) != 4 {
			t.Fatalf("distributor %d sent %d frames, want 4", d, len(s.sent))
		}
		for i, frame := range s.sent {
			n, ok, err := Decode(frame)
			if !ok || err != nil {
				t.Fatalf("frame %d/%d: %v %v", d, i, ok, err)
			}
			if !n.Verify(admin.Public()) {
				t.Fatalf("frame %d/%d does not verify", d, i)
			}
			if n.Kind == KindReprovision {
				reprovSigs = append(reprovSigs, n.Sig)
				continue
			}
			if revSig == nil {
				revSig = n.Sig
			} else if !bytes.Equal(n.Sig, revSig) {
				t.Fatalf("distributor %d frame %d carries a second revocation signature", d, i)
			}
		}
	}
	if len(reprovSigs) != 6 || bytes.Equal(reprovSigs[0], reprovSigs[1]) {
		t.Fatal("reprovisions no longer carry one signature each")
	}
}

// TestRevocationReplayRejected: a revocation the agent already applied is
// rejected and counted whether it comes back byte for byte or redelivered
// under a fresh Seq.
func TestRevocationReplayRejected(t *testing.T) {
	admin, _ := cert.NewAdmin(suite.S128, "admin")
	reg := obs.NewRegistry()
	var applied []cert.ID
	agent := NewAgent(admin.Public(), nil, func(n *Notification) { applied = append(applied, n.Subject) })
	agent.Instrument(reg, nil)

	alice := cert.IDFromName("alice")
	frame := signed(t, admin, Notification{Kind: KindRevokeSubject, Seq: 1, Subject: alice})
	agent.Handle("gw", frame)
	agent.Handle("gw", frame) // replayed
	again := signed(t, admin, Notification{Kind: KindRevokeSubject, Seq: 9, Subject: alice})
	agent.Handle("gw", again) // redelivered under a later Seq
	if len(applied) != 1 || agent.Applied() != 1 || agent.Rejected() != 2 {
		t.Fatalf("applied %v, applied/rejected = %d/%d, want one and 1/2", applied, agent.Applied(), agent.Rejected())
	}
	if v := counterValue(reg, obs.MUpdateRejected); v != 2 {
		t.Fatalf("%s = %v, want 2", obs.MUpdateRejected, v)
	}
	// Another subject's revocation is a different fact and applies.
	agent.Handle("gw", signed(t, admin, Notification{Kind: KindRevokeSubject, Seq: 2, Subject: cert.IDFromName("bob")}))
	if agent.Applied() != 2 {
		t.Fatalf("applied = %d, want 2", agent.Applied())
	}
}

// TestRevocationSeqRewriteLeavesReprovisionsAlone: a revocation's Seq is not
// signed. Rewritten to MaxUint64 it still applies, once, and it does not move
// the reprovision watermark, so the next reprovision still applies.
func TestRevocationSeqRewriteLeavesReprovisionsAlone(t *testing.T) {
	admin, _ := cert.NewAdmin(suite.S128, "admin")
	var kinds []Kind
	agent := NewAgent(admin.Public(), nil, func(n *Notification) { kinds = append(kinds, n.Kind) })

	agent.Handle("gw", signed(t, admin, Notification{Kind: KindReprovision, Seq: 1}))
	frame := signed(t, admin, Notification{Kind: KindRevokeSubject, Seq: 2, Subject: cert.IDFromName("alice")})
	n, _, _ := Decode(frame)
	n.Seq = math.MaxUint64
	agent.Handle("gw", n.Encode())
	n.Seq = 3
	agent.Handle("gw", n.Encode())
	agent.Handle("gw", signed(t, admin, Notification{Kind: KindReprovision, Seq: 4}))

	want := []Kind{KindReprovision, KindRevokeSubject, KindReprovision}
	if fmt.Sprint(kinds) != fmt.Sprint(want) || agent.Rejected() != 1 {
		t.Fatalf("applied %v with %d rejected, want %v and 1", kinds, agent.Rejected(), want)
	}
}

// TestSignatureBoundToKind: a reprovision's signature does not verify as a
// revocation with the same Seq and subject, nor the reverse.
func TestSignatureBoundToKind(t *testing.T) {
	admin, _ := cert.NewAdmin(suite.S128, "admin")
	alice := cert.IDFromName("alice")
	rev := Notification{Kind: KindRevokeSubject, Seq: 5, Subject: alice}
	rep := Notification{Kind: KindReprovision, Seq: 5, Subject: alice}
	revSig, _ := admin.Sign(rev.signedBody())
	repSig, _ := admin.Sign(rep.signedBody())

	rev.Sig, rep.Sig = repSig, revSig
	if rev.Verify(admin.Public()) || rep.Verify(admin.Public()) {
		t.Fatal("a signature verified as the other kind")
	}
	agent := NewAgent(admin.Public(), nil, nil)
	agent.Handle("gw", rev.Encode())
	agent.Handle("gw", rep.Encode())
	if agent.Applied() != 0 || agent.Rejected() != 2 {
		t.Fatalf("applied/rejected = %d/%d, want 0/2", agent.Applied(), agent.Rejected())
	}
	rev.Sig, rep.Sig = revSig, repSig
	if !rev.Verify(admin.Public()) || !rep.Verify(admin.Public()) {
		t.Fatal("a signature does not verify as its own kind")
	}
}

// BenchmarkRevocationPush is one revocation of a fresh subject pushed to 300
// objects through 200 distributors that share an admin: 100 distributors of
// two targets and 100 of one, as the benchmark fleet's cells hold them. An
// op signs once; a signature per push would add ≈ 60 allocations a target.
// The instrumented distributors share one registry, as the benchmark fleet's
// and argus-node's gateways have one, and nobody reads their push stamps.
func BenchmarkRevocationPush(b *testing.B) {
	for _, instrumented := range []bool{false, true} {
		name := "plain"
		if instrumented {
			name = "instrumented"
		}
		b.Run(name, func(b *testing.B) {
			admin, err := cert.NewAdmin(suite.S128, "admin")
			if err != nil {
				b.Fatal(err)
			}
			type cell struct {
				dist    *Distributor
				targets []cert.ID
			}
			reg := obs.NewRegistry()
			cells := make([]cell, 200)
			for c := range cells {
				cells[c].dist = NewDistributor(admin, &sink{})
				if instrumented {
					cells[c].dist.Instrument(reg)
				}
				for k := 0; k < 1+c%2; k++ {
					id := cert.IDFromName(fmt.Sprintf("lock-%d-%d", c, k))
					cells[c].dist.Register(id, transport.Addr(id.String()))
					cells[c].targets = append(cells[c].targets, id)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				subject := cert.IDFromName(fmt.Sprintf("subject-%d", i))
				for _, c := range cells {
					if err := c.dist.RevokeSubject(subject, c.targets); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// TestSentAtsBounded: the push stamps of an instrumented distributor nobody
// reads stay under maxSentAts, however many pushes go out; a stamp that is
// read goes with the read; and a letter parked before the older stamps were
// dropped is stamped again, from its park time, when it is redelivered.
func TestSentAtsBounded(t *testing.T) {
	admin, err := cert.NewAdmin(suite.S128, "admin")
	if err != nil {
		t.Fatal(err)
	}
	ep := &clockSink{}
	d := NewDistributor(admin, ep)
	d.Instrument(obs.NewRegistry())
	lock, away := cert.IDFromName("lock"), cert.IDFromName("away")
	d.Register(lock, "lock")
	d.Register(away, "away")
	d.MarkOffline(away)
	ep.now = time.Second
	if err := d.RevokeSubject(cert.IDFromName("parked"), []cert.ID{away}); err != nil {
		t.Fatal(err)
	}
	parkedSeq, subject := d.seq, cert.IDFromName("subject") // one signature serves every push
	for i := 0; i < 100_000; i++ {
		ep.now = time.Duration(i+2) * time.Second
		if err := d.RevokeSubject(subject, []cert.ID{lock}); err != nil {
			t.Fatal(err)
		}
		if n := len(d.sentAts); n > maxSentAts {
			t.Fatalf("%d stamps after push %d, cap %d", n, i, maxSentAts)
		}
	}
	if at, ok := d.SentAt(d.seq); !ok || at != 100_001*time.Second {
		t.Fatalf("last push stamped %v, %v", at, ok)
	}
	if _, ok := d.SentAt(d.seq); ok {
		t.Error("a stamp survived its read")
	}
	if d.Reattach(away, "") != 1 {
		t.Fatal("parked letter not redelivered")
	}
	if at, ok := d.SentAt(parkedSeq); !ok || at != time.Second {
		t.Errorf("redelivered letter stamped %v, %v; want its park time 1s", at, ok)
	}
}

// clockSink is a sink whose clock the test sets.
type clockSink struct {
	sink
	now time.Duration
}

func (s *clockSink) Now() time.Duration { return s.now }
