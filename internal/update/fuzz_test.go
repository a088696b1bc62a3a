package update

import (
	"bytes"
	"math"
	"testing"

	"argus/internal/cert"
	"argus/internal/suite"
	"argus/internal/transport"
	"argus/internal/wire"
)

// FuzzAgentHandle drives two arbitrary frames, twice each, through an agent:
// nothing panics, every frame that is not an update envelope reaches the
// inner handler byte for byte, and nothing is applied twice — no subject's
// revocation, and no reprovision at or below one already applied. The seeds
// are valid signed frames, so mutations of a revocation's unsigned Seq still
// verify and exercise the applied set.
func FuzzAgentHandle(f *testing.F) {
	admin, err := cert.NewAdmin(suite.S128, "admin")
	if err != nil {
		f.Fatal(err)
	}
	alice, bob := cert.IDFromName("alice"), cert.IDFromName("bob")
	rev := signed(f, admin, Notification{Kind: KindRevokeSubject, Seq: 1, Subject: alice})
	revMax := signed(f, admin, Notification{Kind: KindRevokeSubject, Seq: math.MaxUint64, Subject: bob})
	rep := signed(f, admin, Notification{Kind: KindReprovision, Seq: 2})
	que1 := (&wire.QUE1{Version: wire.V30, RS: make([]byte, suite.NonceSize)}).Encode()
	f.Add(rev, rep)
	f.Add(rep, rev)
	f.Add(revMax, rep)
	f.Add(rev, revMax)
	f.Add(que1, rev)
	f.Add([]byte{envelopeMagic, 1, 2}, []byte{})

	f.Fuzz(func(t *testing.T, first, second []byte) {
		var passed [][]byte
		inner := transport.HandlerFunc(func(_ transport.Addr, p []byte) {
			passed = append(passed, append([]byte(nil), p...))
		})
		revoked := map[cert.ID]bool{}
		var lastSeq uint64
		agent := NewAgent(admin.Public(), inner, func(n *Notification) {
			switch n.Kind {
			case KindRevokeSubject:
				if revoked[n.Subject] {
					t.Fatalf("revocation of %v applied twice", n.Subject)
				}
				revoked[n.Subject] = true
			case KindReprovision:
				if n.Seq <= lastSeq {
					t.Fatalf("reprovision %d applied after %d", n.Seq, lastSeq)
				}
				lastSeq = n.Seq
			}
		})
		var want [][]byte
		for _, frame := range [][]byte{first, second, first, second} {
			in := append([]byte(nil), frame...)
			agent.Handle("peer", in)
			if len(frame) == 0 || frame[0] != envelopeMagic {
				want = append(want, frame)
			}
		}
		if len(passed) != len(want) {
			t.Fatalf("inner handler got %d frames, want %d", len(passed), len(want))
		}
		for i := range want {
			if !bytes.Equal(passed[i], want[i]) {
				t.Fatalf("frame %d reached the inner handler altered", i)
			}
		}
		if agent.Applied()+agent.Rejected()+len(passed) != 4 {
			t.Fatalf("applied %d + rejected %d + passed %d != 4 frames",
				agent.Applied(), agent.Rejected(), len(passed))
		}
	})
}
