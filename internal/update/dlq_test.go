package update

import (
	"fmt"
	"testing"

	"argus/internal/attr"
	"argus/internal/backend"
	"argus/internal/cert"
	"argus/internal/core"
	"argus/internal/enc"
	"argus/internal/netsim"
	"argus/internal/obs"
	"argus/internal/suite"
	"argus/internal/wire"
)

// dlqRig is one distributor, one online object and one offline-able object,
// wired over the simulator with full instrumentation.
type dlqRig struct {
	b       *backend.Backend
	net     *netsim.Network
	reg     *obs.Registry
	dist    *Distributor
	sid     cert.ID
	sid2    cert.ID // a second subject, for a second revocation
	on, off cert.ID // object IDs
	onAg    *Agent  // agent of the always-online object
	offAg   *Agent  // agent of the offline-able object
	offEP   *netsim.SimEndpoint
	applied []uint64 // seqs effectuated by the offline-able object, in order
	kinds   []Kind   // kinds effectuated by the offline-able object, in order
}

func newDLQRig(t *testing.T, opts ...DistributorOption) *dlqRig {
	t.Helper()
	r := &dlqRig{}
	var err error
	r.b, err = backend.New(suite.S128)
	if err != nil {
		t.Fatal(err)
	}
	r.b.AddPolicy(attr.MustParse("position=='staff'"), attr.MustParse("type=='lock'"), []string{"open"})
	r.sid, _, _ = r.b.RegisterSubject("alice", attr.MustSet("position=staff"))
	r.sid2, _, _ = r.b.RegisterSubject("bob", attr.MustSet("position=staff"))

	r.reg = obs.NewRegistry()
	r.net = netsim.New(netsim.DefaultWiFi(), 17)
	hub := r.net.AddNode()
	dep := r.net.NewEndpoint()
	r.dist = NewDistributor(r.b.Admin(), dep, opts...)
	r.dist.Instrument(r.reg)
	r.net.Link(hub, dep.Node())

	mk := func(name string, record bool) (cert.ID, *Agent, *netsim.SimEndpoint) {
		oid, _, err := r.b.RegisterObject(name, backend.L2, attr.MustSet("type=lock"), []string{"open"})
		if err != nil {
			t.Fatal(err)
		}
		prov, _ := r.b.ProvisionObject(oid)
		eng := core.NewObject(prov, wire.V30, core.Costs{})
		agent := NewAgent(r.b.AdminPublic(), nil, func(n *Notification) {
			if record {
				r.applied = append(r.applied, n.Seq)
				r.kinds = append(r.kinds, n.Kind)
			}
		})
		agent.Instrument(r.reg, r.dist.SentAt)
		ep := r.net.NewEndpoint()
		eng.Bind(agent.Wrap(ep))
		r.net.Link(hub, ep.Node())
		r.dist.Register(oid, ep.Addr())
		return oid, agent, ep
	}
	r.on, r.onAg, _ = mk("lock-on", false)
	r.off, r.offAg, r.offEP = mk("lock-off", true)
	return r
}

func counterValue(reg *obs.Registry, name string, labels ...obs.Label) float64 {
	if m := reg.Snapshot().Get(name, labels...); m != nil {
		return m.Value
	}
	return 0
}

// TestDLQParkAndRedeliver: pushes to an offline destination park (counted
// undeliverable, nothing on the wire), online peers are unaffected, and
// Reattach drains the queue with lag recorded across the offline window.
func TestDLQParkAndRedeliver(t *testing.T) {
	r := newDLQRig(t)
	r.dist.MarkOffline(r.off)

	rep, err := r.b.RevokeSubject(r.sid)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.dist.RevokeSubject(r.sid, rep.NotifiedObjects); err != nil {
		t.Fatal(err)
	}
	r.net.Run(0) // delivers the online object's copy; virtual time advances

	if got := r.dist.DLQDepth(); got != 1 {
		t.Fatalf("DLQ depth = %d, want 1", got)
	}
	if got := r.dist.Sent(); got != 1 {
		t.Fatalf("sent = %d, want 1 (online object only)", got)
	}
	if v := counterValue(r.reg, obs.MUpdateUndeliverable, obs.L("kind", "revoke-subject")); v != 1 {
		t.Fatalf("undeliverable counter = %v, want 1", v)
	}
	if r.onAg.Applied() != 1 || r.offAg.Applied() != 0 {
		t.Fatalf("applied on/off = %d/%d, want 1/0", r.onAg.Applied(), r.offAg.Applied())
	}
	if m := r.reg.Snapshot().Get(obs.MUpdateDLQDepth); m == nil || m.Value != 1 {
		t.Fatalf("depth gauge = %+v, want 1", m)
	}

	if got := r.dist.Reattach(r.off, ""); got != 1 {
		t.Fatalf("Reattach redelivered %d, want 1", got)
	}
	r.net.Run(0)

	if got := r.dist.DLQDepth(); got != 0 {
		t.Fatalf("DLQ depth after reattach = %d, want 0", got)
	}
	if r.offAg.Applied() != 1 {
		t.Fatalf("offline object applied %d after reattach, want 1", r.offAg.Applied())
	}
	if got := r.dist.Redelivered(); got != 1 {
		t.Fatalf("redelivered = %d, want 1", got)
	}
	snap := r.reg.Snapshot()
	if m := snap.Get(obs.MUpdateRedelivered, obs.L("kind", "revoke-subject")); m == nil || m.Value != 1 {
		t.Fatalf("redelivered counter = %+v, want 1", m)
	}
	lag := snap.Get(obs.MUpdateRedeliveryLag)
	if lag == nil || lag.Count != 1 {
		t.Fatalf("lag histogram = %+v, want count 1", lag)
	}
	if lag.Sum <= 0 {
		t.Fatal("redelivery lag consumed no virtual time (offline window not measured)")
	}
	// Propagation lag is measured from the original park time, so the
	// offline window is included in the agent-side histogram too.
	if prop := snap.Get(obs.MUpdatePropagation); prop == nil || prop.Count != 2 {
		t.Fatalf("propagation histogram = %+v, want count 2", prop)
	}
	if m := snap.Get(obs.MUpdateDLQDepth); m == nil || m.Value != 0 {
		t.Fatalf("depth gauge after drain = %+v, want 0", m)
	}
}

// TestDLQInOrderExactlyOnce: a mixed-kind backlog is redelivered in push
// order and effectuated exactly once, even across a second Reattach.
func TestDLQInOrderExactlyOnce(t *testing.T) {
	r := newDLQRig(t)
	r.dist.MarkOffline(r.off)

	wantKinds := []Kind{KindRevokeSubject, KindReprovision, KindRevokeSubject, KindReprovision}
	if err := r.dist.RevokeSubject(r.sid, []cert.ID{r.off}); err != nil {
		t.Fatal(err)
	}
	if err := r.dist.Reprovision([]cert.ID{r.off}); err != nil {
		t.Fatal(err)
	}
	if err := r.dist.RevokeSubject(r.sid2, []cert.ID{r.off}); err != nil {
		t.Fatal(err)
	}
	if err := r.dist.Reprovision([]cert.ID{r.off}); err != nil {
		t.Fatal(err)
	}
	if got := r.dist.DLQDepth(); got != 4 {
		t.Fatalf("depth = %d, want 4", got)
	}

	if got := r.dist.Reattach(r.off, ""); got != 4 {
		t.Fatalf("redelivered %d, want 4", got)
	}
	r.net.Run(0)

	if len(r.applied) != 4 {
		t.Fatalf("applied %d notifications, want 4: %v", len(r.applied), r.applied)
	}
	for i := 1; i < len(r.applied); i++ {
		if r.applied[i] <= r.applied[i-1] {
			t.Fatalf("out-of-order effectuation: seqs %v", r.applied)
		}
	}
	for i, k := range r.kinds {
		if k != wantKinds[i] {
			t.Fatalf("kind order = %v, want %v", r.kinds, wantKinds)
		}
	}
	if r.offAg.Rejected() != 0 {
		t.Fatalf("rejected = %d, want 0", r.offAg.Rejected())
	}

	// A second reattach has nothing to redeliver; nothing is double-applied.
	if got := r.dist.Reattach(r.off, ""); got != 0 {
		t.Fatalf("second reattach redelivered %d, want 0", got)
	}
	r.net.Run(0)
	if r.offAg.Applied() != 4 {
		t.Fatalf("applied after second reattach = %d, want 4 (exactly once)", r.offAg.Applied())
	}

	// Back online: pushes go straight to the wire again.
	if err := r.dist.Reprovision([]cert.ID{r.off}); err != nil {
		t.Fatal(err)
	}
	if got := r.dist.DLQDepth(); got != 0 {
		t.Fatalf("depth after online push = %d, want 0", got)
	}
	r.net.Run(0)
	if r.offAg.Applied() != 5 {
		t.Fatalf("applied after online push = %d, want 5", r.offAg.Applied())
	}
}

// TestDLQBoundedEviction: the per-destination bound sheds the oldest letters,
// counted, and the survivors still effectuate in order.
func TestDLQBoundedEviction(t *testing.T) {
	r := newDLQRig(t, WithDLQCapacity(4))
	r.dist.MarkOffline(r.off)

	const pushes = 7
	for i := 0; i < pushes; i++ {
		if err := r.dist.Reprovision([]cert.ID{r.off}); err != nil {
			t.Fatal(err)
		}
	}
	if got := r.dist.DLQDepth(); got != 4 {
		t.Fatalf("depth = %d, want cap 4", got)
	}
	if v := counterValue(r.reg, obs.MUpdateDLQEvictions); v != pushes-4 {
		t.Fatalf("evictions = %v, want %d", v, pushes-4)
	}
	if v := counterValue(r.reg, obs.MUpdateUndeliverable, obs.L("kind", "reprovision")); v != pushes {
		t.Fatalf("undeliverable = %v, want %d", v, pushes)
	}

	r.dist.Reattach(r.off, "")
	r.net.Run(0)
	if len(r.applied) != 4 {
		t.Fatalf("applied %d, want the 4 retained", len(r.applied))
	}
	// The retained letters are the newest: seqs 4..7.
	for i, seq := range r.applied {
		if want := uint64(pushes - 4 + i + 1); seq != want {
			t.Fatalf("applied seqs = %v, want [4 5 6 7]", r.applied)
		}
	}
}

// TestReattachUpdatesAddress: a node that comes back on a different address
// (rebind, DHCP) gets its backlog at the new one.
func TestReattachUpdatesAddress(t *testing.T) {
	r := newDLQRig(t)
	r.dist.MarkOffline(r.off)
	if err := r.dist.Reprovision([]cert.ID{r.off}); err != nil {
		t.Fatal(err)
	}

	// The "rebinding" node: a fresh endpoint joined to the same cell, with a
	// pass-through agent recording what arrives.
	got := 0
	reAgent := NewAgent(r.b.AdminPublic(), nil, func(*Notification) { got++ })
	ep2 := r.net.NewEndpoint()
	ep2.Bind(reAgent)
	r.net.Link(r.offEP.Node(), ep2.Node())

	r.dist.Reattach(r.off, ep2.Addr())
	r.net.Run(0)
	if got != 1 {
		t.Fatalf("new address received %d notifications, want 1", got)
	}
	if r.offAg.Applied() != 0 {
		t.Fatal("old address still received the backlog")
	}
}

// TestRestoreParkedResignsRevocations: letters restored after a restart come
// back offline and in order, the sequence counter resumes past them, and a
// revocation restored with a signature over its Seq — how revocations were
// signed before they were signed once — gets the admin's revocation
// signature and applies.
func TestRestoreParkedResignsRevocations(t *testing.T) {
	r := newDLQRig(t)
	perPush := &Notification{Kind: KindRevokeSubject, Seq: 1, Subject: r.sid}
	w := enc.NewWriter(26)
	w.U8(envelopeMagic)
	w.U8(byte(perPush.Kind))
	w.U64(perPush.Seq)
	w.Raw(perPush.Subject[:])
	perPush.Sig, _ = r.b.Admin().Sign(w.Bytes())
	reprov := &Notification{Kind: KindReprovision, Seq: 2}
	reprov.Sig, _ = r.b.Admin().Sign(reprov.signedBody())

	if err := r.dist.RestoreParked(map[cert.ID][]*Notification{r.off: {perPush, reprov}}); err != nil {
		t.Fatal(err)
	}
	if err := r.dist.Reprovision([]cert.ID{r.off}); err != nil {
		t.Fatal(err)
	}
	if got := r.dist.DLQDepth(); got != 3 {
		t.Fatalf("depth = %d, want 3 (restored destination not offline?)", got)
	}
	r.dist.Reattach(r.off, "")
	r.net.Run(0)
	if fmt.Sprint(r.applied) != "[1 2 3]" || r.offAg.Rejected() != 0 {
		t.Fatalf("applied seqs %v with %d rejected, want [1 2 3] and 0", r.applied, r.offAg.Rejected())
	}
}
