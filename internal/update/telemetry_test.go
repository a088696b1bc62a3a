package update

import (
	"fmt"
	"testing"

	"argus/internal/attr"
	"argus/internal/backend"
	"argus/internal/core"
	"argus/internal/netsim"
	"argus/internal/obs"
	"argus/internal/suite"
	"argus/internal/wire"
)

// TestPropagationTelemetry wires an instrumented distributor/agent pair and
// checks the churn counters and the backend→ground propagation-lag histogram
// (§VIII effectuation latency).
func TestPropagationTelemetry(t *testing.T) {
	const n = 3
	b, err := backend.New(suite.S128)
	if err != nil {
		t.Fatal(err)
	}
	b.AddPolicy(attr.MustParse("position=='staff'"), attr.MustParse("type=='lock'"), []string{"open"})
	sid, _, _ := b.RegisterSubject("alice", attr.MustSet("position=staff"))

	reg := obs.NewRegistry()
	net := netsim.New(netsim.DefaultWiFi(), 3)
	hub := net.AddNode()
	dep := net.NewEndpoint()
	dist := NewDistributor(b.Admin(), dep)
	dist.Instrument(reg)
	net.Link(hub, dep.Node())

	var agents []*Agent
	for i := 0; i < n; i++ {
		oid, _, err := b.RegisterObject(fmt.Sprintf("lock-%d", i), backend.L2,
			attr.MustSet("type=lock"), []string{"open"})
		if err != nil {
			t.Fatal(err)
		}
		prov, _ := b.ProvisionObject(oid)
		eng := core.NewObject(prov, wire.V30, core.Costs{})
		agent := NewAgent(b.AdminPublic(), nil, nil)
		agent.Instrument(reg, dist.SentAt)
		ep := net.NewEndpoint()
		eng.Bind(agent.Wrap(ep))
		net.Link(hub, ep.Node())
		dist.Register(oid, ep.Addr())
		agents = append(agents, agent)
	}

	rep, err := b.RevokeSubject(sid)
	if err != nil {
		t.Fatal(err)
	}
	if err := dist.RevokeSubject(sid, rep.NotifiedObjects); err != nil {
		t.Fatal(err)
	}
	net.Run(0)

	snap := reg.Snapshot()
	if m := snap.Get(obs.MUpdateSent, obs.L("kind", KindRevokeSubject.String())); m == nil || m.Value != n {
		t.Fatalf("sent counter = %+v, want %d", m, n)
	}
	if m := snap.Get(obs.MUpdateApplied); m == nil || m.Value != n {
		t.Fatalf("applied counter = %+v, want %d", m, n)
	}
	prop := snap.Get(obs.MUpdatePropagation)
	if prop == nil || prop.Count != n {
		t.Fatalf("propagation histogram = %+v, want count %d", prop, n)
	}
	if prop.Sum <= 0 {
		t.Fatal("propagation lag consumed no virtual time")
	}

	// A replayed notification is rejected and counted as such.
	replay := &Notification{Kind: KindRevokeSubject, Seq: 1, Subject: sid}
	sig, _ := b.Admin().Sign(replay.signedBody())
	replay.Sig = sig
	agents[0].Handle(netsim.AddrOf(hub), replay.Encode())
	if m := reg.Snapshot().Get(obs.MUpdateRejected); m == nil || m.Value != 1 {
		t.Fatalf("rejected counter = %+v, want 1", m)
	}
}
