// Propagation: backend changes effectuated over the air (§IV-A, §VIII).
// A backend gateway pushes admin-signed, sequence-numbered notifications
// across the same radios that carry discovery traffic; objects verify each
// notification against the admin public key before applying it. The example
// also shows why the signatures matter: a forged revocation is rejected.
//
//	go run ./examples/propagation
package main

import (
	"fmt"
	"log"

	"argus/internal/attr"
	"argus/internal/backend"
	"argus/internal/cert"
	"argus/internal/core"
	"argus/internal/netsim"
	"argus/internal/suite"
	"argus/internal/transport"
	"argus/internal/update"
	"argus/internal/wire"
)

const nObjects = 6

func main() {
	b, err := backend.New(suite.S128)
	if err != nil {
		log.Fatal(err)
	}
	b.AddPolicy(attr.MustParse("position=='staff'"),
		attr.MustParse("type=='lock'"), []string{"open"})
	alice, _, err := b.RegisterSubject("alice", attr.MustSet("position=staff"))
	if err != nil {
		log.Fatal(err)
	}

	net := netsim.New(netsim.DefaultWiFi(), 1)
	sprov, err := b.ProvisionSubject(alice)
	if err != nil {
		log.Fatal(err)
	}
	sep := net.NewEndpoint()
	home := sep.Node()
	subj := core.NewSubject(sprov, wire.V30, core.Costs{}, core.WithEndpoint(sep))

	// The backend's ground gateway shares the cell with the devices.
	dep := net.NewEndpoint()
	dist := update.NewDistributor(b.Admin(), dep)
	net.Link(home, dep.Node())

	agents := make([]*update.Agent, 0, nObjects)
	objAddrs := make([]transport.Addr, 0, nObjects)
	for i := 0; i < nObjects; i++ {
		oid, _, err := b.RegisterObject(fmt.Sprintf("lock-%d", i), backend.L2,
			attr.MustSet("type=lock"), []string{"open"})
		if err != nil {
			log.Fatal(err)
		}
		prov, err := b.ProvisionObject(oid)
		if err != nil {
			log.Fatal(err)
		}
		eng := core.NewObject(prov, wire.V30, core.Costs{})
		agent := update.NewAgent(b.AdminPublic(), nil, func(u *update.Notification) {
			if u.Kind == update.KindRevokeSubject {
				eng.Revoke(u.Subject)
			}
		})
		oep := net.NewEndpoint()
		eng.Bind(agent.Wrap(oep))
		net.Link(home, oep.Node())
		dist.Register(oid, oep.Addr())
		agents = append(agents, agent)
		objAddrs = append(objAddrs, oep.Addr())
	}

	subj.Discover(1)
	net.Run(0)
	fmt.Printf("before revocation: alice discovers %d/%d locks\n", len(subj.Results()), nObjects)

	// An attacker on the same radio tries to forge a revocation first.
	fmt.Println("\nattacker forges a revocation notification for alice...")
	forger, _ := cert.NewAdmin(suite.S128, "rogue-admin")
	fake := &update.Notification{Kind: update.KindRevokeSubject, Seq: 99, Subject: alice}
	// The forger signs with its own key (it has no access to the real one).
	sig, _ := forger.Sign([]byte("whatever"))
	fake.Sig = sig
	atk := net.NewEndpoint() // a bare radio: it sends, and binds no handler
	net.Link(home, atk.Node())
	for _, addr := range objAddrs {
		atk.Send(addr, fake.Encode())
	}
	net.Run(0)
	rejected := 0
	for _, a := range agents {
		rejected += a.Rejected()
	}
	fmt.Printf("forged notifications rejected by %d/%d objects (bad admin signature)\n", rejected, nObjects)

	before := len(subj.Results())
	subj.Discover(1)
	net.Run(0)
	fmt.Printf("alice still discovers %d/%d locks\n", len(subj.Results())-before, nObjects)

	// Now the real thing: backend revokes and the gateway pushes.
	fmt.Println("\nbackend revokes alice; gateway pushes signed notifications...")
	rep, err := b.RevokeSubject(alice)
	if err != nil {
		log.Fatal(err)
	}
	start := net.Now()
	if err := dist.RevokeSubject(alice, rep.NotifiedObjects); err != nil {
		log.Fatal(err)
	}
	net.Run(0)
	fmt.Printf("%d notifications effectuated in %v of virtual time\n",
		dist.Sent(), (net.Now() - start).Round(1e6))

	before = len(subj.Results())
	subj.Discover(1)
	net.Run(0)
	fmt.Printf("after revocation: alice discovers %d/%d locks\n", len(subj.Results())-before, nObjects)
}
