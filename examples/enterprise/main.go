// Enterprise: the full §II-A picture in one run — a root backend with two
// building sub-backends (chain of trust), heterogeneous radios (the annex is
// reached over a BLE bridge), and a staff member whose credentials from
// building A are honored everywhere in the enterprise because every device
// verifies against the single root anchor.
//
//	go run ./examples/enterprise
package main

import (
	"fmt"
	"log"
	"time"

	"argus/internal/attr"
	"argus/internal/backend"
	"argus/internal/cert"
	"argus/internal/core"
	"argus/internal/netsim"
	"argus/internal/suite"
	"argus/internal/wire"
)

func main() {
	// The hierarchy: one root, two building servers.
	root, err := backend.New(suite.S128)
	if err != nil {
		log.Fatal(err)
	}
	buildingA, err := root.NewSubordinate("building-A backend")
	if err != nil {
		log.Fatal(err)
	}
	annex, err := root.NewSubordinate("annex backend")
	if err != nil {
		log.Fatal(err)
	}

	// Each building sets its own policies (per-building policy autonomy).
	buildingA.AddPolicy(attr.MustParse("position=='staff'"),
		attr.MustParse("type=='printer'"), []string{"print"})
	annex.AddPolicy(attr.MustParse("position=='staff'"),
		attr.MustParse("type=='sensor'"), []string{"read-telemetry"})

	// Alice registers once, at building A.
	alice, _, err := buildingA.RegisterSubject("alice", attr.MustSet("position=staff"))
	if err != nil {
		log.Fatal(err)
	}

	// Devices: a printer in building A (WiFi) and a telemetry sensor in the
	// annex, reachable only through a BLE bridging device (§II-A).
	printer, _, _ := buildingA.RegisterObject("printer-A", backend.L2,
		attr.MustSet("type=printer"), []string{"print"})
	sensor, _, _ := annex.RegisterObject("annex-sensor", backend.L2,
		attr.MustSet("type=sensor"), []string{"read-telemetry"})

	wifi := netsim.DefaultWiFi()
	ble := netsim.LinkModel{
		PerMessage:       10 * time.Millisecond,
		BytesPerSecond:   30_000,
		PropagationDelay: 20 * time.Millisecond,
		JitterFrac:       0.1,
	}
	net := netsim.New(wifi, 1)

	attach := func(b *backend.Backend, id cert.ID, subject bool) (netsim.NodeID, *core.Subject) {
		ep := net.NewEndpoint()
		if subject {
			prov, err := b.ProvisionSubject(id)
			if err != nil {
				log.Fatal(err)
			}
			s := core.NewSubject(prov, wire.V30, core.Costs{}, core.WithEndpoint(ep))
			return ep.Node(), s
		}
		prov, err := b.ProvisionObject(id)
		if err != nil {
			log.Fatal(err)
		}
		core.NewObject(prov, wire.V30, core.Costs{}, core.WithEndpoint(ep))
		return ep.Node(), nil
	}

	aliceNode, aliceEngine := attach(buildingA, alice, true)
	printerNode, _ := attach(buildingA, printer, false)
	sensorNode, _ := attach(annex, sensor, false)
	bridge := net.AddNode() // the WiFi↔BLE bridging device

	net.LinkOn(aliceNode, printerNode, 0, wifi)
	net.LinkOn(aliceNode, bridge, 0, wifi)
	net.LinkOn(bridge, sensorNode, 1, ble)

	fmt.Println("alice (registered at building A) walks the enterprise...")
	if err := aliceEngine.Discover(2); err != nil {
		log.Fatal(err)
	}
	net.Run(0)

	for _, d := range aliceEngine.Results() {
		var where, radio string
		switch d.Node {
		case netsim.AddrOf(printerNode):
			where, radio = "building A", "WiFi, 1 hop"
		case netsim.AddrOf(sensorNode):
			where, radio = "annex", "via BLE bridge, 2 hops"
		}
		fmt.Printf("  %-8s %v (%s; %s; at %v)\n",
			d.Level, d.Profile.Functions, where, radio, d.At.Round(1e6))
	}
	fmt.Println()
	fmt.Println("both objects verified alice's CERT and PROF through building A's CA")
	fmt.Println("chain up to the shared root anchor — she never re-registered at the")
	fmt.Println("annex, and the annex backend never learned her private key (§II-A).")
}
