package exp

import (
	"fmt"
	"time"

	"argus/internal/attr"
	"argus/internal/backend"
	"argus/internal/core"
	"argus/internal/netsim"
	"argus/internal/suite"
	"argus/internal/wire"
)

func init() {
	register("ablation-radio", runAblationRadio)
}

// bleLink models a BLE-class constrained radio (§II-A lists Bluetooth and
// ZigBee alongside WiFi): low throughput, and per-hop latency dominated by
// the connection interval.
func bleLink() netsim.LinkModel {
	return netsim.LinkModel{
		PerMessage:       15 * time.Millisecond,
		BytesPerSecond:   20_000,
		PropagationDelay: 50 * time.Millisecond,
		JitterFrac:       0.1,
	}
}

// runAblationRadio quantifies §II-A's claim that the design is orthogonal to
// radios: the same Level 2 discovery over WiFi, over BLE, and across a
// WiFi→BLE bridging device. Correctness is identical; only latency moves with
// the radio's throughput and per-hop cost.
func runAblationRadio(bool) (*Result, error) {
	res := &Result{
		ID:      "ablation-radio",
		Title:   "One Level 2 discovery across radio technologies (extension experiment)",
		Paper:   "\"we focus on security design above the network layer ... network connectivity exists among all nodes (e.g., via bridging devices with multiple radios)\" (§II-A)",
		Columns: []string{"path", "hops", "completion"},
	}
	run := func(label string, build func(net *netsim.Network, sn, on netsim.NodeID)) error {
		b, err := backend.New(suite.S128)
		if err != nil {
			return err
		}
		if _, _, err := b.AddPolicy(attr.MustParse("position=='staff'"),
			attr.MustParse("type=='device'"), []string{"use"}); err != nil {
			return err
		}
		sid, _, err := b.RegisterSubject("alice", attr.MustSet("position=staff"))
		if err != nil {
			return err
		}
		oid, _, err := b.RegisterObject("device", backend.L2, attr.MustSet("type=device"), []string{"use"})
		if err != nil {
			return err
		}
		net := netsim.New(netsim.DefaultWiFi(), 17)
		sprov, err := b.ProvisionSubject(sid)
		if err != nil {
			return err
		}
		sep := net.NewEndpoint()
		sn := sep.Node()
		s := core.NewSubject(sprov, wire.V30, PhoneCosts(), core.WithEndpoint(sep))
		oprov, err := b.ProvisionObject(oid)
		if err != nil {
			return err
		}
		oep := net.NewEndpoint()
		on := oep.Node()
		core.NewObject(oprov, wire.V30, PiCosts(), core.WithEndpoint(oep))
		build(net, sn, on)

		if err := s.Discover(2); err != nil {
			return err
		}
		net.Run(0)
		results := s.Results()
		if len(results) != 1 {
			return fmt.Errorf("ablation-radio %s: %d discoveries", label, len(results))
		}
		hops := net.HopDistance(sn, on)
		res.AddRow(label, hops, fmtDur(results[0].At))
		return nil
	}

	if err := run("WiFi direct", func(net *netsim.Network, sn, on netsim.NodeID) {
		net.LinkOn(sn, on, 0, netsim.DefaultWiFi())
	}); err != nil {
		return nil, err
	}
	if err := run("BLE direct", func(net *netsim.Network, sn, on netsim.NodeID) {
		net.LinkOn(sn, on, 1, bleLink())
	}); err != nil {
		return nil, err
	}
	if err := run("WiFi → BLE bridge", func(net *netsim.Network, sn, on netsim.NodeID) {
		bridge := net.AddNode()
		net.LinkOn(sn, bridge, 0, netsim.DefaultWiFi())
		net.LinkOn(bridge, on, 1, bleLink())
	}); err != nil {
		return nil, err
	}
	res.Notes = append(res.Notes,
		"identical protocol outcome on every radio; the ~1 kB QUE2 dominates on BLE-class links (20 kB/s), so Level 2/3 discovery latency is radio-bound exactly where the paper's resource assumptions (§II-A) predict")
	return res, nil
}
