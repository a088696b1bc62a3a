package netsim

import (
	"strconv"
	"testing"

	"argus/internal/obs"
)

// TestLinkStatsAccounting checks the per-link byte/transmission fold: unicast
// traffic is attributed to its directed edge, broadcasts to the
// (transmitter, Broadcast) sentinel, and the totals reconcile with Stats.
func TestLinkStatsAccounting(t *testing.T) {
	nw, hub, leaves := star(3, DefaultWiFi())
	onDeliver(leaves[0], func(NodeID, []byte) {})
	hub.Send(leaves[0].Addr(), make([]byte, 100))
	hub.Send(leaves[0].Addr(), make([]byte, 50))
	leaves[0].Send(hub.Addr(), make([]byte, 25))
	hub.Broadcast(make([]byte, 10), 1)
	nw.Run(0)

	ls := nw.LinkStats()
	if s := ls[LinkKey{From: hub.Node(), To: leaves[0].Node()}]; s.Transmissions != 2 || s.Bytes != 150 {
		t.Errorf("hub→leaf0 = %+v, want 2 tx / 150 B", s)
	}
	if s := ls[LinkKey{From: leaves[0].Node(), To: hub.Node()}]; s.Transmissions != 1 || s.Bytes != 25 {
		t.Errorf("leaf0→hub = %+v, want 1 tx / 25 B", s)
	}
	if s := ls[LinkKey{From: hub.Node(), To: Broadcast}]; s.Transmissions != 1 || s.Bytes != 10 {
		t.Errorf("hub→broadcast = %+v, want 1 tx / 10 B", s)
	}

	var bytes int64
	var tx int
	for _, s := range ls {
		bytes += s.Bytes
		tx += s.Transmissions
	}
	st := nw.Stats()
	if bytes != st.BytesOnAir || tx != st.Transmissions {
		t.Errorf("link totals %d B / %d tx != stats %d B / %d tx",
			bytes, tx, st.BytesOnAir, st.Transmissions)
	}
}

// TestNetworkInstrument checks the registry fold: counters and histograms
// mirror Stats and LinkStats exactly, and drops are counted.
func TestNetworkInstrument(t *testing.T) {
	reg := obs.NewRegistry()
	nw, hub, leaves := star(2, DefaultWiFi())
	nw.Instrument(reg)
	hub.Send(leaves[1].Addr(), make([]byte, 64))
	hub.Broadcast(make([]byte, 16), 1)
	orphan := nw.NewEndpoint() // not linked: unicast from it is dropped
	orphan.Send(hub.Addr(), make([]byte, 8))
	nw.Run(0)

	st := nw.Stats()
	snap := reg.Snapshot()
	if m := snap.Get(obs.MNetBytesOnAir); m == nil || int64(m.Value) != st.BytesOnAir {
		t.Errorf("bytes-on-air = %+v, stats %d", m, st.BytesOnAir)
	}
	if m := snap.Get(obs.MNetTransmissions); m == nil || int(m.Value) != st.Transmissions {
		t.Errorf("transmissions = %+v, stats %d", m, st.Transmissions)
	}
	if m := snap.Get(obs.MNetMessages); m == nil || int(m.Value) != st.MessagesSent {
		t.Errorf("messages = %+v, stats %d", m, st.MessagesSent)
	}
	if st.Drops != 1 {
		t.Fatalf("drops = %d, want 1", st.Drops)
	}
	if m := snap.Get(obs.MNetDrops); m == nil || m.Value != 1 {
		t.Errorf("drop counter = %+v, want 1", m)
	}
	if m := snap.Get(obs.MNetHopLatency); m == nil || int(m.Count) != st.Transmissions {
		t.Errorf("hop latency count = %+v, want %d", m, st.Transmissions)
	}
	if m := snap.Get(obs.MNetMediumWait); m == nil || int(m.Count) != st.Transmissions {
		t.Errorf("medium wait count = %+v, want %d", m, st.Transmissions)
	}
	for k, s := range nw.LinkStats() {
		to := "broadcast"
		if k.To != Broadcast {
			to = strconv.Itoa(int(k.To))
		}
		m := snap.Get(obs.MNetLinkBytes,
			obs.L("from", strconv.Itoa(int(k.From))), obs.L("to", to))
		if m == nil || int64(m.Value) != s.Bytes {
			t.Errorf("link %v metric = %+v, want %d B", k, m, s.Bytes)
		}
	}
}
