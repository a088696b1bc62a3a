package netsim

import (
	"testing"
	"time"
)

// star builds a hub with n leaves and returns (net, hub, leaves).
func star(n int, model LinkModel) (*Network, NodeID, []NodeID) {
	nw := New(model, 1)
	hub := nw.AddNode(nil)
	leaves := make([]NodeID, n)
	for i := range leaves {
		leaves[i] = nw.AddNode(nil)
		nw.Link(hub, leaves[i])
	}
	return nw, hub, leaves
}

// chain builds a line a-b-c-... of n nodes.
func chain(n int, model LinkModel) (*Network, []NodeID) {
	nw := New(model, 1)
	ids := make([]NodeID, n)
	for i := range ids {
		ids[i] = nw.AddNode(nil)
		if i > 0 {
			nw.Link(ids[i-1], ids[i])
		}
	}
	return nw, ids
}

func TestUnicastDelivery(t *testing.T) {
	nw, hub, leaves := star(3, DefaultWiFi())
	var got []byte
	var from NodeID
	nw.SetHandler(leaves[1], HandlerFunc(func(_ *Network, f NodeID, p []byte) {
		from, got = f, p
	}))
	nw.Send(hub, leaves[1], []byte("hello"))
	nw.Run(0)
	if string(got) != "hello" {
		t.Fatalf("payload = %q", got)
	}
	if from != hub {
		t.Fatalf("from = %v, want hub %v", from, hub)
	}
	if nw.Now() <= 0 {
		t.Fatal("virtual time did not advance")
	}
}

func TestMultiHopRelayPreservesOrigin(t *testing.T) {
	nw, ids := chain(5, DefaultWiFi())
	var from NodeID = -1
	nw.SetHandler(ids[4], HandlerFunc(func(_ *Network, f NodeID, _ []byte) { from = f }))
	nw.Send(ids[0], ids[4], []byte("x"))
	nw.Run(0)
	if from != ids[0] {
		t.Fatalf("origin = %v, want %v (not the relay)", from, ids[0])
	}
	if d := nw.HopDistance(ids[0], ids[4]); d != 4 {
		t.Fatalf("hop distance = %d, want 4", d)
	}
}

func TestLatencyLinearInHops(t *testing.T) {
	// Fig 6h: transmission time increases roughly linearly with hop count.
	model := DefaultWiFi()
	model.JitterFrac = 0 // deterministic for the ratio check
	times := make([]time.Duration, 5)
	for hops := 1; hops <= 4; hops++ {
		nw, ids := chain(hops+1, model)
		var arrived time.Duration
		nw.SetHandler(ids[hops], HandlerFunc(func(n *Network, _ NodeID, _ []byte) {
			arrived = n.Now()
		}))
		nw.Send(ids[0], ids[hops], make([]byte, 200))
		nw.Run(0)
		times[hops] = arrived
	}
	for hops := 2; hops <= 4; hops++ {
		ratio := float64(times[hops]) / float64(times[1])
		if ratio < float64(hops)-0.3 || ratio > float64(hops)+0.3 {
			t.Errorf("latency ratio at %d hops = %.2f, want ≈%d", hops, ratio, hops)
		}
	}
}

func TestMediumSerializesTransmissions(t *testing.T) {
	// Two simultaneous sends must not overlap on the medium: completion of
	// the pair takes about twice one transmission. Per-hop latency is zeroed
	// so only medium occupancy matters.
	model := DefaultWiFi()
	model.JitterFrac = 0
	model.PropagationDelay = 0
	nw, hub, leaves := star(2, model)
	var last time.Duration
	for _, l := range leaves {
		nw.SetHandler(l, HandlerFunc(func(n *Network, _ NodeID, _ []byte) { last = n.Now() }))
	}
	payload := make([]byte, 1000)
	nw.Send(hub, leaves[0], payload)
	nw.Send(hub, leaves[1], payload)
	nw.Run(0)

	single := New(model, 1)
	h2 := single.AddNode(nil)
	l2 := single.AddNode(nil)
	single.Link(h2, l2)
	var one time.Duration
	single.SetHandler(l2, HandlerFunc(func(n *Network, _ NodeID, _ []byte) { one = n.Now() }))
	single.Send(h2, l2, payload)
	single.Run(0)

	if last < 2*one-time.Millisecond {
		t.Fatalf("two transmissions completed in %v, single takes %v — medium not serialized", last, one)
	}
}

func TestBroadcastReachesWithinTTL(t *testing.T) {
	nw, ids := chain(6, DefaultWiFi())
	reached := make(map[NodeID]int)
	for _, id := range ids[1:] {
		idCopy := id
		nw.SetHandler(id, HandlerFunc(func(_ *Network, _ NodeID, _ []byte) {
			reached[idCopy]++
		}))
	}
	nw.Broadcast(ids[0], []byte("que1"), 3)
	nw.Run(0)
	for i, id := range ids[1:] {
		hops := i + 1
		want := 0
		if hops <= 3 {
			want = 1
		}
		if reached[id] != want {
			t.Errorf("node at %d hops delivered %d times, want %d", hops, reached[id], want)
		}
	}
}

func TestBroadcastNoDuplicateDelivery(t *testing.T) {
	// Dense topology: hub plus triangle; flooding must deliver once per node.
	nw := New(DefaultWiFi(), 1)
	a := nw.AddNode(nil)
	b := nw.AddNode(nil)
	c := nw.AddNode(nil)
	d := nw.AddNode(nil)
	nw.Link(a, b)
	nw.Link(a, c)
	nw.Link(b, c)
	nw.Link(b, d)
	nw.Link(c, d)
	counts := map[NodeID]int{}
	for _, id := range []NodeID{b, c, d} {
		idCopy := id
		nw.SetHandler(id, HandlerFunc(func(_ *Network, _ NodeID, _ []byte) { counts[idCopy]++ }))
	}
	nw.Broadcast(a, []byte("q"), 4)
	nw.Run(0)
	for id, c := range counts {
		if c != 1 {
			t.Errorf("node %v delivered %d times", id, c)
		}
	}
	if len(counts) != 3 {
		t.Errorf("reached %d nodes, want 3", len(counts))
	}
}

func TestComputeSerializesPerNode(t *testing.T) {
	nw := New(DefaultWiFi(), 1)
	id := nw.AddNode(nil)
	other := nw.AddNode(nil)
	var done []time.Duration
	record := func(n *Network) { done = append(done, n.Now()) }
	nw.Compute(id, 10*time.Millisecond, func() { record(nw) })
	nw.Compute(id, 10*time.Millisecond, func() { record(nw) })
	nw.Compute(other, 10*time.Millisecond, func() { record(nw) })
	nw.Run(0)
	if len(done) != 3 {
		t.Fatalf("completions = %d", len(done))
	}
	// Same node serializes: 10ms then 20ms. Different node overlaps: 10ms.
	if done[0] != 10*time.Millisecond || done[1] != 10*time.Millisecond || done[2] != 20*time.Millisecond {
		t.Fatalf("completion times = %v, want [10ms 10ms 20ms]", done)
	}
}

func TestAfterOrdering(t *testing.T) {
	nw := New(DefaultWiFi(), 1)
	var order []int
	nw.After(20*time.Millisecond, func() { order = append(order, 2) })
	nw.After(10*time.Millisecond, func() { order = append(order, 1) })
	nw.After(10*time.Millisecond, func() { order = append(order, 3) }) // FIFO at same time
	nw.Run(0)
	if len(order) != 3 || order[0] != 1 || order[1] != 3 || order[2] != 2 {
		t.Fatalf("order = %v", order)
	}
}

// TestTimerLeavesNothingBehind: a reset timer has one queued expiry, queued
// behind whatever was scheduled for the same instant before the Reset, and a
// stopped one none — Run ends at the last live event, not at a stale one.
func TestTimerLeavesNothingBehind(t *testing.T) {
	nw := New(DefaultWiFi(), 1)
	var order []string
	tm := nw.newTimer(func() { order = append(order, "timer") })
	tm.Reset(time.Hour)
	tm.Reset(10 * time.Millisecond)
	nw.After(10*time.Millisecond, func() { order = append(order, "after") })
	tm.Reset(10 * time.Millisecond) // re-queued behind the After
	stopped := nw.newTimer(func() { order = append(order, "stopped") })
	stopped.Reset(2 * time.Hour)
	stopped.Stop()
	stopped.Stop() // again: a no-op
	if end := nw.Run(0); end != 10*time.Millisecond {
		t.Fatalf("run ended at %v, want the last live deadline, 10ms", end)
	}
	if len(order) != 2 || order[0] != "after" || order[1] != "timer" {
		t.Fatalf("order = %v, want [after timer]", order)
	}
	tm.Reset(0) // fired timers are set again
	nw.Run(0)
	if len(order) != 3 {
		t.Fatalf("the re-armed timer fired %d times, want once more", len(order)-2)
	}
}

func TestRunLimit(t *testing.T) {
	nw := New(DefaultWiFi(), 1)
	fired := false
	nw.After(time.Second, func() { fired = true })
	end := nw.Run(100 * time.Millisecond)
	if fired {
		t.Fatal("event past limit fired")
	}
	if end != 100*time.Millisecond {
		t.Fatalf("end = %v", end)
	}
	// Continuing the run executes the rest.
	nw.Run(0)
	if !fired {
		t.Fatal("event lost after limited run")
	}
}

func TestUnreachableDrops(t *testing.T) {
	nw := New(DefaultWiFi(), 1)
	a := nw.AddNode(nil)
	b := nw.AddNode(HandlerFunc(func(_ *Network, _ NodeID, _ []byte) {
		t.Fatal("unreachable node received message")
	}))
	nw.Send(a, b, []byte("x"))
	nw.Run(0)
	if nw.HopDistance(a, b) != -1 {
		t.Fatal("disconnected nodes have a hop distance")
	}
}

func TestStatsAccounting(t *testing.T) {
	model := DefaultWiFi()
	model.JitterFrac = 0
	nw, ids := chain(3, model)
	nw.Send(ids[0], ids[2], make([]byte, 100))
	nw.Run(0)
	st := nw.Stats()
	if st.MessagesSent != 1 {
		t.Errorf("MessagesSent = %d", st.MessagesSent)
	}
	if st.Transmissions != 2 { // two hops
		t.Errorf("Transmissions = %d, want 2", st.Transmissions)
	}
	if st.BytesOnAir != 200 { // 100 B × 2 hops
		t.Errorf("BytesOnAir = %d, want 200", st.BytesOnAir)
	}
	if st.MediumBusy <= 0 {
		t.Error("MediumBusy not tracked")
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() time.Duration {
		nw, hub, leaves := star(10, DefaultWiFi())
		var last time.Duration
		for _, l := range leaves {
			lc := l
			nw.SetHandler(lc, HandlerFunc(func(n *Network, _ NodeID, _ []byte) { last = n.Now() }))
			nw.Send(hub, lc, make([]byte, 300))
		}
		nw.Run(0)
		return last
	}
	if run() != run() {
		t.Fatal("identical seeds produced different timelines")
	}
}

// BLE returns a slower short-range model for heterogeneous-radio tests.
func bleModel() LinkModel {
	return LinkModel{
		PerMessage:       10 * time.Millisecond,
		BytesPerSecond:   30_000,
		PropagationDelay: 20 * time.Millisecond,
		JitterFrac:       0,
	}
}

func TestChannelsDoNotContend(t *testing.T) {
	// Two simultaneous transmissions on different channels overlap; on the
	// same channel they serialize.
	model := DefaultWiFi()
	model.JitterFrac = 0
	model.PropagationDelay = 0

	build := func(sameChannel bool) time.Duration {
		nw := New(model, 1)
		hub := nw.AddNode(nil)
		var last time.Duration
		for i := 0; i < 2; i++ {
			leaf := nw.AddNode(HandlerFunc(func(n *Network, _ NodeID, _ []byte) { last = n.Now() }))
			ch := DefaultChannel
			if !sameChannel {
				ch = Channel(i)
			}
			nw.LinkOn(hub, leaf, ch, model)
			nw.Send(hub, leaf, make([]byte, 1000))
		}
		nw.Run(0)
		return last
	}
	same := build(true)
	diff := build(false)
	if diff >= same {
		t.Fatalf("distinct channels (%v) should finish before shared channel (%v)", diff, same)
	}
	// Distinct channels finish in about one airtime.
	if diff > same*3/4 {
		t.Fatalf("channel separation too weak: %v vs %v", diff, same)
	}
}

func TestBridgingDeviceAcrossRadios(t *testing.T) {
	// subject —WiFi— bridge —BLE— sensor (§II-A bridging devices): the
	// message crosses both radios, paying each one's cost.
	wifi := DefaultWiFi()
	wifi.JitterFrac = 0
	nw := New(wifi, 1)
	subject := nw.AddNode(nil)
	bridge := nw.AddNode(nil)
	sensor := nw.AddNode(nil)
	nw.LinkOn(subject, bridge, 0, wifi)
	nw.LinkOn(bridge, sensor, 1, bleModel())

	var arrived time.Duration
	nw.SetHandler(sensor, HandlerFunc(func(n *Network, from NodeID, _ []byte) {
		if from != subject {
			t.Errorf("origin = %v", from)
		}
		arrived = n.Now()
	}))
	nw.Send(subject, sensor, make([]byte, 120))
	nw.Run(0)
	if arrived == 0 {
		t.Fatal("message did not cross the bridge")
	}
	// Must include the BLE hop's cost (≥ 10ms message + 20ms latency) on top
	// of the WiFi hop.
	if arrived < 80*time.Millisecond {
		t.Fatalf("arrival %v too fast for WiFi+BLE path", arrived)
	}
}

func TestBroadcastPerChannelTransmissions(t *testing.T) {
	// A bridging node flooding to neighbors on two channels transmits twice
	// (once per radio), not once.
	model := DefaultWiFi()
	model.JitterFrac = 0
	nw := New(model, 1)
	src := nw.AddNode(nil)
	a := nw.AddNode(HandlerFunc(func(*Network, NodeID, []byte) {}))
	b := nw.AddNode(HandlerFunc(func(*Network, NodeID, []byte) {}))
	nw.LinkOn(src, a, 0, model)
	nw.LinkOn(src, b, 1, bleModel())
	nw.Broadcast(src, []byte("q"), 1)
	nw.Run(0)
	if got := nw.Stats().Transmissions; got != 2 {
		t.Fatalf("transmissions = %d, want 2 (one per channel)", got)
	}
}

func TestUnlink(t *testing.T) {
	nw, hub, leaves := star(2, DefaultWiFi())
	if nw.HopDistance(hub, leaves[0]) != 1 {
		t.Fatal("setup")
	}
	nw.Unlink(hub, leaves[0])
	if nw.HopDistance(hub, leaves[0]) != -1 {
		t.Fatal("unlinked nodes still reachable")
	}
	if nw.HopDistance(hub, leaves[1]) != 1 {
		t.Fatal("unrelated link removed")
	}
	// Idempotent; unknown link ignored.
	nw.Unlink(hub, leaves[0])
	// Messages to the removed neighbor are dropped silently.
	delivered := false
	nw.SetHandler(leaves[0], HandlerFunc(func(*Network, NodeID, []byte) { delivered = true }))
	nw.Send(hub, leaves[0], []byte("x"))
	nw.Run(0)
	if delivered {
		t.Fatal("message crossed a removed link")
	}
}
