package netsim

import (
	"testing"
	"time"

	"argus/internal/transport"
)

// star builds a hub with n leaves and returns (net, hub, leaves).
func star(n int, model LinkModel) (*Network, *SimEndpoint, []*SimEndpoint) {
	nw := New(model, 1)
	hub := nw.NewEndpoint()
	leaves := make([]*SimEndpoint, n)
	for i := range leaves {
		leaves[i] = nw.NewEndpoint()
		nw.Link(hub.Node(), leaves[i].Node())
	}
	return nw, hub, leaves
}

// chain builds a line a-b-c-... of n nodes.
func chain(n int, model LinkModel) (*Network, []*SimEndpoint) {
	nw := New(model, 1)
	eps := make([]*SimEndpoint, n)
	for i := range eps {
		eps[i] = nw.NewEndpoint()
		if i > 0 {
			nw.Link(eps[i-1].Node(), eps[i].Node())
		}
	}
	return nw, eps
}

// onDeliver binds fn as ep's handler, with the sender as a node ID.
func onDeliver(ep *SimEndpoint, fn func(from NodeID, p []byte)) {
	ep.Bind(transport.HandlerFunc(func(from transport.Addr, p []byte) {
		id, _ := NodeOf(from)
		fn(id, p)
	}))
}

func TestUnicastDelivery(t *testing.T) {
	nw, hub, leaves := star(3, DefaultWiFi())
	var got []byte
	var from NodeID
	onDeliver(leaves[1], func(f NodeID, p []byte) {
		from, got = f, p
	})
	hub.Send(leaves[1].Addr(), []byte("hello"))
	nw.Run(0)
	if string(got) != "hello" {
		t.Fatalf("payload = %q", got)
	}
	if from != hub.Node() {
		t.Fatalf("from = %v, want hub %v", from, hub.Node())
	}
	if nw.Now() <= 0 {
		t.Fatal("virtual time did not advance")
	}
}

func TestMultiHopRelayPreservesOrigin(t *testing.T) {
	nw, ids := chain(5, DefaultWiFi())
	var from NodeID = -1
	onDeliver(ids[4], func(f NodeID, _ []byte) { from = f })
	ids[0].Send(ids[4].Addr(), []byte("x"))
	nw.Run(0)
	if from != ids[0].Node() {
		t.Fatalf("origin = %v, want %v (not the relay)", from, ids[0].Node())
	}
	if d := nw.HopDistance(ids[0].Node(), ids[4].Node()); d != 4 {
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
		onDeliver(ids[hops], func(_ NodeID, _ []byte) {
			arrived = nw.Now()
		})
		ids[0].Send(ids[hops].Addr(), make([]byte, 200))
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
		onDeliver(l, func(_ NodeID, _ []byte) { last = nw.Now() })
	}
	payload := make([]byte, 1000)
	hub.Send(leaves[0].Addr(), payload)
	hub.Send(leaves[1].Addr(), payload)
	nw.Run(0)

	single, h2, l2s := star(1, model)
	l2 := l2s[0]
	var one time.Duration
	onDeliver(l2, func(_ NodeID, _ []byte) { one = single.Now() })
	h2.Send(l2.Addr(), payload)
	single.Run(0)

	if last < 2*one-time.Millisecond {
		t.Fatalf("two transmissions completed in %v, single takes %v — medium not serialized", last, one)
	}
}

func TestBroadcastReachesWithinTTL(t *testing.T) {
	nw, ids := chain(6, DefaultWiFi())
	reached := make(map[*SimEndpoint]int)
	for _, id := range ids[1:] {
		onDeliver(id, func(_ NodeID, _ []byte) { reached[id]++ })
	}
	ids[0].Broadcast([]byte("que1"), 3)
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
	a, b, c, d := nw.NewEndpoint(), nw.NewEndpoint(), nw.NewEndpoint(), nw.NewEndpoint()
	nw.Link(a.Node(), b.Node())
	nw.Link(a.Node(), c.Node())
	nw.Link(b.Node(), c.Node())
	nw.Link(b.Node(), d.Node())
	nw.Link(c.Node(), d.Node())
	counts := map[NodeID]int{}
	for _, ep := range []*SimEndpoint{b, c, d} {
		onDeliver(ep, func(_ NodeID, _ []byte) { counts[ep.Node()]++ })
	}
	a.Broadcast([]byte("q"), 4)
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
	ep, other := nw.NewEndpoint(), nw.NewEndpoint()
	var done []time.Duration
	record := transport.Func(func() { done = append(done, nw.Now()) })
	ep.Compute(10*time.Millisecond, record)
	ep.Compute(10*time.Millisecond, record)
	other.Compute(10*time.Millisecond, record)
	nw.Run(0)
	if len(done) != 3 {
		t.Fatalf("completions = %d", len(done))
	}
	// Same node serializes: 10ms then 20ms. Different node overlaps: 10ms.
	if done[0] != 10*time.Millisecond || done[1] != 10*time.Millisecond || done[2] != 20*time.Millisecond {
		t.Fatalf("completion times = %v, want [10ms 10ms 20ms]", done)
	}
}

// TestAfterOrdering: timers fire in deadline order, and in the order they
// were set at one deadline.
func TestAfterOrdering(t *testing.T) {
	nw := New(DefaultWiFi(), 1)
	ep := nw.NewEndpoint()
	var order []int
	after := func(d time.Duration, i int) {
		ep.NewTimer(func() { order = append(order, i) }).Reset(d)
	}
	after(20*time.Millisecond, 2)
	after(10*time.Millisecond, 1)
	after(10*time.Millisecond, 3) // FIFO at same time
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
	nw.newTimer(func() { order = append(order, "after") }).Reset(10 * time.Millisecond)
	tm.Reset(10 * time.Millisecond) // re-queued behind the other timer
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
	nw.newTimer(func() { fired = true }).Reset(time.Second)
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
	a, b := nw.NewEndpoint(), nw.NewEndpoint()
	onDeliver(b, func(NodeID, []byte) { t.Fatal("unreachable node received message") })
	a.Send(b.Addr(), []byte("x"))
	nw.Run(0)
	if nw.HopDistance(a.Node(), b.Node()) != -1 {
		t.Fatal("disconnected nodes have a hop distance")
	}
}

func TestStatsAccounting(t *testing.T) {
	model := DefaultWiFi()
	model.JitterFrac = 0
	nw, ids := chain(3, model)
	ids[0].Send(ids[2].Addr(), make([]byte, 100))
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
			onDeliver(l, func(_ NodeID, _ []byte) { last = nw.Now() })
			hub.Send(l.Addr(), make([]byte, 300))
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
		hub := nw.NewEndpoint()
		var last time.Duration
		for i := 0; i < 2; i++ {
			leaf := nw.NewEndpoint()
			onDeliver(leaf, func(NodeID, []byte) { last = nw.Now() })
			ch := DefaultChannel
			if !sameChannel {
				ch = Channel(i)
			}
			nw.LinkOn(hub.Node(), leaf.Node(), ch, model)
			hub.Send(leaf.Addr(), make([]byte, 1000))
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
	subject := nw.NewEndpoint()
	bridge := nw.AddNode()
	sensor := nw.NewEndpoint()
	nw.LinkOn(subject.Node(), bridge, 0, wifi)
	nw.LinkOn(bridge, sensor.Node(), 1, bleModel())

	var arrived time.Duration
	onDeliver(sensor, func(from NodeID, _ []byte) {
		if from != subject.Node() {
			t.Errorf("origin = %v", from)
		}
		arrived = nw.Now()
	})
	subject.Send(sensor.Addr(), make([]byte, 120))
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
	src := nw.NewEndpoint()
	nw.LinkOn(src.Node(), nw.AddNode(), 0, model)
	nw.LinkOn(src.Node(), nw.AddNode(), 1, bleModel())
	src.Broadcast([]byte("q"), 1)
	nw.Run(0)
	if got := nw.Stats().Transmissions; got != 2 {
		t.Fatalf("transmissions = %d, want 2 (one per channel)", got)
	}
}

func TestUnlink(t *testing.T) {
	nw, hub, leaves := star(2, DefaultWiFi())
	if nw.HopDistance(hub.Node(), leaves[0].Node()) != 1 {
		t.Fatal("setup")
	}
	nw.Unlink(hub.Node(), leaves[0].Node())
	if nw.HopDistance(hub.Node(), leaves[0].Node()) != -1 {
		t.Fatal("unlinked nodes still reachable")
	}
	if nw.HopDistance(hub.Node(), leaves[1].Node()) != 1 {
		t.Fatal("unrelated link removed")
	}
	// Idempotent; unknown link ignored.
	nw.Unlink(hub.Node(), leaves[0].Node())
	// Messages to the removed neighbor are dropped silently.
	delivered := false
	onDeliver(leaves[0], func(NodeID, []byte) { delivered = true })
	hub.Send(leaves[0].Addr(), []byte("x"))
	nw.Run(0)
	if delivered {
		t.Fatal("message crossed a removed link")
	}
}
