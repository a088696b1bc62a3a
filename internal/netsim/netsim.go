// Package netsim is the ground-network simulator that stands in for the
// paper's testbed (1 Nexus 6 + 20 Raspberry Pi 3 over WiFi, §IX). It is a
// deterministic discrete-event simulator with a virtual clock and two
// contended resources that shape discovery latency:
//
//   - a shared wireless medium: transmissions serialize, so discovering n
//     objects grows roughly linearly in n (Fig 6e), and each extra hop costs
//     an extra medium acquisition, making transmission time linear in hop
//     count (Fig 6h);
//   - one CPU per node: computation costs injected via Compute serialize per
//     device, so the subject's per-object crypto pipeline overlaps with other
//     objects' transmissions exactly as on the real testbed.
//
// The design is justified by the paper itself: "our design is above the
// network layer and orthogonal to radios" (§IX, Testbed Rationality) — what
// determines the latency curves is message count, message size, hop count and
// computation, all of which are modeled explicitly here.
package netsim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"argus/internal/obs"
	"argus/internal/transport"
)

// NodeID identifies a node in the ground network.
type NodeID int

// Handler receives messages delivered to a node.
type Handler interface {
	// HandleMessage is invoked at virtual delivery time. from is the
	// originating node (not the relay). The payload is shared with the
	// sender and every other receiver and is immutable from Send on: it may be
	// retained, never written (a corrupting fault works on its own copy).
	HandleMessage(net *Network, from NodeID, payload []byte)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(net *Network, from NodeID, payload []byte)

// HandleMessage implements Handler.
func (f HandlerFunc) HandleMessage(net *Network, from NodeID, payload []byte) {
	f(net, from, payload)
}

// LinkModel is the WiFi-like cost model for one transmission.
type LinkModel struct {
	// PerMessage is the fixed per-transmission overhead (MAC contention,
	// preamble, ACK).
	PerMessage time.Duration
	// BytesPerSecond is the effective application-layer throughput.
	BytesPerSecond float64
	// PropagationDelay is the per-hop latency added after the transmission
	// completes. It models the radio+OS+application stack traversal (tens of
	// milliseconds on the paper's Android/Pi testbed, Fig 6f), not physical
	// propagation; unlike airtime it does not occupy the shared medium, so
	// messages to different nodes pipeline through it.
	PropagationDelay time.Duration
	// JitterFrac applies uniform ±frac noise to each airtime ("changeful
	// wireless transmission time", Fig 6f).
	JitterFrac float64
}

// DefaultWiFi is calibrated so the §IX-C experiments land near the paper's
// testbed numbers: one Level 1 discovery ≈ 0.13 s with ~89% of it
// transmission (Fig 6f/6h), 20 Level 1 objects ≈ 0.25 s, 20 Level 2/3
// objects ≈ 0.63 s (Fig 6e). The dominant term on the real testbed is the
// ~50 ms per-message stack traversal, reflected in PropagationDelay.
func DefaultWiFi() LinkModel {
	return LinkModel{
		PerMessage:       4 * time.Millisecond,
		BytesPerSecond:   250_000, // ~2 Mb/s effective
		PropagationDelay: 48 * time.Millisecond,
		JitterFrac:       0.15,
	}
}

// airtime computes one transmission's medium occupancy.
func (m LinkModel) airtime(bytes int, rng *rand.Rand) time.Duration {
	base := m.PerMessage + time.Duration(float64(bytes)/m.BytesPerSecond*float64(time.Second))
	if m.JitterFrac > 0 && rng != nil {
		f := 1 + m.JitterFrac*(2*rng.Float64()-1)
		base = time.Duration(float64(base) * f)
	}
	if base < 0 {
		base = 0
	}
	return base
}

// Stats accumulates network-wide counters.
type Stats struct {
	MessagesSent  int           // application messages injected
	Transmissions int           // per-hop radio transmissions
	BytesOnAir    int64         // sum of transmitted payload bytes (per hop)
	MediumBusy    time.Duration // total medium occupancy
	Drops         int           // unicast messages dropped for lack of a route

	// Fault-injection counters (see FaultModel in faults.go).
	FaultLost       int // frames lost in flight (incl. drop-filter drops)
	FaultCorrupted  int // frames delivered with flipped bytes
	FaultDuplicated int // frames delivered twice
	CrashDrops      int // frames dropped because a node was in a crash window
}

// Broadcast is the LinkKey.To sentinel for one-to-many transmissions: a
// broadcast occupies the medium once per (transmitter, channel) and reaches
// every fresh neighbor, so it cannot be attributed to a single directed link.
const Broadcast NodeID = -1

// LinkKey identifies one directed transmission edge for per-link accounting.
type LinkKey struct {
	From NodeID
	To   NodeID // Broadcast for flood transmissions
}

// LinkStat is the per-link share of the global Stats counters.
type LinkStat struct {
	Transmissions int
	Bytes         int64
}

// netTelemetry holds the network's pre-resolved metric handles. A nil
// *netTelemetry (registry never attached) costs one pointer test per event.
type netTelemetry struct {
	reg           *obs.Registry
	messages      *obs.Counter
	transmissions *obs.Counter
	bytesOnAir    *obs.Counter
	drops         *obs.Counter
	faultLost     *obs.Counter
	faultCorrupt  *obs.Counter
	faultDup      *obs.Counter
	crashDrops    *obs.Counter
	payloadBytes  *obs.Histogram
	hopLatency    *obs.Histogram
	mediumWait    *obs.Histogram
	channelBytes  map[Channel]*obs.Counter
	linkBytes     map[LinkKey]*obs.Counter
}

// message counts one injected application message; safe on a nil receiver.
func (t *netTelemetry) message() {
	if t == nil {
		return
	}
	t.messages.Inc()
}

func (t *netTelemetry) channel(ch Channel) *obs.Counter {
	c, ok := t.channelBytes[ch]
	if !ok {
		c = t.reg.Counter(obs.MNetChannelBytes, "Payload bytes transmitted per radio channel.",
			obs.L("channel", strconv.Itoa(int(ch))))
		t.channelBytes[ch] = c
	}
	return c
}

func (t *netTelemetry) link(k LinkKey) *obs.Counter {
	c, ok := t.linkBytes[k]
	if !ok {
		to := "broadcast"
		if k.To != Broadcast {
			to = strconv.Itoa(int(k.To))
		}
		c = t.reg.Counter(obs.MNetLinkBytes, "Payload bytes transmitted per directed link.",
			obs.L("from", strconv.Itoa(int(k.From))), obs.L("to", to))
		t.linkBytes[k] = c
	}
	return c
}

type event struct {
	at    time.Duration
	seq   int64
	task  transport.Task
	index int // heap slot while queued, -1 otherwise
}

type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index, q[j].index = i, j
}
func (q *eventQueue) Push(x any) {
	e := x.(*event)
	e.index = len(*q)
	*q = append(*q, e)
}
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*q = old[:n-1]
	return e
}
func (q eventQueue) peek() *event   { return q[0] }
func (q *eventQueue) push(e *event) { heap.Push(q, e) }
func (q *eventQueue) pop() *event   { return heap.Pop(q).(*event) }

type node struct {
	id        NodeID
	handler   Handler
	neighbors []NodeID
	cpuFree   time.Duration // earliest time this node's CPU is idle
	downUntil time.Duration // end of the current crash window (0 = up)
}

// Channel identifies a radio channel / medium. Transmissions on the same
// channel contend; different channels (different radio technologies or
// frequencies, §II-A: WiFi, Bluetooth, ZigBee) proceed concurrently. A node
// on links of two channels is a bridging device.
type Channel int

// DefaultChannel is the channel used by plain Link calls.
const DefaultChannel Channel = 0

// linkInfo carries the per-link radio parameters.
type linkInfo struct {
	channel Channel
	model   LinkModel
}

// Network is the simulated ground network.
type Network struct {
	model      LinkModel
	rng        *rand.Rand
	frng       *rand.Rand // fault-decision RNG, independent of airtime jitter
	now        time.Duration
	seq        int64
	queue      eventQueue
	nodes      []*node
	mediumFree map[Channel]time.Duration // earliest idle time per channel
	links      map[[2]NodeID]linkInfo
	faults     FaultModel             // network-wide default fault model
	linkFaults map[LinkKey]FaultModel // directed per-link overrides
	dropFilter func(from, to NodeID, payload []byte) bool
	stats      Stats
	linkStats  map[LinkKey]*LinkStat
	tel        *netTelemetry

	// dist[a][b] is the hop distance; recomputed lazily after topology edits.
	dist      [][]int
	distDirty bool

	snoop func(from, to NodeID, payload []byte)
}

// Snoop registers a passive eavesdropper invoked at delivery time for every
// message on the air (radios penetrate walls — §III). The attacker of the
// §VII analysis observes exactly this feed: full payloads, sender, receiver
// and the virtual timestamp via Now.
func (n *Network) Snoop(fn func(from, to NodeID, payload []byte)) { n.snoop = fn }

// New creates an empty network with the given link model and RNG seed
// (deterministic runs for a fixed seed).
func New(model LinkModel, seed int64) *Network {
	return &Network{
		model:      model,
		rng:        rand.New(rand.NewSource(seed)),
		frng:       rand.New(rand.NewSource(seed ^ faultSeedMix)),
		mediumFree: make(map[Channel]time.Duration),
		links:      make(map[[2]NodeID]linkInfo),
		linkStats:  make(map[LinkKey]*LinkStat),
		distDirty:  true,
	}
}

// Instrument attaches a metrics registry. Telemetry only reads the event
// stream — it never consumes RNG draws or reorders events, so a fixed-seed
// run is identical with or without it. Passing nil detaches.
func (n *Network) Instrument(reg *obs.Registry) {
	if reg == nil {
		n.tel = nil
		return
	}
	n.tel = &netTelemetry{
		reg:           reg,
		messages:      reg.Counter(obs.MNetMessages, "Application messages injected (Send/Broadcast calls)."),
		transmissions: reg.Counter(obs.MNetTransmissions, "Per-hop radio transmissions."),
		bytesOnAir:    reg.Counter(obs.MNetBytesOnAir, "Transmitted payload bytes, counted per hop."),
		drops:         reg.Counter(obs.MNetDrops, "Unicast messages dropped for lack of a route."),
		faultLost:     reg.Counter(obs.MNetFaultLost, "Frames lost in flight by fault injection (incl. drop-filter drops)."),
		faultCorrupt:  reg.Counter(obs.MNetFaultCorrupted, "Frames delivered with injected byte corruption."),
		faultDup:      reg.Counter(obs.MNetFaultDuplicated, "Frames delivered twice by fault injection."),
		crashDrops:    reg.Counter(obs.MNetCrashDrops, "Frames dropped because a node was inside a crash window."),
		payloadBytes: reg.Histogram(obs.MNetPayloadBytes,
			"Payload size per transmission.", obs.SizeBuckets()),
		hopLatency: reg.Histogram(obs.MNetHopLatency,
			"Per-hop latency: medium wait + airtime + propagation.", obs.LatencyBuckets()),
		mediumWait: reg.Histogram(obs.MNetMediumWait,
			"Time a transmission waited for the shared medium (contention).", obs.LatencyBuckets()),
		channelBytes: make(map[Channel]*obs.Counter),
		linkBytes:    make(map[LinkKey]*obs.Counter),
	}
}

// AddNode registers a node and returns its ID. The handler may be nil for
// passive nodes (pure relays or eavesdropping taps added via Snoop).
func (n *Network) AddNode(h Handler) NodeID {
	id := NodeID(len(n.nodes))
	n.nodes = append(n.nodes, &node{id: id, handler: h})
	n.distDirty = true
	return id
}

// SetHandler replaces a node's handler (used to rotate engines on one node).
func (n *Network) SetHandler(id NodeID, h Handler) { n.nodes[id].handler = h }

// Link connects two nodes bidirectionally on the default channel with the
// network's default radio model.
func (n *Network) Link(a, b NodeID) { n.LinkOn(a, b, DefaultChannel, n.model) }

// LinkOn connects two nodes on a specific radio channel with a specific link
// model. Transmissions on distinct channels do not contend — this models
// heterogeneous radios (WiFi/BLE/ZigBee) joined by bridging devices (§II-A).
func (n *Network) LinkOn(a, b NodeID, ch Channel, model LinkModel) {
	if a == b {
		panic("netsim: self link")
	}
	n.nodes[a].neighbors = append(n.nodes[a].neighbors, b)
	n.nodes[b].neighbors = append(n.nodes[b].neighbors, a)
	li := linkInfo{channel: ch, model: model}
	n.links[[2]NodeID{a, b}] = li
	n.links[[2]NodeID{b, a}] = li
	n.distDirty = true
}

// Unlink removes the radio adjacency between two nodes (a device moved out
// of range — discovery is proximity-based, §I). Unknown links are ignored.
func (n *Network) Unlink(a, b NodeID) {
	remove := func(list []NodeID, id NodeID) []NodeID {
		out := list[:0]
		for _, v := range list {
			if v != id {
				out = append(out, v)
			}
		}
		return out
	}
	n.nodes[a].neighbors = remove(n.nodes[a].neighbors, b)
	n.nodes[b].neighbors = remove(n.nodes[b].neighbors, a)
	delete(n.links, [2]NodeID{a, b})
	delete(n.links, [2]NodeID{b, a})
	n.distDirty = true
}

// linkOf returns the radio parameters of the a→b link (default model if the
// pair was never explicitly linked — only reachable for broadcast groups).
func (n *Network) linkOf(a, b NodeID) linkInfo {
	if li, ok := n.links[[2]NodeID{a, b}]; ok {
		return li
	}
	return linkInfo{channel: DefaultChannel, model: n.model}
}

// Now returns the current virtual time.
func (n *Network) Now() time.Duration { return n.now }

// Stats returns the accumulated counters.
func (n *Network) Stats() Stats { return n.stats }

// LinkStats returns a copy of the per-link accounting: how many
// transmissions and payload bytes each directed edge carried. Broadcast
// transmissions are keyed with To == Broadcast (they occupy the medium once
// per transmitter and channel). The same numbers are folded into the
// registry as argus_net_link_bytes_total when Instrument was called.
func (n *Network) LinkStats() map[LinkKey]LinkStat {
	out := make(map[LinkKey]LinkStat, len(n.linkStats))
	for k, v := range n.linkStats {
		out[k] = *v
	}
	return out
}

// After schedules fn at now+d without occupying any resource (timers,
// response-time equalization delays).
func (n *Network) After(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	n.schedule(n.now+d, fn)
}

// Compute schedules fn after the node's CPU has spent cost on it. Work
// queues per node: a second Compute on the same node starts only when the
// first finishes — this is what serializes the subject's per-object crypto.
func (n *Network) Compute(id NodeID, cost time.Duration, fn func()) {
	n.compute(id, cost, transport.Func(fn))
}

// compute is Compute for a task (SimEndpoint.Compute).
func (n *Network) compute(id NodeID, cost time.Duration, t transport.Task) {
	nd := n.nodes[id]
	start := n.now
	if nd.cpuFree > start {
		start = nd.cpuFree
	}
	done := start + cost
	nd.cpuFree = done
	n.scheduleTask(done, t)
}

func (n *Network) schedule(at time.Duration, fn func()) {
	n.scheduleTask(at, transport.Func(fn))
}

func (n *Network) scheduleTask(at time.Duration, t transport.Task) {
	n.queueEvent(&event{at: at, task: t})
}

// queueEvent queues e at e.at, behind every event already queued for then.
func (n *Network) queueEvent(e *event) {
	n.seq++
	e.seq = n.seq
	n.queue.push(e)
}

// timer is a virtual-clock transport.Timer (SimEndpoint.NewTimer): one event,
// re-queued by Reset and taken out of the queue by Stop, so a stopped timer
// leaves nothing behind for Run to advance the clock to.
type timer struct {
	n  *Network
	ev event
	fn func()
}

func (n *Network) newTimer(fn func()) *timer {
	t := &timer{n: n, fn: fn}
	t.ev = event{task: t, index: -1}
	return t
}

// Reset implements transport.Timer: the expiry is queued as if scheduled now.
func (t *timer) Reset(d time.Duration) {
	t.Stop()
	t.ev.at = t.n.now + max(d, 0)
	t.n.queueEvent(&t.ev)
}

// Stop implements transport.Timer.
func (t *timer) Stop() {
	if t.ev.index >= 0 {
		heap.Remove(&t.n.queue, t.ev.index)
	}
}

// Run implements transport.Task: the expiry.
func (t *timer) Run() { t.fn() }

func (n *Network) recomputeDist() {
	if !n.distDirty {
		return
	}
	cnt := len(n.nodes)
	n.dist = make([][]int, cnt)
	for i := range n.dist {
		n.dist[i] = make([]int, cnt)
		for j := range n.dist[i] {
			n.dist[i][j] = -1
		}
		// BFS from i.
		n.dist[i][i] = 0
		queue := []NodeID{NodeID(i)}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for _, nb := range n.nodes[cur].neighbors {
				if n.dist[i][nb] == -1 {
					n.dist[i][nb] = n.dist[i][cur] + 1
					queue = append(queue, nb)
				}
			}
		}
	}
	n.distDirty = false
}

// HopDistance returns the hop count between two nodes, or -1 if unreachable.
func (n *Network) HopDistance(a, b NodeID) int {
	n.recomputeDist()
	return n.dist[a][b]
}

// nextHop returns the neighbor of cur on a shortest path to dst.
func (n *Network) nextHop(cur, dst NodeID) (NodeID, bool) {
	n.recomputeDist()
	if n.dist[cur][dst] < 0 {
		return 0, false
	}
	for _, nb := range n.nodes[cur].neighbors {
		if n.dist[nb][dst] == n.dist[cur][dst]-1 {
			return nb, true
		}
	}
	return 0, false
}

// acquireMedium books one transmission on the link's channel starting no
// earlier than t, returning the completion time. from/to attribute the
// transmission for per-link accounting (to == Broadcast for floods).
func (n *Network) acquireMedium(from, to NodeID, li linkInfo, t time.Duration, bytes int) time.Duration {
	start := t
	if free := n.mediumFree[li.channel]; free > start {
		start = free
	}
	air := li.model.airtime(bytes, n.rng)
	n.mediumFree[li.channel] = start + air
	n.stats.Transmissions++
	n.stats.BytesOnAir += int64(bytes)
	n.stats.MediumBusy += air
	lk := LinkKey{From: from, To: to}
	ls, ok := n.linkStats[lk]
	if !ok {
		ls = &LinkStat{}
		n.linkStats[lk] = ls
	}
	ls.Transmissions++
	ls.Bytes += int64(bytes)
	arrive := start + air + li.model.PropagationDelay
	if tel := n.tel; tel != nil {
		tel.transmissions.Inc()
		tel.bytesOnAir.Add(int64(bytes))
		tel.payloadBytes.Observe(float64(bytes))
		tel.mediumWait.ObserveDuration(start - t)
		tel.hopLatency.ObserveDuration(arrive - t)
		tel.channel(li.channel).Add(int64(bytes))
		tel.link(lk).Add(int64(bytes))
	}
	return arrive
}

// Send unicasts payload from src to dst along a shortest path, relaying hop
// by hop. Each hop occupies the shared medium. Delivery invokes dst's
// handler; unreachable destinations are dropped silently (radio semantics).
func (n *Network) Send(src, dst NodeID, payload []byte) {
	if src == dst {
		panic("netsim: send to self")
	}
	n.stats.MessagesSent++
	n.tel.message()
	n.relay(src, src, dst, payload)
}

func (n *Network) relay(origin, cur, dst NodeID, payload []byte) {
	if n.nodeDown(cur) {
		n.countCrashDrop()
		return
	}
	hop, ok := n.nextHop(cur, dst)
	if !ok {
		n.stats.Drops++
		if n.tel != nil {
			n.tel.drops.Inc()
		}
		return
	}
	arrive := n.acquireMedium(cur, hop, n.linkOf(cur, hop), n.now, len(payload))
	forward := func(p []byte) func() {
		return func() {
			if hop == dst {
				n.deliver(origin, dst, p)
				return
			}
			n.relay(origin, hop, dst, p)
		}
	}
	f := n.faultsOn(cur, hop)
	if !f.Active() {
		n.schedule(arrive, forward(payload))
		return
	}
	if n.drawLoss(f) {
		// The frame was transmitted (medium occupied) but never received.
		n.countFaultLost()
		return
	}
	n.scheduleFaulty(f, arrive, payload, forward)
}

// Broadcast floods payload from src to every node within ttl hops. Each
// forwarding node retransmits once (duplicate-suppressed by broadcast ID —
// R_S plays this role in the real protocol, §IV-B). Delivery invokes each
// receiver's handler exactly once.
func (n *Network) Broadcast(src NodeID, payload []byte, ttl int) {
	if ttl < 1 {
		return
	}
	n.stats.MessagesSent++
	n.tel.message()
	seen := make(map[NodeID]bool)
	seen[src] = true
	n.flood(src, src, payload, ttl, seen)
}

func (n *Network) flood(origin, cur NodeID, payload []byte, ttl int, seen map[NodeID]bool) {
	if n.nodeDown(cur) {
		n.countCrashDrop()
		return
	}
	// One radio transmission per channel reaches all fresh neighbors on that
	// channel simultaneously; a bridging device transmits once per radio. A
	// per-receiver loss draw happens at selection time: reception is
	// independent per radio, and a receiver that lost the frame stays
	// unmarked in seen, so another forwarder (or a retransmission) can still
	// reach it.
	byChannel := make(map[Channel][]NodeID)
	rep := make(map[Channel]NodeID) // representative neighbor for link params
	var channels []Channel
	for _, nb := range n.nodes[cur].neighbors {
		if seen[nb] {
			continue
		}
		ch := n.linkOf(cur, nb).channel
		if _, ok := rep[ch]; !ok {
			channels = append(channels, ch)
			rep[ch] = nb
		}
		if n.drawLoss(n.faultsOn(cur, nb)) {
			n.countFaultLost()
			continue
		}
		seen[nb] = true
		byChannel[ch] = append(byChannel[ch], nb)
	}
	for _, ch := range channels {
		fresh := byChannel[ch]
		li := n.linkOf(cur, rep[ch])
		// The medium is occupied even when every receiver on the channel lost
		// the frame: the transmitter cannot know, the airtime is spent.
		arrive := n.acquireMedium(cur, Broadcast, li, n.now, len(payload))
		if len(fresh) == 0 {
			continue
		}
		faulty := false
		for _, nb := range fresh {
			if n.faultsOn(cur, nb).Active() {
				faulty = true
				break
			}
		}
		if !faulty {
			n.schedule(arrive, func() {
				for _, nb := range fresh {
					if n.deliver(origin, nb, payload) && ttl > 1 {
						nbCopy := nb
						n.schedule(n.now, func() {
							n.flood(origin, nbCopy, payload, ttl-1, seen)
						})
					}
				}
			})
			continue
		}
		// Per-receiver scheduling so corruption, jitter and duplication hit
		// each radio independently. A forwarder retransmits the bytes it
		// received — a corrupted copy propagates corrupted.
		for _, nb := range fresh {
			nbCopy := nb
			mk := func(p []byte) func() {
				return func() {
					if n.deliver(origin, nbCopy, p) && ttl > 1 {
						n.schedule(n.now, func() {
							n.flood(origin, nbCopy, p, ttl-1, seen)
						})
					}
				}
			}
			n.scheduleFaulty(n.faultsOn(cur, nbCopy), arrive, payload, mk)
		}
	}
}

// deliver hands the payload to the receiver's handler. It reports whether the
// frame actually reached the node (a downed or filtered receiver loses it) —
// flood uses the result to decide whether the receiver forwards. The snoop
// tap fires before the crash/filter checks: an eavesdropper hears the frame
// on the air regardless of what the addressee does with it.
func (n *Network) deliver(from, to NodeID, payload []byte) bool {
	if n.snoop != nil {
		n.snoop(from, to, payload)
	}
	if n.nodeDown(to) {
		n.countCrashDrop()
		return false
	}
	if n.dropFilter != nil && n.dropFilter(from, to, payload) {
		n.countFaultLost()
		return false
	}
	h := n.nodes[to].handler
	if h == nil {
		return true
	}
	h.HandleMessage(n, from, payload)
	return true
}

// Run drains the event queue, advancing virtual time until no events remain
// or the optional limit is reached. It returns the final virtual time.
func (n *Network) Run(limit time.Duration) time.Duration {
	for len(n.queue) > 0 {
		e := n.queue.peek()
		if limit > 0 && e.at > limit {
			n.now = limit
			return n.now
		}
		n.queue.pop()
		if e.at > n.now {
			n.now = e.at
		}
		e.task.Run()
	}
	return n.now
}

// String summarizes the network.
func (n *Network) String() string {
	return fmt.Sprintf("netsim: %d nodes, t=%v, %d transmissions", len(n.nodes), n.now, n.stats.Transmissions)
}
