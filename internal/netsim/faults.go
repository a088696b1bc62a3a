package netsim

import (
	"math/rand"
	"time"
)

// This file is the fault-injection layer: the paper runs Argus on a real WiFi
// testbed (§IX) where frames are lost, delayed, reordered and duplicated, and
// devices reboot. FaultModel reproduces those conditions deterministically on
// the virtual clock so the protocol's retransmission machinery (internal/core)
// can be exercised and property-tested (internal/chaos).
//
// All fault decisions draw from a dedicated RNG (fault RNG) that is seeded
// independently of the airtime-jitter RNG: a network with no faults configured
// consumes zero fault draws and behaves byte-identically to the pre-fault
// simulator, and attaching faults never perturbs the jitter sequence.

// FaultModel describes the unreliability of one directed link (or, via
// SetFaults, of the whole network). The zero value is a perfect link.
type FaultModel struct {
	// Loss is the probability that one per-hop transmission is lost in
	// flight: the medium is occupied (the frame was on the air) but the
	// receiver never sees it. For broadcasts the draw is independent per
	// receiver, modeling independent radio reception.
	Loss float64
	// Corrupt is the probability that a delivered frame arrives with flipped
	// bytes. Receivers must survive and discard it (decode failure or MAC /
	// signature failure) — corruption is counted here and the resulting drop
	// is counted by the engines' malformed/rejected telemetry.
	Corrupt float64
	// Duplicate is the probability that a delivered frame is delivered twice
	// (link-layer retransmission with a lost ACK). Protocol handlers must be
	// idempotent.
	Duplicate float64
	// ReorderJitter adds a uniform extra delay in [0, ReorderJitter) to each
	// delivery, independent per frame, so frames overtake each other.
	ReorderJitter time.Duration
}

// Active reports whether the model injects any fault.
func (f FaultModel) Active() bool {
	return f.Loss > 0 || f.Corrupt > 0 || f.Duplicate > 0 || f.ReorderJitter > 0
}

// faultSeedMix decorrelates the default fault RNG stream from the airtime
// jitter stream seeded with the same value.
const faultSeedMix = 0x5eedfa17

// SetFaults installs f as the network-wide default fault model. Per-link
// overrides installed with SetLinkFaults take precedence.
func (n *Network) SetFaults(f FaultModel) { n.faults = f }

// SetLinkFaults overrides the fault model of the directed from→to hop
// (asymmetric links: a weak transmitter can lose more frames in one
// direction). It applies to per-hop transmissions on that edge, including the
// per-receiver legs of a broadcast.
func (n *Network) SetLinkFaults(from, to NodeID, f FaultModel) {
	if n.linkFaults == nil {
		n.linkFaults = make(map[LinkKey]FaultModel)
	}
	n.linkFaults[LinkKey{From: from, To: to}] = f
}

// FaultSeed reseeds the fault RNG. Two networks with the same topology, link
// seed, fault seed and fault models replay the identical fault schedule.
func (n *Network) FaultSeed(seed int64) { n.frng = rand.New(rand.NewSource(seed)) }

// SetDropFilter installs a programmable loss oracle invoked at delivery time:
// returning true drops the frame (counted as a fault loss). Chaos tests use
// it for targeted loss — e.g. "drop every RES2" — which a probabilistic model
// cannot express. Passing nil removes the filter.
func (n *Network) SetDropFilter(fn func(from, to NodeID, payload []byte) bool) { n.dropFilter = fn }

// Crash takes a node down for d of virtual time starting now: it neither
// transmits nor receives until recovery. Scheduled compute work is unaffected
// (a modeling simplification: the window models radio outage, not CPU state).
func (n *Network) Crash(id NodeID, d time.Duration) {
	until := n.now + d
	if until > n.nodes[id].downUntil {
		n.nodes[id].downUntil = until
	}
}

// ScheduleCrash arranges a crash window [at, at+d) on the virtual clock.
func (n *Network) ScheduleCrash(id NodeID, at, d time.Duration) {
	if at < n.now {
		at = n.now
	}
	n.schedule(at, func() { n.Crash(id, d) })
}

func (n *Network) nodeDown(id NodeID) bool { return n.nodes[id].downUntil > n.now }

// faultsOn returns the fault model governing the directed cur→to hop.
func (n *Network) faultsOn(from, to NodeID) FaultModel {
	if f, ok := n.linkFaults[LinkKey{From: from, To: to}]; ok {
		return f
	}
	return n.faults
}

// drawLoss consumes one loss draw for the given hop model.
func (n *Network) drawLoss(f FaultModel) bool {
	return f.Loss > 0 && n.frng.Float64() < f.Loss
}

// corruptPayload returns a copy of p with 1–3 random byte flips.
func (n *Network) corruptPayload(p []byte) []byte {
	out := append([]byte(nil), p...)
	if len(out) == 0 {
		return out
	}
	flips := 1 + n.frng.Intn(3)
	for i := 0; i < flips; i++ {
		out[n.frng.Intn(len(out))] ^= byte(1 + n.frng.Intn(255))
	}
	return out
}

// scheduleFaulty schedules mk(payload) at `at`, applying the corruption,
// reorder-jitter and duplication faults of f. Loss is decided by the callers,
// whose bookkeeping differs between unicast relays and broadcast floods.
func (n *Network) scheduleFaulty(f FaultModel, at time.Duration, payload []byte, mk func([]byte) func()) {
	p := payload
	if f.Corrupt > 0 && n.frng.Float64() < f.Corrupt {
		p = n.corruptPayload(p)
		n.countFaultCorrupt()
	}
	if f.ReorderJitter > 0 {
		at += time.Duration(n.frng.Int63n(int64(f.ReorderJitter)))
	}
	n.schedule(at, mk(p))
	if f.Duplicate > 0 && n.frng.Float64() < f.Duplicate {
		n.countFaultDup()
		n.schedule(at+time.Duration(1+n.frng.Int63n(int64(2*time.Millisecond))), mk(p))
	}
}

// Fault counters: the Stats fields accumulate always; the obs counters fold
// the same events into the registry when Instrument was called.

func (n *Network) countFaultLost() {
	n.stats.FaultLost++
	if n.tel != nil {
		n.tel.faultLost.Inc()
	}
}

func (n *Network) countFaultCorrupt() {
	n.stats.FaultCorrupted++
	if n.tel != nil {
		n.tel.faultCorrupt.Inc()
	}
}

func (n *Network) countFaultDup() {
	n.stats.FaultDuplicated++
	if n.tel != nil {
		n.tel.faultDup.Inc()
	}
}

func (n *Network) countCrashDrop() {
	n.stats.CrashDrops++
	if n.tel != nil {
		n.tel.crashDrops.Inc()
	}
}
