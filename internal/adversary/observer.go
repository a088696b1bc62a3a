package adversary

import (
	"sync"
	"time"

	"argus/internal/obs"
	"argus/internal/slo"
	"argus/internal/transport"
	"argus/internal/wire"
)

// Population labels the two worlds the crowd observer compares. For the
// Case-7 claim the harness taps true Level 2 objects as the "plain" world
// (the covert service genuinely does not exist there) and Level 3 objects
// answering non-fellows as the "covert" world (the service exists but the
// subject is denied the Level 3 face). Covertness holds iff the two worlds
// are statistically indistinguishable on every passive channel.
type Population string

const (
	PopPlain  Population = "plain"
	PopCovert Population = "covert"
)

// Observer is the passive crowd adversary: it taps object endpoints, pairs
// each inbound QUE2 with the next RES2 sent back to the same peer, and
// accumulates (turnaround, frame length) samples per population. It is an
// antenna in a crowd — it never transmits.
type Observer struct {
	minSamples int
	maxSamples int

	mu      sync.Mutex
	turnSec map[Population][]float64
	lenB    map[Population][]float64

	samplesC map[Population]*obs.Counter
	timingG  *obs.Gauge
	lengthG  *obs.Gauge
}

// NewObserver creates an observer that evaluates once both populations hold
// minSamples observations and stops sampling a population at maxSamples
// (bounding both memory and test power; 0 means 4*minSamples).
func NewObserver(reg *obs.Registry, minSamples, maxSamples int) *Observer {
	if minSamples <= 0 {
		minSamples = 50
	}
	if maxSamples <= 0 {
		maxSamples = 4 * minSamples
	}
	o := &Observer{
		minSamples: minSamples,
		maxSamples: maxSamples,
		turnSec:    make(map[Population][]float64),
		lenB:       make(map[Population][]float64),
		samplesC:   make(map[Population]*obs.Counter),
	}
	for _, pop := range []Population{PopPlain, PopCovert} {
		o.samplesC[pop] = reg.Counter(obs.MAdversarySamples,
			"Passive observer samples collected, by population.",
			obs.L("population", string(pop)))
	}
	o.timingG = reg.Gauge(obs.MAdversaryCovertPpm,
		"Covertness two-sample test p-value, in parts per million.",
		obs.L("channel", "timing"))
	o.lengthG = reg.Gauge(obs.MAdversaryCovertPpm,
		"Covertness two-sample test p-value, in parts per million.",
		obs.L("channel", "length"))
	// Pending verdicts read as -1 so "no data yet" never renders as p = 0
	// (which would look like a catastrophic leak on the ops plane).
	o.timingG.Set(-1)
	o.lengthG.Set(-1)
	return o
}

// Tap returns a Tap that attributes the endpoint's exchanges to pop.
// Install one per tapped object (taps carry per-endpoint pairing state).
func (o *Observer) Tap(pop Population) Tap {
	return &observerTap{o: o, pop: pop, pending: make(map[transport.Addr]time.Duration)}
}

type observerTap struct {
	o   *Observer
	pop Population

	mu      sync.Mutex
	pending map[transport.Addr]time.Duration // QUE2 arrival time, by peer
}

func (t *observerTap) Inbound(peer transport.Addr, payload []byte, at time.Duration) {
	msg, err := wire.Decode(payload)
	if err != nil {
		return
	}
	if _, ok := msg.(*wire.QUE2); ok {
		t.mu.Lock()
		t.pending[peer] = at
		t.mu.Unlock()
	}
}

func (t *observerTap) Outbound(peer transport.Addr, payload []byte, at time.Duration) {
	msg, err := wire.Decode(payload)
	if err != nil {
		return
	}
	if _, ok := msg.(*wire.RES2); !ok {
		return
	}
	t.mu.Lock()
	que2At, ok := t.pending[peer]
	if ok {
		delete(t.pending, peer)
	}
	t.mu.Unlock()
	if !ok {
		return
	}
	t.o.add(t.pop, (at - que2At).Seconds(), float64(len(payload)))
}

func (o *Observer) add(pop Population, turnaroundSec, frameLen float64) {
	o.mu.Lock()
	if len(o.turnSec[pop]) >= o.maxSamples {
		o.mu.Unlock()
		return
	}
	o.turnSec[pop] = append(o.turnSec[pop], turnaroundSec)
	o.lenB[pop] = append(o.lenB[pop], frameLen)
	o.mu.Unlock()
	o.samplesC[pop].Inc()
}

// Samples returns the per-population sample counts.
func (o *Observer) Samples() (plain, covert int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.turnSec[PopPlain]), len(o.turnSec[PopCovert])
}

// Verdict runs the two-sample tests over everything collected so far and
// publishes the per-channel p-values as gauges (ppm). Unevaluated verdicts
// publish -1 so "no data" is distinguishable from "p = 0" on the ops plane.
func (o *Observer) Verdict() slo.Covertness {
	o.mu.Lock()
	c := slo.Covertness{
		PlainSamples:  len(o.turnSec[PopPlain]),
		CovertSamples: len(o.turnSec[PopCovert]),
		MinSamples:    o.minSamples,
	}
	plainT := append([]float64(nil), o.turnSec[PopPlain]...)
	covertT := append([]float64(nil), o.turnSec[PopCovert]...)
	plainL := append([]float64(nil), o.lenB[PopPlain]...)
	covertL := append([]float64(nil), o.lenB[PopCovert]...)
	o.mu.Unlock()

	if c.PlainSamples < o.minSamples || c.CovertSamples < o.minSamples {
		o.timingG.Set(-1)
		o.lengthG.Set(-1)
		return c
	}
	c.Evaluated = true
	c.TimingU, c.TimingP = MannWhitneyU(plainT, covertT)
	c.LengthD, c.LengthP = KolmogorovSmirnov(plainL, covertL)
	o.timingG.Set(int64(c.TimingP * 1e6))
	o.lengthG.Set(int64(c.LengthP * 1e6))
	return c
}
