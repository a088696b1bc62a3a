package load

import (
	"sync/atomic"
	"time"

	"argus/internal/obs"
	"argus/internal/transport"
)

// sleepyEndpoint models a duty-cycled IoT radio: the device listens only
// during the first awake window of every period and is deaf otherwise, so
// broadcasts that land in the sleep window are silently missed and must be
// recovered by the subject's retransmission schedule. Gating happens on the
// inbound path only — an object engine transmits purely in reaction to
// inbound frames (RES1/RES2 answers, cached resends), so a device that heard
// nothing has nothing to say, and outbound needs no gate.
//
// The phase offset staggers the fleet so sleepy devices don't sleep in
// lockstep; wake() pins the radio on for good (used by the adversary phase,
// whose exact injected-vs-rejected accounting cannot tolerate a target that
// slept through a forged frame).
type sleepyEndpoint struct {
	transport.Endpoint
	period time.Duration
	awake  time.Duration
	start  time.Duration // Now() at creation, minus the phase offset
	forced atomic.Bool   // stay-awake override
	drops  *obs.Counter
}

// wrapSleepy returns ep duty-cycled at (period, awake) with the given phase
// offset, counting missed frames under obs.MLoadSleepyDrops.
func wrapSleepy(ep transport.Endpoint, period, awake, phase time.Duration, reg *obs.Registry) *sleepyEndpoint {
	return &sleepyEndpoint{
		Endpoint: ep,
		period:   period,
		awake:    awake,
		start:    ep.Now() - phase,
		drops: reg.Counter(obs.MLoadSleepyDrops,
			"inbound frames missed by duty-cycled (sleepy) objects"),
	}
}

// wake pins the radio awake for the rest of the run.
func (s *sleepyEndpoint) wake() { s.forced.Store(true) }

func (s *sleepyEndpoint) asleep() bool {
	if s.forced.Load() {
		return false
	}
	return (s.Now()-s.start)%s.period >= s.awake
}

func (s *sleepyEndpoint) Bind(h transport.Handler) {
	s.Endpoint.Bind(transport.HandlerFunc(func(from transport.Addr, payload []byte) {
		if s.asleep() {
			s.drops.Inc()
			return
		}
		h.Handle(from, payload)
	}))
}
