package core

import "time"

// RetryPolicy makes the 4-way handshake survive a lossy ground network: the
// paper's testbed runs over real WiFi (§IX) where QUE/RES frames are lost,
// duplicated and reordered, and a protocol that hangs a session on one lost
// frame cannot reproduce its results there. An enabled policy drives bounded
// RFC 6298 retransmission on the subject side, answer-caching idempotency on
// the object side, and session-table expiry on both — all on the transport's
// clock, so fixed-seed simulator runs stay deterministic. Every deadline sits
// on one timer wheel. How long a retransmission waits depends on what the
// answer costs the peer:
//
//   - a light leg — a QUE1 rebroadcast while every silent peer was hinted
//     and answers with a short RES1, and a resumed QUE2 — costs it no
//     public-key operation, and once a round trip has been measured waits
//     max(srtt + 4·rttvar, G)·2^(attempt−1), G = lightFloor;
//   - a full leg — first contact, a signed RES1, a full QUE2, a rebroadcast
//     while a Level 1 or an unhinted peer is silent — and every leg before
//     the first sample wait Timeout·2^(attempt−1), stretched to the observed
//     horizon srtt + 4·rttvar.
//
// On a lossless network an answered session cancels its deadlines before
// they fire.
//
// The zero value disables everything: engines behave exactly like the
// pre-retry protocol (one shot per message, no timers, sessions pruned by
// round age), which keeps the calibrated latency experiments (Fig 6)
// untouched.
type RetryPolicy struct {
	// Que1Retries bounds the consecutive unanswered QUE1 rebroadcasts
	// (quiescence probes) of a round. Objects suppress duplicates via R_S
	// (§IV-B), so a probe only reaches receivers that lost earlier copies —
	// and nudges objects with stalled sessions to resend RES1.
	Que1Retries int
	// Que2Retries is how many times the subject retransmits QUE2 while its
	// session is still pending (no verified RES2 yet).
	Que2Retries int
	// Timeout is the initial retransmission timeout and the floor under
	// every later one of a full leg, and of a light one until the first
	// round trip is measured. Zero disables the whole policy (Enabled
	// reports false).
	Timeout time.Duration
	// SessionTTL bounds the lifetime of a pending or answered session; after
	// it, the session is garbage-collected and counted as expired. Zero means
	// the default of 8s. Expiries are never deferred.
	SessionTTL time.Duration
}

// Enabled reports whether the policy is active.
func (p RetryPolicy) Enabled() bool { return p.Timeout > 0 }

// delay returns the floor of the wait before retransmission attempt
// (1-based) of a full leg: Timeout, doubled per attempt.
func (p RetryPolicy) delay(attempt int) time.Duration { return backoff(p.Timeout, attempt) }

// backoff returns d doubled per attempt (1-based) after the first (RFC 6298
// §5.5), capped at 10s so a large Timeout cannot stall the virtual clock.
func backoff(d time.Duration, attempt int) time.Duration {
	const maxDelay = 10 * time.Second
	for i := 1; i < attempt && d < maxDelay; i++ {
		d *= 2
	}
	return min(d, maxDelay)
}

// lightFloor (G) is the floor under a light leg's retransmission horizon
// (rttEstimator.light). A light leg costs the peer a few HMACs, so once a
// round trip has been measured the subject retransmits at that horizon
// (RFC 6298 §2, RFC 9002 §6.2) rather than at Timeout. The floor sits above
// the 15–30 ms p99 of a loss-free round on a saturated 2-vCPU host, so a
// loss-free round does not retransmit because its answer sat in a queue.
const lightFloor = 50 * time.Millisecond

// Schedule returns the earliest cumulative transmission offsets of one
// message leg: the initial send at 0, then each of the retries attempts at
// Σ delay(1..i) — what the wheel fires while the round-trip horizon sits at
// the Timeout floor and nothing defers it. Harnesses use it to reason about
// when copies of a frame hit the air — e.g. to prove a duty-cycled
// receiver's awake windows cover the schedule, or to wait out the retry tail
// of a drained wave.
func (p RetryPolicy) Schedule(retries int) []time.Duration {
	return schedule(p.Timeout, retries)
}

// LightSchedule is Schedule for a light leg at its shortest: the offsets the
// wheel fires while the measured horizon sits at the floor G (lightFloor). A
// light leg waits anywhere from there up to a full one's wait, so a harness
// proving a duty cycle covered for a peer that answers on light legs checks
// both schedules.
func (p RetryPolicy) LightSchedule(retries int) []time.Duration {
	return schedule(lightFloor, retries)
}

// schedule returns the cumulative offsets of a leg whose first retransmission
// waits first, doubled per attempt.
func schedule(first time.Duration, retries int) []time.Duration {
	out := make([]time.Duration, 0, retries+1)
	var cum time.Duration
	out = append(out, 0)
	for i := 1; i <= retries; i++ {
		cum += backoff(first, i)
		out = append(out, cum)
	}
	return out
}

// ttl returns the effective session lifetime.
func (p RetryPolicy) ttl() time.Duration {
	if p.SessionTTL > 0 {
		return p.SessionTTL
	}
	return 8 * time.Second
}

// DefaultRetry is the policy argus-node ships and argus-sim, the chaos
// harness and the benchmark fleet run: sized so a 20% per-frame loss rate
// still completes discovery. Six consecutive silent QUE1 broadcasts put the
// all-lost tail at 0.2^6 ≈ 6e-5; a Level 1 exchange, whose only recovery
// channel is rebroadcast→RES1-resend (~64% per attempt at 20% loss), still
// fails less than ~0.3% of the time. The full-leg schedule (250, 750, 1750,
// 3750, 7750 ms) fits inside SessionTTL, so a fully partitioned network
// settles in one SessionTTL; a light leg's schedule starts at the measured
// round trip, no earlier than G = 50 ms, and ends sooner.
func DefaultRetry() RetryPolicy {
	return RetryPolicy{
		Que1Retries: 5,
		Que2Retries: 5,
		Timeout:     250 * time.Millisecond,
		SessionTTL:  8 * time.Second,
	}
}
