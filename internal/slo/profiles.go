package slo

import "time"

// Profiles returns the SLO block of every built-in load profile, keyed by
// profile name: load.Profiles fills Profile.SLO from it and argus-ops
// -profile reads it, so the harness and the tail judge a profile by one
// definition. The returned map is freshly built; callers may mutate their
// copy.
func Profiles() map[string]SLO {
	return map[string]SLO{
		"ci-soak": {
			MinPeakConcurrent: 150,
			P50Ceiling:        2 * time.Second,
			P99Ceiling:        8 * time.Second,
			// This profile runs under -race, where a cold handshake
			// outlasts the 100 ms initial RTO and draws quiescence
			// probes — on wave 0 and again on wave 2, whose live-added
			// subjects and post-revocation cache misses are cold too
			// (measured 24 / 0 / 20 per wave under -race, 0 / 0 / 0
			// without). Benign duplicates, not losses.
			MaxRetransmissions: -1, MaxWarmRetransmissions: -1,
		},
		"standard": {
			MinPeakConcurrent: 10000,
			P50Ceiling:        10 * time.Second,
			P99Ceiling:        13 * time.Second,
			MaxSlowSessions:   0,
			// Mesh is lossless, so once the RTT estimator has samples a
			// retransmission is a timer misfire: waves after the first
			// must retransmit exactly zero, and that invariant is pinned
			// hard. The cold first wave is different — QUE1 quiescence
			// probes fire against the initial conservative RTO while the
			// fleet's handshake backlog is deepest, measured at 0.8k–4.8k
			// probes per run on one core depending on scheduling jitter —
			// so the total gate is a cold-start noise ceiling, not a loss
			// budget.
			MaxRetransmissions:     10000,
			MaxWarmRetransmissions: 0,
		},
		"udp-smoke": {
			MinPeakConcurrent: 40,
			P50Ceiling:        2 * time.Second,
			P99Ceiling:        8 * time.Second,
			// Loopback UDP may drop a cold-wave datagram under a socket
			// buffer burst; once warm, a retransmission is a misfire.
			MaxRetransmissions: -1, MaxWarmRetransmissions: 0,
		},
		"open-loop": {
			P50Ceiling: 2 * time.Second,
			P99Ceiling: 8 * time.Second,
			// Lossless, and every completed round is declared so: no
			// deadline may fire.
			MaxRetransmissions: 0,
		},
		"soak-faulty": {
			// Injected loss can in principle exhaust the retry budget; a
			// handful of misses out of 1,600 sessions is within spec.
			MaxLost:           4,
			MinPeakConcurrent: 700,
			P50Ceiling:        4 * time.Second,
			P99Ceiling:        13 * time.Second,
			// Each lost session also shows up as (at most) one expiry on
			// each side beyond the predicted count.
			MaxExpiredExtra: 8,
			// Retransmission is the recovery mechanism here.
			MaxRetransmissions: -1, MaxWarmRetransmissions: -1,
		},
		"adversary-soak": {
			MinPeakConcurrent:         100,
			P50Ceiling:                2 * time.Second,
			P99Ceiling:                8 * time.Second,
			StrictAdversaryAccounting: true,
			// Sleepy objects miss broadcasts by design; rebroadcast is
			// what reaches them.
			MaxRetransmissions: -1, MaxWarmRetransmissions: -1,
		},
		"covert-observer": {
			MinPeakConcurrent: 100,
			P50Ceiling:        2 * time.Second,
			P99Ceiling:        8 * time.Second,
			CovertnessAlpha:   1e-3,
			// The cold wave may probe against the initial RTO while the
			// handshake backlog is deepest; warm waves must not.
			MaxRetransmissions: -1, MaxWarmRetransmissions: 0,
		},
	}
}
