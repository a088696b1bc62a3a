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
			// outlasts the 100 ms initial RTO: a subject's first round is
			// blind and rebroadcasts QUE1 into the backlog, and each
			// object's cached answer to that is a timeout resend (2–105
			// on wave 0 over six -race runs, 0 without -race). Once the
			// estimator has samples nothing times out: the warm waves,
			// wave 2's live-added subjects and post-revocation cache
			// misses included, held 0 in all six.
			MaxRetransmissions: -1, MaxWarmRetransmissions: 0,
		},
		"standard": {
			MinPeakConcurrent: 10000,
			P50Ceiling:        10 * time.Second,
			P99Ceiling:        13 * time.Second,
			MaxSlowSessions:   0,
			// Mesh is lossless, so once the RTT estimator has samples a
			// timeout is a timer misfire: waves after the first must time
			// out exactly zero times, and that invariant is pinned hard.
			// The cold first wave is different — every subject's first
			// round is blind, its QUE1 rebroadcasts fire against the
			// initial conservative RTO while the fleet's handshake backlog
			// is deepest, and the objects' resent answers and the QUE2s
			// behind them count as timeouts (0.8k–4.8k retransmissions per
			// run on one core when probes were still in the count) — so
			// the total gate is a cold-start noise ceiling, not a loss
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
			// The cold wave's blind first rounds rebroadcast against the
			// initial RTO while the handshake backlog is deepest, and the
			// objects' resent answers are timeouts; warm waves have none.
			MaxRetransmissions: -1, MaxWarmRetransmissions: 0,
		},
	}
}
