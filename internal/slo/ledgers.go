package slo

import "fmt"

// The adversary harness's plain-data ledgers. They live here, not in
// internal/adversary, because a Report embeds them and the SLO gates judge
// them: adversary's personas fill them in, readers only decode them.

// Covertness is the observer's verdict: per-channel test statistics and
// p-values over the QUE2→RES2 turnaround time (Mann–Whitney U) and the RES2
// frame length (Kolmogorov–Smirnov).
type Covertness struct {
	PlainSamples  int     `json:"plain_samples"`
	CovertSamples int     `json:"covert_samples"`
	MinSamples    int     `json:"min_samples"`
	Evaluated     bool    `json:"evaluated"` // both populations reached MinSamples
	TimingU       float64 `json:"timing_u"`
	TimingP       float64 `json:"timing_p"`
	LengthD       float64 `json:"length_d"`
	LengthP       float64 `json:"length_p"`
}

// Pass reports whether the covertness SLO holds at significance alpha: the
// observer collected enough evidence and failed to reject the null on both
// channels. An unevaluated verdict never passes — a starved observer is a
// broken experiment, not a covert system.
func (c Covertness) Pass(alpha float64) bool {
	return c.Evaluated && c.TimingP >= alpha && c.LengthP >= alpha
}

func (c Covertness) String() string {
	if !c.Evaluated {
		return fmt.Sprintf("covertness: not evaluated (plain %d, covert %d, need %d each)",
			c.PlainSamples, c.CovertSamples, c.MinSamples)
	}
	return fmt.Sprintf("covertness: timing p=%.4g (U=%.0f), length p=%.4g (D=%.3f) over %d/%d samples",
		c.TimingP, c.TimingU, c.LengthP, c.LengthD, c.PlainSamples, c.CovertSamples)
}

// ReplayStats is the replayer's own ledger of injected frames, which the
// harness holds against the objects' outcome counters — exactly matching
// deltas are the acceptance bar.
type ReplayStats struct {
	Targets int `json:"targets"`
	// Skipped counts targets with no complete captured transcript.
	Skipped int `json:"skipped"`
	// OrphanQue2 replays landed before any session existed for the
	// replayer's address: each must count as exactly one object-side orphan.
	OrphanQue2 int64 `json:"orphan_que2"`
	// Que1 replays of the captured broadcast from the replayer's address:
	// each opens a fresh handshake (result=handshake) at the object.
	Que1 int64 `json:"que1"`
	// DupQue1 concurrent duplicates: each must earn a byte-identical cached
	// RES1 resend (result=duplicate).
	DupQue1 int64 `json:"dup_que1"`
	// StaleQue2 replays against the session the replayer itself opened: the
	// QUE2 signature covers the honest RES1 (a stale R_O), so each must be
	// rejected (result=rejected) — never served. A captured short QUE2 names
	// a ticket that is spent, or filed under the honest subject's address:
	// refused (argus_resumptions_total result=refused), served no more.
	StaleQue2 int64 `json:"stale_que2"`
	// IdempotencyViolations counts duplicate-QUE1 responses that were not
	// byte-identical to the first RES1, and missing responses.
	IdempotencyViolations int64 `json:"idempotency_violations"`
}

// Merge accumulates per-cell stats into one fleet ledger.
func (s *ReplayStats) Merge(o ReplayStats) {
	s.Targets += o.Targets
	s.Skipped += o.Skipped
	s.OrphanQue2 += o.OrphanQue2
	s.Que1 += o.Que1
	s.DupQue1 += o.DupQue1
	s.StaleQue2 += o.StaleQue2
	s.IdempotencyViolations += o.IdempotencyViolations
}

// SybilStats ledgers one cell's flood.
type SybilStats struct {
	// Identities is the number of distinct attacker endpoints used (one per
	// flood round — a fresh address each time, as a Sybil swarm would).
	Identities int `json:"identities"`
	// Broadcasts is the number of QUE1 floods sent.
	Broadcasts int64 `json:"broadcasts"`
	// SecureRes1 counts handshake offers received (sessions the flood
	// opened at Level 2/3 objects); PublicRes1 counts Level 1 answers.
	SecureRes1 int64 `json:"secure_res1"`
	PublicRes1 int64 `json:"public_res1"`
	// Forged counts the structurally-valid QUE2s sent against those
	// sessions. Every one must show up as exactly one object-side
	// rejection: the rogue certificate fails verification.
	Forged int64 `json:"forged"`
}

// Merge accumulates per-cell stats into one fleet ledger.
func (s *SybilStats) Merge(o SybilStats) {
	s.Identities += o.Identities
	s.Broadcasts += o.Broadcasts
	s.SecureRes1 += o.SecureRes1
	s.PublicRes1 += o.PublicRes1
	s.Forged += o.Forged
}
