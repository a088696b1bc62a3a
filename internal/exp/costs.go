// Package exp is the experiment harness: one runner per table/figure of the
// paper's evaluation (§VIII Table I, §IX-A message overhead, Fig 6a–6h),
// each producing the same rows/series the paper reports.
//
// Computation time enters the simulator through core.Costs tables. Two modes:
//
//   - Calibrated (default): per-operation costs derived from the paper's own
//     measurements (Fig 6a/6b: 128-bit ECDSA ≈ 5 ms on the phone, object ≈
//     2.85× slower), so discovery-time experiments reproduce the testbed's
//     arithmetic deterministically.
//   - Measured: per-operation costs measured on this host at init. Useful to
//     sanity-check that relative op costs match; absolute numbers differ from
//     2016-era hardware, which EXPERIMENTS.md discusses.
package exp

import (
	"crypto/sha256"
	"time"

	"argus/internal/core"
	"argus/internal/suite"
)

// piSlowdown is the object/subject computation ratio from Fig 6(b):
// 78.2 ms / 27.4 ms on identical operation sequences.
const piSlowdown = 2.854

// PhoneCosts returns the calibrated per-operation costs of the subject
// device (Nexus 6) at 128-bit strength, fitted to Fig 6(a)/(b):
// Level 1 subject = one verification = 5.1 ms; Level 2/3 subject =
// 1 sign + 3 verify + 2 ECDH ≈ 27.4 ms.
func PhoneCosts() core.Costs {
	return core.Costs{
		Sign:      5000 * time.Microsecond,
		Verify:    5100 * time.Microsecond,
		KexGen:    3500 * time.Microsecond,
		KexShared: 3600 * time.Microsecond,
		HMAC:      40 * time.Microsecond,  // "less than 1 ms" (§IX-B)
		Cipher:    300 * time.Microsecond, // AES, "less than 1 ms"
	}
}

// PiCosts returns the calibrated object-side (Raspberry Pi 3) costs:
// the same operations, 2.854× slower (Fig 6b: 78.2 ms vs 27.4 ms).
func PiCosts() core.Costs {
	p := PhoneCosts()
	scale := func(d time.Duration) time.Duration {
		return time.Duration(float64(d) * piSlowdown)
	}
	return core.Costs{
		Sign:      scale(p.Sign),
		Verify:    scale(p.Verify),
		KexGen:    scale(p.KexGen),
		KexShared: scale(p.KexShared),
		HMAC:      scale(p.HMAC),
		Cipher:    scale(p.Cipher),
	}
}

// MeasuredCosts times the real crypto operations on this host at the given
// strength and returns them as a cost table. iters controls averaging.
func MeasuredCosts(s suite.Strength, iters int) (core.Costs, error) {
	if iters < 1 {
		iters = 1
	}
	key, err := suite.GenerateSigningKey(s, nil)
	if err != nil {
		return core.Costs{}, err
	}
	msg := make([]byte, 256)
	sig, err := key.Sign(msg)
	if err != nil {
		return core.Costs{}, err
	}
	pub := key.Public()

	timeIt := func(f func()) time.Duration {
		start := time.Now()
		for i := 0; i < iters; i++ {
			f()
		}
		return time.Since(start) / time.Duration(iters)
	}

	var c core.Costs
	c.Sign = timeIt(func() { key.Sign(msg) })
	c.Verify = timeIt(func() { pub.Verify(msg, sig) })

	peer, err := suite.NewKeyExchange(s, nil)
	if err != nil {
		return core.Costs{}, err
	}
	var kex *suite.KeyExchange
	c.KexGen = timeIt(func() { kex, _ = suite.NewKeyExchange(s, nil) })
	c.KexShared = timeIt(func() { kex.Shared(peer.Public()) })

	k := make([]byte, suite.KeySize)
	h := sha256.Sum256(msg)
	c.HMAC = timeIt(func() { suite.FinishedMAC(k, suite.LabelSubjectFinished, h) })
	plain := make([]byte, 200)
	c.Cipher = timeIt(func() { suite.EncryptProfile(k, plain, nil) })
	return c, nil
}

// SubjectComputeLevel1 returns the subject's total per-discovery computation
// in Level 1 under a cost table: one PROF verification (Fig 6b).
func SubjectComputeLevel1(c core.Costs) time.Duration { return c.Verify }

// SubjectComputeLevel23 returns the subject's total per-discovery
// computation in Level 2/3: 1 signing, 3 verifications, 2 ECDH operations
// plus the symmetric housekeeping (Fig 6b).
func SubjectComputeLevel23(c core.Costs) time.Duration {
	return c.Sign + 3*c.Verify + c.KexGen + c.KexShared + 6*c.HMAC + c.Cipher
}

// ObjectComputeLevel23 returns the object's total per-discovery computation
// in Level 2/3 (same public-key operations as the subject, Fig 6b), as a Level
// 3 object serving one covert group; a Level 2 object does 2 HMACs fewer.
func ObjectComputeLevel23(c core.Costs) time.Duration {
	return c.Sign + 3*c.Verify + c.KexGen + c.KexShared + 4*c.HMAC + c.Cipher
}
