package transport

import "time"

// Tolerance policy for code that waits on the real-clock transports (Mesh,
// UDP): tests and binaries must never encode a fixed sleep as a correctness
// assumption — a loaded CI worker can stretch any "plenty of time" constant
// until it flakes, and an idle workstation wastes the rest of it. Instead,
// waits are expressed as a condition polled on a short step until a generous
// deadline:
//
//   - the step (default 2 ms) bounds how stale a positive answer can be, so
//     a met condition is observed almost immediately;
//   - the deadline (callers typically pass 5–30 s, far beyond any expected
//     completion) is only ever hit on genuine failure, so its size adds no
//     latency to passing runs.
//
// cmd/argus-node, the internal/load driver and the fleet coordinator wait
// with Poll; tests wait with transporttest.WaitUntil, which is Poll plus a
// test failure.

// DefaultPollStep is the polling interval used when step <= 0: short enough
// that a satisfied condition is seen within a couple of milliseconds, long
// enough not to burn a CPU core while waiting.
const DefaultPollStep = 2 * time.Millisecond

// Poll invokes cond every step until it returns true or timeout elapses,
// and reports whether the condition was met. cond is always evaluated at
// least once, so a zero timeout degenerates to a single check.
func Poll(timeout, step time.Duration, cond func() bool) bool {
	if step <= 0 {
		step = DefaultPollStep
	}
	deadline := time.Now().Add(timeout)
	for {
		if cond() {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(step)
	}
}
