// Package transporttest is the test-side face of transport.Poll (see the
// tolerance policy there): WaitUntil polls a condition to a deadline and
// fails the test if it is never met. Only test files import it.
package transporttest

import (
	"testing"
	"time"

	"argus/internal/transport"
)

// WaitUntil polls cond on transport.DefaultPollStep until the deadline and
// fails the test if it is never met. what names the awaited condition in the
// failure message.
func WaitUntil(t testing.TB, timeout time.Duration, cond func() bool, what string) {
	t.Helper()
	if !transport.Poll(timeout, transport.DefaultPollStep, cond) {
		t.Fatalf("timed out after %v waiting for %s", timeout, what)
	}
}
