package core

import (
	"testing"
	"time"
)

// The retransmission schedule is a protocol constant in all but name: the
// chaos harness's loss-rate math, the load harness's sleepy-object duty-cycle
// coverage proof, and DefaultRetry's documented cumulative schedule all
// assume these exact per-attempt delays. Pin them so timer tuning in the
// speed campaign cannot silently change semantics.

func TestRetryPolicyDelaySchedule(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	cases := []struct {
		name   string
		policy RetryPolicy
		want   []time.Duration // delay(1), delay(2), ...
	}{
		{
			name:   "default policy: 250ms doubling",
			policy: DefaultRetry(),
			want:   []time.Duration{ms(250), ms(500), ms(1000), ms(2000), ms(4000)},
		},
		{
			name:   "cap at 10s",
			policy: RetryPolicy{Timeout: 4 * time.Second},
			want:   []time.Duration{4 * time.Second, 8 * time.Second, 10 * time.Second, 10 * time.Second},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for i, want := range tc.want {
				attempt := i + 1
				if got := tc.policy.delay(attempt); got != want {
					t.Errorf("delay(%d) = %v, want %v", attempt, got, want)
				}
			}
		})
	}
}

func TestRetryPolicySchedule(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	cases := []struct {
		name    string
		policy  RetryPolicy
		retries int
		light   bool            // LightSchedule, not Schedule
		want    []time.Duration // cumulative offsets including the initial send
	}{
		{
			name:   "default policy matches the documented cumulative schedule",
			policy: DefaultRetry(), retries: 5,
			want: []time.Duration{0, ms(250), ms(750), ms(1750), ms(3750), ms(7750)},
		},
		{
			name:   "quick harness policy",
			policy: RetryPolicy{Timeout: ms(100)}, retries: 3,
			want: []time.Duration{0, ms(100), ms(300), ms(700)},
		},
		{
			name:   "zero retries is just the initial send",
			policy: DefaultRetry(), retries: 0,
			want: []time.Duration{0},
		},
		{
			name:   "a light leg at the floor G, whatever the Timeout",
			policy: DefaultRetry(), retries: 3, light: true,
			want: []time.Duration{0, lightFloor, 3 * lightFloor, 7 * lightFloor},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.policy.Schedule(tc.retries)
			if tc.light {
				got = tc.policy.LightSchedule(tc.retries)
			}
			if len(got) != len(tc.want) {
				t.Fatalf("Schedule(%d) = %v, want %v", tc.retries, got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("Schedule(%d)[%d] = %v, want %v", tc.retries, i, got[i], tc.want[i])
				}
			}
		})
	}
}

func TestRetryPolicyZeroValueDisabled(t *testing.T) {
	var p RetryPolicy
	if p.Enabled() {
		t.Fatal("zero-value RetryPolicy must be disabled (one-shot seed behavior)")
	}
	if (RetryPolicy{Que1Retries: 5, Que2Retries: 5}).Enabled() {
		t.Fatal("policy without a Timeout must stay disabled regardless of retry counts")
	}
	if !(RetryPolicy{Timeout: time.Millisecond}).Enabled() {
		t.Fatal("any positive Timeout enables the policy")
	}
}

func TestRetryPolicyTTL(t *testing.T) {
	if got := (RetryPolicy{}).ttl(); got != 8*time.Second {
		t.Fatalf("zero SessionTTL must default to 8s, got %v", got)
	}
	if got := (RetryPolicy{SessionTTL: 3 * time.Second}).ttl(); got != 3*time.Second {
		t.Fatalf("explicit SessionTTL not honored: got %v", got)
	}
	if got := DefaultRetry().ttl(); got != 8*time.Second {
		t.Fatalf("DefaultRetry SessionTTL = %v, want 8s", got)
	}
}

// The documented cumulative schedule (250, 750, 1750, 3750, 7750 ms) must
// stay inside DefaultRetry's SessionTTL: a rebroadcast after expiry would
// find the object's cached answer already garbage-collected.
func TestDefaultRetryScheduleInsideTTL(t *testing.T) {
	p := DefaultRetry()
	wantCumulative := []time.Duration{
		250 * time.Millisecond, 750 * time.Millisecond, 1750 * time.Millisecond,
		3750 * time.Millisecond, 7750 * time.Millisecond,
	}
	var cum time.Duration
	for i := 0; i < p.Que1Retries; i++ {
		cum += p.delay(i + 1)
		if cum != wantCumulative[i] {
			t.Fatalf("cumulative delay after attempt %d = %v, want %v", i+1, cum, wantCumulative[i])
		}
	}
	if cum >= p.ttl() {
		t.Fatalf("cumulative schedule %v must fit inside SessionTTL %v", cum, p.ttl())
	}
}
