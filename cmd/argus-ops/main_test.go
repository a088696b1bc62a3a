package main

// The in-process tests drive run() directly against an httptest-hosted hub;
// the e2e smoke re-executes this test binary as argus-ops (the
// ARGUS_OPS_CHILD trampoline) so the flag surface and exit codes are what a
// CI shell actually sees.

import (
	"bytes"
	"context"
	"net/http/httptest"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"argus/internal/obs"
	"argus/internal/realtime"
	"argus/internal/slo"
)

func TestMain(m *testing.M) {
	if os.Getenv("ARGUS_OPS_CHILD") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func child(args ...string) *exec.Cmd {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "ARGUS_OPS_CHILD=1")
	return cmd
}

// opsFixture is a live obs plane with enough state to make every rendering
// path fire: load counters, a per-level latency histogram, a DLQ gauge and a
// pre-recorded span sitting in the hub's replay ring for late attachers.
func opsFixture(t *testing.T) *httptest.Server {
	t.Helper()
	reg := obs.NewRegistry()
	tr := obs.NewTracer()
	hub := realtime.New(realtime.Config{Registry: reg, Tracer: tr, SnapshotEvery: 20 * time.Millisecond})
	t.Cleanup(hub.Close)

	reg.Counter(obs.MLoadCompletions, "").Add(40)
	reg.Counter(obs.MLoadLost, "").Add(2)
	reg.Counter(obs.MRetransmissions, "", obs.L("cause", "probe")).Add(2)
	reg.Counter(obs.MRetransmissions, "", obs.L("cause", "timeout")).Add(1)
	reg.Gauge(obs.MUpdateDLQDepth, "").Set(1)
	h := reg.Histogram(obs.MDiscoveryPhaseSeconds, "",
		[]float64{0.001, 0.005, 0.01, 0.1, 1},
		obs.L("level", "2"), obs.L("phase", obs.PhaseAll))
	for i := 0; i < 10; i++ {
		h.Observe(0.004)
	}
	tr.Record(obs.Span{Session: 7, Name: "discover", Phase: obs.PhaseAll, Level: 2,
		Start: 0, End: 4 * time.Millisecond})

	srv := httptest.NewServer(obs.NewMux(reg, tr, obs.WithStream(hub.StreamHandler())))
	t.Cleanup(srv.Close)
	return srv
}

// TestRunAwaitRendersHealth: attaching with -await snapshot,span terminates
// as soon as both frame types arrive and the rendered health block carries
// the fixture's counters, latency quantiles and SLO gates.
func TestRunAwaitRendersHealth(t *testing.T) {
	srv := opsFixture(t)
	var buf bytes.Buffer
	o := options{
		attach:  strings.TrimPrefix(srv.URL, "http://"),
		slo:     slo.SLO{MaxLost: 4, MaxDLQDepth: 0, MaxRetransmissions: -1},
		await:   []string{"snapshot", "span"},
		tailFor: 10 * time.Second,
		spans:   true,
	}
	if err := run(context.Background(), &buf, o); err != nil {
		t.Fatalf("run: %v\n%s", err, buf.String())
	}
	text := buf.String()
	for _, want := range []string{
		"attached seq=",
		"completed=40 lost=2 retransmissions=3 timeout=1",
		"dlq_depth=1",
		"L2 n=10",
		"span seq=", "session=7 discover/total L2",
		"gate lost", "used  50%", // 2 of the 4-lost budget
		"gate dlq_depth", "strict  VIOLATED",
		"SLO: 1 gate(s) VIOLATED",
		"awaited snapshot,span: all seen",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}
}

// TestRunFramesAndJSON: -frames bounds the tail and -json passes frames
// through as NDJSON.
func TestRunFramesAndJSON(t *testing.T) {
	srv := opsFixture(t)
	var buf bytes.Buffer
	o := options{attach: srv.URL, frames: 2, raw: true, tailFor: 10 * time.Second}
	if err := run(context.Background(), &buf, o); err != nil {
		t.Fatalf("run: %v\n%s", err, buf.String())
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d NDJSON lines, want 2:\n%s", len(lines), buf.String())
	}
	if !strings.Contains(lines[0], `"type":"hello"`) {
		t.Errorf("first frame is not the hello: %s", lines[0])
	}
}

// TestRunAwaitTimesOut: a deadline with unmet -await is an error naming the
// missing types.
func TestRunAwaitTimesOut(t *testing.T) {
	srv := opsFixture(t)
	var buf bytes.Buffer
	o := options{attach: srv.URL, await: []string{"never-published"}, tailFor: 100 * time.Millisecond}
	err := run(context.Background(), &buf, o)
	if err == nil || !strings.Contains(err.Error(), "never-published") {
		t.Fatalf("err = %v, want missing-await error", err)
	}
}

func TestEventsURL(t *testing.T) {
	for in, want := range map[string]string{
		"127.0.0.1:9970":            "http://127.0.0.1:9970/events",
		"http://10.0.0.2:80":        "http://10.0.0.2:80/events",
		"http://10.0.0.2:80/":       "http://10.0.0.2:80/events",
		"http://10.0.0.2:80/events": "http://10.0.0.2:80/events",
	} {
		if got := eventsURL(in); got != want {
			t.Errorf("eventsURL(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestE2EAwaitSmoke: the real CLI (argv in, exit code out) attaches to a
// live stream and exits 0 once -await is satisfied — the same invocation the
// CI ops-smoke job runs against an argus-load -obs endpoint.
func TestE2EAwaitSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	srv := opsFixture(t)
	out, err := child("-attach", srv.URL, "-profile", "ci-soak",
		"-await", "snapshot,span", "-for", "10s").CombinedOutput()
	if err != nil {
		t.Fatalf("argus-ops exited %v:\n%s", err, out)
	}
	text := string(out)
	if !strings.Contains(text, "awaited snapshot,span: all seen") {
		t.Errorf("missing await confirmation:\n%s", text)
	}
	if !strings.Contains(text, "gate lost") {
		t.Errorf("missing profile SLO gates:\n%s", text)
	}
}
