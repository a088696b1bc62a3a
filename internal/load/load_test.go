package load

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"argus/internal/backend"
	"argus/internal/core"
	"argus/internal/netsim"
	"argus/internal/obs"
	"argus/internal/slo"
	"argus/internal/transport"

	"argus/internal/transport/transporttest"
)

// TestCISoak is the deterministic short soak CI runs under -race: the
// built-in ci-soak profile (96 subjects × 24 objects over Mesh, three waves
// with cold→warm verify-cache phases and revocation + live-add churn
// before the last wave). Everything the big profiles assert is asserted
// here at a size that finishes in seconds.
func TestCISoak(t *testing.T) {
	p := Profiles()["ci-soak"]
	p.Logf = t.Logf
	p.Registry = obs.NewRegistry()
	before := p.Registry.Snapshot()
	rep, err := Run(p)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !rep.SLO.Pass {
		t.Fatalf("SLO violations: %v", rep.SLO.Violations)
	}
	checkTotalsAreTheRegistry(t, rep, obs.DiffSnapshots(p.Registry.Snapshot(), before))
	if rep.Totals.Lost != 0 {
		t.Fatalf("lost completions: %d", rep.Totals.Lost)
	}
	if rep.Totals.Completed != rep.Totals.Armed {
		t.Fatalf("completed %d != armed %d", rep.Totals.Completed, rep.Totals.Armed)
	}
	if rep.Totals.Unexpected != 0 || rep.Totals.LevelMismatch != 0 {
		t.Fatalf("unexpected %d, level mismatches %d",
			rep.Totals.Unexpected, rep.Totals.LevelMismatch)
	}

	// Deterministic churn arithmetic: 25% of 8 subjects per cell revoked
	// and 25% added, in 12 cells.
	if rep.Fleet.Revoked != 24 || rep.Fleet.Added != 24 {
		t.Fatalf("churn: revoked %d added %d, want 24/24", rep.Fleet.Revoked, rep.Fleet.Added)
	}
	if got, want := rep.Counters["updates_applied"], int64(24*p.ObjectsPerCell); got != want {
		t.Fatalf("updates applied %d, want %d", got, want)
	}
	if rep.Counters["updates_rejected"] != 0 {
		t.Fatalf("updates rejected: %d", rep.Counters["updates_rejected"])
	}

	// Crash window: one of each cell's two objects rides the DLQ through the
	// churn (CrashFrac 0.5 × 12 cells), missing 2 revocations each; all 24
	// parked letters must redeliver with the queues back at depth zero.
	if rep.Fleet.Crashed != 12 {
		t.Fatalf("crashed objects: %d, want 12", rep.Fleet.Crashed)
	}
	if got := rep.Counters["update_undeliverable"]; got != 24 {
		t.Fatalf("undeliverable: %d, want 24", got)
	}
	if got := rep.Counters["update_redelivered"]; got != 24 {
		t.Fatalf("redelivered: %d, want 24", got)
	}
	if rep.Counters["dlq_depth"] != 0 || rep.Counters["dlq_evictions"] != 0 {
		t.Fatalf("DLQ residue: depth %d, evictions %d",
			rep.Counters["dlq_depth"], rep.Counters["dlq_evictions"])
	}
	if rep.RedeliveryLag == nil || rep.RedeliveryLag.Count != 24 {
		t.Fatalf("redelivery lag quantiles = %+v, want count 24", rep.RedeliveryLag)
	}

	// Wave shape: wave 0 arms 96 subjects × 2 objects; the last wave runs
	// with 24 revoked (each still finding the cell's single L1 object... or
	// none) and 24 fresh subjects.
	if len(rep.Waves) != 3 {
		t.Fatalf("waves: %d", len(rep.Waves))
	}
	if rep.Waves[0].Armed != int64(96*2) {
		t.Fatalf("wave 0 armed %d, want %d", rep.Waves[0].Armed, 96*2)
	}
	// Cold → warm: the first wave must miss, later waves must hit.
	if rep.Waves[0].VCacheMisses == 0 {
		t.Fatal("wave 0 saw no verify-cache misses (cold phase missing)")
	}
	if rep.Waves[1].VCacheHits == 0 {
		t.Fatal("wave 1 saw no verify-cache hits (warm phase missing)")
	}
	// A freshly added subject's first handshake is cold again.
	if rep.Waves[2].VCacheMisses == 0 {
		t.Fatal("post-churn wave saw no new cold handshakes")
	}

	// The expectation ledger and the engines' own telemetry must agree:
	// every completion the harness counted was recorded as a discovery
	// (late post-reap completions would add discoveries, but a lossless
	// run has none).
	if got := rep.Counters["discoveries"]; got != rep.Totals.Completed {
		t.Fatalf("telemetry cross-check: discoveries %d != completed %d", got, rep.Totals.Completed)
	}
	if rep.Counters["mailbox_drops"] != 0 {
		t.Fatalf("mailbox drops: %d", rep.Counters["mailbox_drops"])
	}
	if rep.Totals.LeakedSessions != 0 {
		t.Fatalf("leaked sessions: %d", rep.Totals.LeakedSessions)
	}
	if rep.Totals.PeakInflight < p.SLO.MinPeakConcurrent {
		t.Fatalf("peak inflight %d below profile floor %d",
			rep.Totals.PeakInflight, p.SLO.MinPeakConcurrent)
	}

	// The report must serialize.
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
}

// checkTotalsAreTheRegistry: every total a snapshot consumer can compute is
// kept once, in the registry — the report's figures are slo.SnapshotReport over
// the run's own window, not a second ledger that could drift from it.
func checkTotalsAreTheRegistry(t *testing.T, rep *slo.Report, window *obs.Snapshot) {
	t.Helper()
	got, want := rep.Totals, slo.SnapshotReport(window).Totals
	if got.Armed != want.Armed || got.Completed != want.Completed || got.Lost != want.Lost ||
		got.Unexpected != want.Unexpected || got.SkippedArrivals != want.SkippedArrivals ||
		got.PeakInflight != want.PeakInflight {
		t.Fatalf("report totals %+v disagree with the registry window's %+v", got, want)
	}
	if got.Armed == 0 || got.PeakInflight == 0 {
		t.Fatalf("registry window is empty: %+v", got)
	}
}

// TestChurnDLQRedelivery is the acceptance-criteria churn scenario: a
// crash-windowed fraction of each cell's objects miss the revocation storm,
// their notifications park in the per-destination dead-letter queue, and on
// reattach the whole backlog redelivers exactly once and in order — proven
// end to end by exact applied counts, zero rejections (the agents reject any
// replay or reordering), queues back at depth zero, and a populated
// redelivery-lag histogram.
func TestChurnDLQRedelivery(t *testing.T) {
	p := Profile{
		Name:      "dlq-churn-test",
		Transport: TransportMesh,
		Cells:     4, SubjectsPerCell: 4, ObjectsPerCell: 3,
		Levels: []backend.Level{backend.L1, backend.L2, backend.L2},
		Waves:  2, ThinkTime: 10 * time.Millisecond,
		RevokeFrac: 0.5,  // 2 of 4 subjects per cell
		CrashFrac:  0.34, // 1 of 3 objects per cell
		Retry: core.RetryPolicy{
			Que1Retries: 3, Que2Retries: 3,
			Timeout: 100 * time.Millisecond, SessionTTL: time.Second,
		},
		Seed:         5,
		DrainTimeout: 30 * time.Second,
		SLO:          slo.SLO{P99Ceiling: 8 * time.Second, MaxRetransmissions: -1},
		Logf:         t.Logf,
	}
	rep, err := Run(p)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !rep.SLO.Pass {
		t.Fatalf("SLO violations: %v", rep.SLO.Violations)
	}
	if rep.Totals.Lost != 0 || rep.Totals.Completed != rep.Totals.Armed {
		t.Fatalf("run incomplete: %+v", rep.Totals)
	}

	// 2 revoked subjects × 3 objects × 4 cells = 24 notifications pushed;
	// the crashed object in each cell parks its 2.
	if rep.Fleet.Crashed != 4 {
		t.Fatalf("crashed: %d, want 4", rep.Fleet.Crashed)
	}
	const parked = 2 * 4
	if got := rep.Counters["update_undeliverable"]; got != parked {
		t.Fatalf("undeliverable: %d, want %d", got, parked)
	}
	if got := rep.Counters["update_redelivered"]; got != parked {
		t.Fatalf("redelivered: %d, want %d", got, parked)
	}
	if got := rep.Counters["updates_applied"]; got != 24 {
		t.Fatalf("applied: %d, want 24 (exactly once)", got)
	}
	if rep.Counters["updates_rejected"] != 0 {
		t.Fatalf("rejected: %d (replay or reorder reached an agent)", rep.Counters["updates_rejected"])
	}
	if rep.Counters["dlq_depth"] != 0 || rep.Counters["dlq_evictions"] != 0 {
		t.Fatalf("DLQ residue: depth %d, evictions %d",
			rep.Counters["dlq_depth"], rep.Counters["dlq_evictions"])
	}
	if rep.RedeliveryLag == nil || rep.RedeliveryLag.Count != parked {
		t.Fatalf("redelivery lag = %+v, want count %d", rep.RedeliveryLag, parked)
	}
	// Every delivered notification (live + redelivered) lands in the
	// agent-side propagation accounting via the distributor's SentAt.
	if got := rep.Counters["update_sent"]; got != 24 {
		t.Fatalf("sent: %d, want 24", got)
	}
}

// eventRecorder captures frames published by a run (the Publisher seam).
type eventRecorder struct {
	mu    sync.Mutex
	kinds []string
	snaps int
}

func (e *eventRecorder) PublishSnapshot() {
	e.mu.Lock()
	e.snaps++
	e.mu.Unlock()
}

func (e *eventRecorder) PublishData(kind string, v any) error {
	e.mu.Lock()
	e.kinds = append(e.kinds, kind)
	e.mu.Unlock()
	return nil
}

func (e *eventRecorder) count(kind string) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := 0
	for _, k := range e.kinds {
		if k == kind {
			n++
		}
	}
	return n
}

// TestRunLiveObservability: a caller-supplied registry receives the run's
// telemetry, the tracer receives discovery spans, and the event hook sees
// wave/churn/report frames with snapshots at each boundary.
func TestRunLiveObservability(t *testing.T) {
	reg := obs.NewRegistry()
	tr := obs.NewTracer()
	rec := &eventRecorder{}
	p := Profile{
		Name:      "live-obs-test",
		Transport: TransportMesh,
		Cells:     2, SubjectsPerCell: 2, ObjectsPerCell: 2,
		Levels: []backend.Level{backend.L1, backend.L2},
		Waves:  2, ThinkTime: 10 * time.Millisecond,
		RevokeFrac: 0.5,
		Retry: core.RetryPolicy{
			Que1Retries: 3, Que2Retries: 3,
			Timeout: 100 * time.Millisecond, SessionTTL: time.Second,
		},
		Seed:         3,
		DrainTimeout: 30 * time.Second,
		SLO:          slo.SLO{P99Ceiling: 8 * time.Second, MaxRetransmissions: -1},
		Registry:     reg,
		Tracer:       tr,
		Events:       rec,
		Logf:         t.Logf,
	}
	rep, err := Run(p)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !rep.SLO.Pass {
		t.Fatalf("SLO violations: %v", rep.SLO.Violations)
	}
	// The caller's registry is the run's registry.
	if got := slo.SumFamily(reg.Snapshot(), obs.MLoadCompletions); got != rep.Totals.Completed {
		t.Fatalf("caller registry completions %d != report %d", got, rep.Totals.Completed)
	}
	if tr.Len() == 0 {
		t.Fatal("caller tracer recorded no discovery spans")
	}
	if got := rec.count("wave"); got != p.Waves {
		t.Fatalf("wave frames: %d, want %d", got, p.Waves)
	}
	if rec.count("churn") != 1 || rec.count("report") != 1 {
		t.Fatalf("frames %v, want one churn and one report", rec.kinds)
	}
	if rec.snaps < p.Waves+2 { // per wave + churn + final
		t.Fatalf("snapshot frames: %d, want >= %d", rec.snaps, p.Waves+2)
	}

	// slo.SnapshotReport over the live registry agrees with the gates the final
	// report is held to.
	sr := slo.SnapshotReport(reg.Snapshot())
	if sr.Totals.Completed != rep.Totals.Completed || sr.Totals.Lost != 0 {
		t.Fatalf("SnapshotReport totals %+v disagree with report %+v", sr.Totals, rep.Totals)
	}
	for _, g := range p.SLO.StreamGates(sr, nil, 0) {
		if g.Violated {
			t.Fatalf("streaming gate %s violated on a passing run: %+v", g.Name, g)
		}
	}
}

// TestUDPSoakSmall runs a shrunken udp-smoke over real loopback sockets.
func TestUDPSoakSmall(t *testing.T) {
	p := Profiles()["udp-smoke"]
	p.Cells, p.SubjectsPerCell, p.ObjectsPerCell = 2, 3, 2
	p.SLO.MinPeakConcurrent = 6
	p.Logf = t.Logf
	rep, err := Run(p)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !rep.SLO.Pass {
		t.Fatalf("SLO violations: %v", rep.SLO.Violations)
	}
	if rep.Totals.Lost != 0 || rep.Totals.Completed != rep.Totals.Armed {
		t.Fatalf("udp run incomplete: %+v", rep.Totals)
	}
	if rep.Transport != "udp" {
		t.Fatalf("transport %q", rep.Transport)
	}
}

// TestOpenLoopSmall drives a small Poisson arrival schedule and checks the
// open-loop invariants: every armed round completes, skipped arrivals are
// counted rather than queued.
func TestOpenLoopSmall(t *testing.T) {
	p := Profile{
		Name:      "open-loop-test",
		Transport: TransportMesh,
		Cells:     2, SubjectsPerCell: 4, ObjectsPerCell: 2,
		Levels: []backend.Level{backend.L1, backend.L2},
		Rate:   200, Duration: 500 * time.Millisecond,
		Retry: core.RetryPolicy{
			Que1Retries: 3, Que2Retries: 3,
			Timeout: 100 * time.Millisecond, SessionTTL: time.Second,
		},
		Seed:     42,
		SLO:      slo.SLO{P99Ceiling: 8 * time.Second, MaxRetransmissions: -1},
		Registry: obs.NewRegistry(),
		Logf:     t.Logf,
	}
	// A registry with history: the report covers the run's window, not the
	// registry's lifetime.
	p.Registry.Counter(obs.MLoadCompletions, "sessions completed").Add(1000)
	p.Registry.Counter(obs.MLoadLost, "sessions reaped at the drain deadline").Add(7)
	before := p.Registry.Snapshot()
	rep, err := Run(p)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !rep.SLO.Pass {
		t.Fatalf("SLO violations: %v", rep.SLO.Violations)
	}
	checkTotalsAreTheRegistry(t, rep, obs.DiffSnapshots(p.Registry.Snapshot(), before))
	if rep.Totals.Completed == 0 {
		t.Fatal("open loop completed nothing")
	}
	if rep.Totals.Lost != 0 {
		t.Fatalf("lost: %d", rep.Totals.Lost)
	}
	if rep.Totals.Completed != rep.Totals.Armed {
		t.Fatalf("completed %d != armed %d", rep.Totals.Completed, rep.Totals.Armed)
	}
}

// TestFaultySoakSmall injects loss, duplication and jitter on a small fleet
// and checks that retransmission keeps the run essentially complete. The
// loss budget makes the test deterministic-in-outcome despite random draws:
// with 6 QUE1 attempts and 6 QUE2 attempts per session the chance of even
// 4 losses among 64 sessions is negligible.
func TestFaultySoakSmall(t *testing.T) {
	p := Profile{
		Name:      "faulty-test",
		Transport: TransportMesh,
		Cells:     4, SubjectsPerCell: 4, ObjectsPerCell: 2,
		Levels: []backend.Level{backend.L2, backend.L3},
		Fellow: true,
		Waves:  2, ThinkTime: 50 * time.Millisecond,
		Faults: netsim.FaultModel{
			Loss: 0.15, Duplicate: 0.10, ReorderJitter: 5 * time.Millisecond,
		},
		FaultSeed: 99,
		Retry: core.RetryPolicy{
			Que1Retries: 5, Que2Retries: 5,
			Timeout: 50 * time.Millisecond, SessionTTL: 2 * time.Second,
		},
		Seed:         7,
		DrainTimeout: 20 * time.Second,
		SLO: slo.SLO{
			MaxLost:                3,
			MaxExpiredExtra:        3,
			P99Ceiling:             10 * time.Second,
			MaxRetransmissions:     -1,
			MaxWarmRetransmissions: -1,
		},
		Logf: t.Logf,
	}
	rep, err := Run(p)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !rep.SLO.Pass {
		t.Fatalf("SLO violations: %v", rep.SLO.Violations)
	}
	if rep.Counters["faults_lost"] == 0 {
		t.Fatal("fault injection never dropped a frame — wrapper not wired?")
	}
	if rep.Counters["retransmissions"] == 0 {
		t.Fatal("no retransmissions under 15% loss — retry not wired?")
	}
	if rep.Totals.Completed < rep.Totals.Armed-3 {
		t.Fatalf("completed %d of %d armed", rep.Totals.Completed, rep.Totals.Armed)
	}
}

// recordingEndpoint is a stub transport capturing deliveries for the fault
// wrapper unit tests.
type recordingEndpoint struct {
	mu     sync.Mutex
	sent   [][]byte
	bcast  [][]byte
	closed atomic.Bool
}

func (r *recordingEndpoint) Addr() transport.Addr { return "stub" }
func (r *recordingEndpoint) Now() time.Duration   { return 0 }
func (r *recordingEndpoint) Send(to transport.Addr, p []byte) {
	r.mu.Lock()
	r.sent = append(r.sent, append([]byte(nil), p...))
	r.mu.Unlock()
}
func (r *recordingEndpoint) Broadcast(p []byte, ttl int) {
	r.mu.Lock()
	r.bcast = append(r.bcast, append([]byte(nil), p...))
	r.mu.Unlock()
}
func (r *recordingEndpoint) After(d time.Duration, fn func())   { time.AfterFunc(d, fn) }
func (r *recordingEndpoint) Compute(c time.Duration, fn func()) { fn() }
func (r *recordingEndpoint) Do(fn func())                       { fn() }
func (r *recordingEndpoint) Bind(h transport.Handler)           {}
func (r *recordingEndpoint) Close() error                       { r.closed.Store(true); return nil }

func (r *recordingEndpoint) counts() (sent, bcast int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.sent), len(r.bcast)
}

func TestWrapFaultsInactiveIsIdentity(t *testing.T) {
	ep := &recordingEndpoint{}
	if got := WrapFaults(ep, netsim.FaultModel{}, 1, nil); got != transport.Endpoint(ep) {
		t.Fatal("inactive model must return the endpoint unchanged")
	}
}

func TestWrapFaultsLossDropsEverything(t *testing.T) {
	ep := &recordingEndpoint{}
	f := WrapFaults(ep, netsim.FaultModel{Loss: 1}, 1, nil)
	for i := 0; i < 50; i++ {
		f.Send("x", []byte{1})
		f.Broadcast([]byte{2}, 1)
	}
	if s, b := ep.counts(); s != 0 || b != 0 {
		t.Fatalf("total loss delivered %d sends, %d broadcasts", s, b)
	}
}

func TestWrapFaultsDuplicateDoubles(t *testing.T) {
	ep := &recordingEndpoint{}
	f := WrapFaults(ep, netsim.FaultModel{Duplicate: 1}, 1, nil)
	for i := 0; i < 10; i++ {
		f.Send("x", []byte{1})
	}
	if s, _ := ep.counts(); s != 20 {
		t.Fatalf("certain duplication delivered %d sends, want 20", s)
	}
}

func TestWrapFaultsCorruptFlipsAByte(t *testing.T) {
	ep := &recordingEndpoint{}
	f := WrapFaults(ep, netsim.FaultModel{Corrupt: 1}, 1, nil)
	orig := []byte{10, 20, 30, 40}
	f.Send("x", append([]byte(nil), orig...))
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if len(ep.sent) != 1 {
		t.Fatalf("deliveries: %d", len(ep.sent))
	}
	if bytes.Equal(ep.sent[0], orig) {
		t.Fatal("certain corruption delivered the frame unmodified")
	}
}

func TestWrapFaultsJitterDelaysDelivery(t *testing.T) {
	ep := &recordingEndpoint{}
	f := WrapFaults(ep, netsim.FaultModel{ReorderJitter: 30 * time.Millisecond}, 1, nil)
	f.Send("x", []byte{1})
	transporttest.WaitUntil(t, 5*time.Second, func() bool {
		s, _ := ep.counts()
		return s == 1
	}, "jittered frame delivery")
}

func TestSLOCheck(t *testing.T) {
	base := func() *slo.Report {
		return &slo.Report{
			Totals: slo.Totals{
				Armed: 100, Completed: 100,
				PeakInflight: 100,
			},
			Latency: map[string]slo.Quantiles{
				"2": {Count: 100, P50: 0.010, P99: 0.050},
			},
			Counters: map[string]int64{},
		}
	}
	cases := []struct {
		name    string
		slo     slo.SLO
		mutate  func(*slo.Report)
		wantOK  bool
		wantHit string
	}{
		{name: "clean run passes strict zero-value SLO", slo: slo.SLO{}, mutate: func(*slo.Report) {}, wantOK: true},
		{name: "lost", slo: slo.SLO{}, mutate: func(r *slo.Report) { r.Totals.Lost = 1 }, wantHit: "lost"},
		{name: "lost within budget", slo: slo.SLO{MaxLost: 2}, mutate: func(r *slo.Report) { r.Totals.Lost = 2 }, wantOK: true},
		{name: "lost disabled", slo: slo.SLO{MaxLost: -1}, mutate: func(r *slo.Report) { r.Totals.Lost = 999 }, wantOK: true},
		{name: "unexpected", slo: slo.SLO{}, mutate: func(r *slo.Report) { r.Totals.Unexpected = 1 }, wantHit: "unexpected"},
		{name: "level mismatch", slo: slo.SLO{}, mutate: func(r *slo.Report) { r.Totals.LevelMismatch = 1 }, wantHit: "level"},
		{name: "peak floor", slo: slo.SLO{MinPeakConcurrent: 101}, mutate: func(*slo.Report) {}, wantHit: "peak"},
		{name: "mailbox drops", slo: slo.SLO{}, mutate: func(r *slo.Report) { r.Counters["mailbox_drops"] = 1 }, wantHit: "mailbox"},
		{name: "malformed", slo: slo.SLO{}, mutate: func(r *slo.Report) { r.Counters["malformed_drops"] = 3 }, wantHit: "malformed"},
		{name: "retransmissions strict", slo: slo.SLO{}, mutate: func(r *slo.Report) { r.Counters["retransmissions_timeout"] = 1 }, wantHit: "retransmissions"},
		{name: "blind-round probes are no retransmission gate's business", slo: slo.SLO{}, mutate: func(r *slo.Report) { r.Counters["retransmissions"] = 9 }, wantOK: true},
		{name: "retransmissions within budget", slo: slo.SLO{MaxRetransmissions: 50}, mutate: func(r *slo.Report) { r.Counters["retransmissions_timeout"] = 50 }, wantOK: true},
		{name: "retransmissions disabled", slo: slo.SLO{MaxRetransmissions: -1}, mutate: func(r *slo.Report) { r.Counters["retransmissions_timeout"] = 99999 }, wantOK: true},
		{name: "warm-wave retransmissions strict", slo: slo.SLO{}, mutate: func(r *slo.Report) {
			r.Waves = append(r.Waves, slo.WaveStats{Index: 0}, slo.WaveStats{Index: 1, Retransmissions: 1})
		}, wantHit: "warm-wave"},
		{name: "cold-wave retransmissions exempt from warm gate", slo: slo.SLO{MaxRetransmissions: 10}, mutate: func(r *slo.Report) {
			r.Counters["retransmissions_timeout"] = 7
			r.Waves = append(r.Waves, slo.WaveStats{Index: 0, Retransmissions: 7}, slo.WaveStats{Index: 1})
		}, wantOK: true},
		{name: "warm-wave gate disabled", slo: slo.SLO{MaxWarmRetransmissions: -1, MaxRetransmissions: -1}, mutate: func(r *slo.Report) {
			r.Waves = append(r.Waves, slo.WaveStats{Index: 1, Retransmissions: 500})
		}, wantOK: true},
		{name: "unexplained expiries", slo: slo.SLO{}, mutate: func(r *slo.Report) { r.Counters["subject_sessions_expired"] = 2 }, wantHit: "expir"},
		{name: "predicted expiries pass", slo: slo.SLO{}, mutate: func(r *slo.Report) {
			r.Counters["subject_sessions_expired"] = 2
			r.PredictedSubjectExpiries = 2
		}, wantOK: true},
		{name: "leak", slo: slo.SLO{}, mutate: func(r *slo.Report) { r.Totals.LeakedSessions = 1 }, wantHit: "leak"},
		{name: "p50 ceiling", slo: slo.SLO{P50Ceiling: 5 * time.Millisecond}, mutate: func(*slo.Report) {}, wantHit: "p50"},
		{name: "p99 ceiling", slo: slo.SLO{P99Ceiling: 20 * time.Millisecond}, mutate: func(*slo.Report) {}, wantHit: "p99"},
		{name: "slow sessions", slo: slo.SLO{}, mutate: func(r *slo.Report) {
			q := r.Latency["2"]
			q.Overflow = 1
			r.Latency["2"] = q
		}, wantHit: "histogram range"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep := base()
			tc.mutate(rep)
			res := tc.slo.Check(rep)
			if tc.wantOK {
				if !res.Pass {
					t.Fatalf("want pass, got violations %v", res.Violations)
				}
				return
			}
			if res.Pass {
				t.Fatalf("want violation containing %q, got pass", tc.wantHit)
			}
			found := false
			for _, v := range res.Violations {
				if bytes.Contains([]byte(v), []byte(tc.wantHit)) {
					found = true
				}
			}
			if !found {
				t.Fatalf("violations %v missing %q", res.Violations, tc.wantHit)
			}
		})
	}
}

func TestProfileValidate(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Profile)
	}{
		{"unknown transport", func(p *Profile) { p.Transport = "carrier-pigeon" }},
		{"session-table pressure", func(p *Profile) { p.SubjectsPerCell = 65 }},
		{"open-loop churn", func(p *Profile) { p.Rate = 10; p.Duration = time.Second; p.RevokeFrac = 0.5 }},
		{"crash without churn", func(p *Profile) { p.RevokeFrac = 0; p.AddFrac = 0; p.CrashFrac = 0.5 }},
		{"roam with churn", func(p *Profile) { p.RoamFrac = 0.5 }},
		{"roam single cell", func(p *Profile) {
			p.RevokeFrac, p.AddFrac, p.CrashFrac = 0, 0, 0
			p.RoamFrac = 0.5
			p.Cells = 1
		}},
		{"sleepy without retransmission", func(p *Profile) {
			p.RevokeFrac, p.AddFrac, p.CrashFrac = 0, 0, 0
			p.SleepyFrac = 0.5
			p.Retry = core.RetryPolicy{Timeout: 100 * time.Millisecond}
		}},
		{"sleepy uncovered schedule", func(p *Profile) {
			p.RevokeFrac, p.AddFrac, p.CrashFrac = 0, 0, 0
			p.SleepyFrac = 0.5
			p.SleepPeriod = 10 * time.Second
			p.SleepAwake = 100 * time.Millisecond
		}},
		{"sleepy covered only by the broadcast", func(p *Profile) {
			// {0, 100, 300, 700} ms mod 260 leaves 80 ms gaps, the probes
			// alone 120 ms: an awake neighbour's answer moves the probes off
			// the broadcast's phase, so offset 0 may not count.
			p.RevokeFrac, p.AddFrac, p.CrashFrac = 0, 0, 0
			p.SleepyFrac = 0.5
			p.SleepPeriod = 260 * time.Millisecond
			p.SleepAwake = 100 * time.Millisecond
			p.Retry.SessionTTL = 4 * time.Second // outlives the recovery tail
		}},
		{"replay persona with faults", func(p *Profile) {
			p.RevokeFrac, p.AddFrac, p.CrashFrac = 0, 0, 0
			p.ReplayTargets = 1
			p.Faults = netsim.FaultModel{Loss: 0.5}
		}},
		{"replay targets exceed secure objects", func(p *Profile) {
			p.RevokeFrac, p.AddFrac, p.CrashFrac = 0, 0, 0
			p.ReplayTargets = 2 // ci-soak cells hold 2 objects, at most 1 secure in cell 0
		}},
		{"observer with fellow", func(p *Profile) { p.Observer = true }},
		{"broken scoping with fellow", func(p *Profile) { p.BreakScoping = true }},
		{"observer without L3 population", func(p *Profile) {
			p.Fellow = false
			p.Observer = true
			p.Levels = []backend.Level{backend.L2}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := Profiles()["ci-soak"]
			tc.mut(&p)
			if _, err := Run(p); err == nil {
				t.Fatal("want validation error")
			}
		})
	}
}

func TestProfilesRegistryShapes(t *testing.T) {
	ps := Profiles()
	// The SLO blocks live in slo.Profiles (argus-ops reads them there): the
	// two registries name the same profiles, and each profile runs under its
	// table entry.
	slos := slo.Profiles()
	if len(slos) != len(ps) {
		t.Errorf("slo.Profiles has %d entries, load.Profiles %d", len(slos), len(ps))
	}
	for name, p := range ps {
		if want, ok := slos[name]; !ok {
			t.Errorf("profile %q has no entry in slo.Profiles", name)
		} else if p.SLO != want {
			t.Errorf("profile %q runs under %+v, slo.Profiles says %+v", name, p.SLO, want)
		}
	}
	for _, name := range []string{"ci-soak", "standard", "udp-smoke", "open-loop", "soak-faulty", "adversary-soak", "covert-observer"} {
		p, ok := ps[name]
		if !ok {
			t.Fatalf("missing built-in profile %q", name)
		}
		pd := p.withDefaults()
		if err := pd.validate(); err != nil {
			t.Fatalf("profile %q invalid: %v", name, err)
		}
	}
	// The headline profile must actually be able to reach its advertised
	// concurrency: armed sessions per wave ≥ the SLO floor.
	std := ps["standard"]
	if got := int64(std.Subjects() * std.ObjectsPerCell); got < std.SLO.MinPeakConcurrent {
		t.Fatalf("standard profile arms %d < floor %d", got, std.SLO.MinPeakConcurrent)
	}
	if std.Subjects() < 10000 || std.Objects() < 1000 {
		t.Fatalf("standard fleet too small: %d subjects, %d objects", std.Subjects(), std.Objects())
	}
}
