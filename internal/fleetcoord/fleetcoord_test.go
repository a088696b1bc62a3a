package fleetcoord

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"argus/internal/backend"
	"argus/internal/load"
	"argus/internal/slo"
	"argus/internal/transport/transporttest"
)

// shardDiesEnv, set in a test's environment (which Launch's children
// inherit), makes every shard child exit before it announces anything.
const shardDiesEnv = "ARGUS_FLEETCOORD_TEST_SHARD_DIES"

// TestMain doubles as the shard-child trampoline: Launch re-executes this
// test binary as `<test binary> shard <shard flags>`, and the child runs
// ShardMain instead of the test suite — the same dispatch `argus-load shard`
// does.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "shard" {
		if os.Getenv(shardDiesEnv) != "" {
			fmt.Fprintln(os.Stderr, "shard: dying on request")
			os.Exit(1)
		}
		if err := ShardMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "shard:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestOwnersSplitRoles(t *testing.T) {
	// With >= 2 processes, a cell's objects and subjects must never share a
	// process — that's what makes the traffic cross-process.
	for procs := 2; procs <= 5; procs++ {
		for cell := 0; cell < 20; cell++ {
			if cellObjOwner(cell, procs) == cellSubjOwner(cell, procs) {
				t.Errorf("procs %d cell %d: both roles on process %d", procs, cell, cellObjOwner(cell, procs))
			}
		}
	}
	// Single-process fleets degenerate to everything on process 0.
	if cellObjOwner(3, 1) != 0 || cellSubjOwner(3, 1) != 0 {
		t.Error("procs=1 must place everything on process 0")
	}
}

func TestConfigValidation(t *testing.T) {
	fleet := load.Profile{Cells: 2, SubjectsPerCell: 1, ObjectsPerCell: 1}
	good := Config{Procs: 2, Profile: fleet, WorkDir: "/tmp"}
	if _, err := good.withDefaults(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	bad := []Config{
		{},
		{Procs: 2, Profile: fleet}, // no WorkDir
		{Procs: 0, Profile: fleet, WorkDir: "y"},
		{Procs: 2, Profile: load.Profile{Cells: 2, SubjectsPerCell: 1}, WorkDir: "y"}, // no objects
	}
	for i, c := range bad {
		if _, err := c.withDefaults(); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, c)
		}
	}
}

func TestAddrFileRoundtrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "objects.addr")
	content := "cell=0 idx=0 addr=127.0.0.1:4001\ncell=0 idx=1 addr=127.0.0.1:4002\ncell=2 idx=0 addr=127.0.0.1:4003\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	addrs, err := awaitAddrFile(path, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	want := map[[2]int]string{
		{0, 0}: "127.0.0.1:4001",
		{0, 1}: "127.0.0.1:4002",
		{2, 0}: "127.0.0.1:4003",
	}
	if len(addrs) != len(want) {
		t.Fatalf("parsed %d addresses, want %d", len(addrs), len(want))
	}
	for k, v := range want {
		if addrs[k] != v {
			t.Errorf("addrs[%v] = %q, want %q", k, addrs[k], v)
		}
	}

	// A missing file times out with a diagnostic, not a hang.
	if _, err := awaitAddrFile(filepath.Join(dir, "never.addr"), 50*time.Millisecond); err == nil {
		t.Error("missing address file must error")
	}
	// A torn/garbage file is an error, not a silent partial fleet.
	if err := os.WriteFile(path, []byte("cell=0 idx=0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := awaitAddrFile(path, time.Second); err == nil {
		t.Error("malformed address line must error")
	}
}

func TestSubjectsOfPartitionsFleet(t *testing.T) {
	co := &Coordinator{cfg: Config{Procs: 3, Profile: load.Profile{Cells: 7, SubjectsPerCell: 2}}}
	total := 0
	for i := 0; i < 3; i++ {
		total += co.subjectsOf(i)
	}
	if total != 7*2 {
		t.Errorf("subject shares sum to %d, want %d", total, 14)
	}
}

func TestShardMainRejectsBadFlags(t *testing.T) {
	if err := ShardMain([]string{"-shard-index", "2", "-shards", "2", "-addr-file", "x"}); err == nil {
		t.Error("out-of-range shard index must error")
	}
	if err := ShardMain([]string{"-shard-index", "0", "-shards", "1"}); err == nil {
		t.Error("missing -addr-file must error")
	}
}

// TestShardVerbsInProcess runs one shard's whole life inside the test process
// — so under -race, which the subprocess e2e never is: provision a one-cell
// L1/L3 fellow fleet, serve it over pipes, hand the shard its own object
// addresses, and drive the sweep and trial verbs the way the coordinator does.
func TestShardVerbsInProcess(t *testing.T) {
	dir := t.TempDir()
	snap, addrFile := filepath.Join(dir, "fleet.snap"), filepath.Join(dir, "objects.addr")
	fleet := load.Profile{
		Cells: 1, SubjectsPerCell: 2, ObjectsPerCell: 2,
		Levels: []backend.Level{backend.L1, backend.L3}, Fellow: true,
	}
	if err := provisionFleet(Config{Procs: 1, Profile: fleet}, snap); err != nil {
		t.Fatal(err)
	}
	inR, inW := io.Pipe()
	outR, outW := io.Pipe()
	served := make(chan error, 1)
	go func() {
		served <- serveShard(shardConfig{procs: 1, cells: 1, subjPerCell: 2, objPerCell: 2,
			snapshot: snap, addrFile: addrFile, seed: 1}, inR, outW)
		outW.Close()
	}()
	p := &proc{objAddrs: map[[2]int]string{}}
	go p.scan(outR, t.Logf)
	await := func(what string, cond func() bool) {
		t.Helper()
		transporttest.WaitUntil(t, 30*time.Second, func() bool {
			p.mu.Lock()
			defer p.mu.Unlock()
			return cond()
		}, what)
	}

	await("object readiness", func() bool { return p.ready })
	var lines []string
	p.mu.Lock()
	for key, addr := range p.objAddrs {
		lines = append(lines, fmt.Sprintf("cell=%d idx=%d addr=%s", key[0], key[1], addr))
	}
	obsAddr := p.obsAddr
	p.mu.Unlock()
	if err := os.WriteFile(addrFile, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	await("subject arming", func() bool { return p.armed })

	verb := func(cmd string) *slo.Report {
		t.Helper()
		p.mu.Lock()
		done := p.sweeps + p.trials
		p.mu.Unlock()
		if _, err := io.WriteString(inW, cmd); err != nil {
			t.Fatal(err)
		}
		await(cmd, func() bool { return p.sweeps+p.trials > done })
		snap, err := scrape(obsAddr)
		if err != nil {
			t.Fatal(err)
		}
		return slo.SnapshotReport(snap)
	}
	warm := verb("sweep\n")
	if warm.Totals.Armed != 4 || warm.Totals.Completed != 4 || warm.Totals.Lost != 0 || warm.Totals.PeakInflight != 4 {
		t.Fatalf("sweep totals %+v, want 4 sessions armed, completed and at peak", warm.Totals)
	}
	if warm.Latency["1"].Count != 2 || warm.Latency["3"].Count != 2 {
		t.Fatalf("sweep resolved %+v, want two Level 1 and two Level 3 discoveries", warm.Latency)
	}
	trial := verb("trial 20 300\n")
	if trial.Totals.Completed <= 4 || trial.Totals.Completed != trial.Totals.Armed || trial.Totals.Unexpected != 0 {
		t.Fatalf("trial totals %+v, want every armed session completed", trial.Totals)
	}

	// An unknown verb ends the shard with an error naming it.
	if _, err := io.WriteString(inW, "reboot\n"); err != nil {
		t.Fatal(err)
	}
	if err := <-served; err == nil || !strings.Contains(err.Error(), "reboot") {
		t.Fatalf("unknown verb: serveShard returned %v", err)
	}
}

// TestScrapeBoundsAWedgedShard: a shard that accepts the connection and never
// answers costs scrape its timeout and an error, not the coordinator's run;
// and an answer that is not 200 is an error, not a snapshot.
func TestScrapeBoundsAWedgedShard(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			defer c.Close() // held open, never answered, until the test ends
		}
	}()
	start := time.Now()
	if _, err := scrape(ln.Addr().String()); err == nil {
		t.Fatal("scrape of a shard that never answers returned no error")
	}
	if took := time.Since(start); took > scrapeClient.Timeout+2*time.Second {
		t.Fatalf("scrape took %v, bound is %v", took, scrapeClient.Timeout)
	}

	srv := httptest.NewServer(http.NotFoundHandler())
	defer srv.Close()
	if _, err := scrape(strings.TrimPrefix(srv.URL, "http://")); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("scrape of a 404 returned %v", err)
	}
}

// TestLaunchFailsFastOnDeadChild: children that die before announcing their
// objects fail Launch at once with the shard named — not at the 60 s barrier
// — and leave no process behind.
func TestLaunchFailsFastOnDeadChild(t *testing.T) {
	t.Setenv(shardDiesEnv, "1")
	start := time.Now()
	_, err := Launch(Config{
		Procs:   2,
		Profile: load.Profile{Cells: 2, SubjectsPerCell: 1, ObjectsPerCell: 1},
		WorkDir: t.TempDir(),
	})
	if err == nil || !strings.Contains(err.Error(), "exited before object readiness") {
		t.Fatalf("Launch over dying children returned %v", err)
	}
	if took := time.Since(start); took > launchTimeout/2 {
		t.Fatalf("Launch took %v to notice its children were dead", took)
	}
}

// TestFleetE2E is the subprocess end-to-end: three real shard processes
// hosting the profile's L1/L2/L3 fellow fleet, cross-process discovery over
// UDP loopback, one healthy merged trial, then a mid-run kill whose merged
// verdict must degrade with a documented error instead of hanging. ~15s of
// wall time, so -short skips it.
func TestFleetE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess e2e skipped with -short")
	}
	fleet := load.Profile{
		Cells: 3, SubjectsPerCell: 2, ObjectsPerCell: 2,
		Levels: []backend.Level{backend.L1, backend.L2, backend.L3, backend.L2},
		Fellow: true,
		SLO:    slo.SLO{P50Ceiling: 4 * time.Second, P99Ceiling: 10 * time.Second},
	}
	cfg := Config{
		Procs:   3,
		Profile: fleet,
		WorkDir: t.TempDir(),
		Logf:    t.Logf,
	}
	co, err := Launch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	// Cross-process discovery proof: the warm sweep completes every
	// subject-object pair across the process boundaries, each at the level
	// the profile's pattern gives the object (cells hold L1+L2, L3+L2, L1+L2)
	// — fellows resolve the covert service at Level 3.
	warm, err := co.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	wantSessions := int64(fleet.Subjects() * fleet.ObjectsPerCell)
	if warm.Totals.Armed != wantSessions || warm.Totals.Completed != wantSessions || warm.Totals.Lost != 0 {
		t.Fatalf("warm sweep totals %+v, want %d sessions armed and completed", warm.Totals, wantSessions)
	}
	for lvl, want := range map[string]uint64{"1": 4, "2": 6, "3": 2} {
		if got := warm.Latency[lvl].Count; got != want {
			t.Errorf("warm sweep: %d Level %s discoveries, want %d", got, lvl, want)
		}
	}
	// The peak is latched in the driver, so a shard's gauge is no longer a
	// registered zero (merged gauges read the last shard's: one cell's wave).
	if warm.Totals.PeakInflight == 0 {
		t.Error("merged warm sweep reports a zero peak inflight")
	}
	if warm.Totals.WallSeconds <= 0 {
		t.Error("warm sweep carries no wall time")
	}

	// A gentle offered rate against the healthy 3-process fleet passes.
	v, err := co.Trial(8, 1500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Trial.Pass {
		t.Fatalf("healthy trial failed: %v", v.Trial.Violations)
	}
	if v.Trial.Completed == 0 {
		t.Fatal("healthy trial completed no sessions")
	}

	// Kill one shard and re-run: the merged verdict must degrade with the
	// documented per-process error — and come back before the deadline, not
	// hang on the dead child's never-arriving "trial done".
	if err := co.Kill(1); err != nil {
		t.Fatal(err)
	}
	v2, err := co.Trial(8, 1500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if v2.Trial.Pass {
		t.Fatal("trial with a dead shard must not pass")
	}
	if len(v2.ProcErrors) == 0 {
		t.Fatal("dead shard must be documented in ProcErrors")
	}
	found := false
	for _, e := range v2.ProcErrors {
		if strings.Contains(e, "process 1") {
			found = true
		}
	}
	if !found {
		t.Errorf("ProcErrors must name the dead process: %v", v2.ProcErrors)
	}
	// The documented error is folded into the violations, so downstream
	// consumers (the capacity search, BENCH_10) see it without reading
	// ProcErrors.
	folded := false
	for _, viol := range v2.Trial.Violations {
		if strings.Contains(viol, "process 1") {
			folded = true
		}
	}
	if !folded {
		t.Errorf("dead process not folded into trial violations: %v", v2.Trial.Violations)
	}
}
