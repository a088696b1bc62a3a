package main

// E2E over the -obs flag: a real argus-load process (the ARGUS_LOAD_CHILD
// trampoline) serves its obs plane while a small soak runs, and the test
// tails /events exactly like argus-ops does, asserting the live stream
// carries snapshot, span and the harness's free-form wave/churn/report
// frames before the run ends.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"argus/internal/realtime"
)

func TestMain(m *testing.M) {
	if os.Getenv("ARGUS_LOAD_CHILD") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestObsPlaneStreamsLiveRun(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	out := filepath.Join(t.TempDir(), "report.json")
	cmd := exec.Command(os.Args[0],
		"-profile", "ci-soak", "-cells", "1", "-subjects", "2", "-objects", "2",
		"-waves", "1", "-min-peak", "-1", "-obs", "127.0.0.1:0", "-quiet", "-out", out)
	cmd.Env = append(os.Environ(), "ARGUS_LOAD_CHILD=1")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})

	var addr string
	sc := bufio.NewScanner(stderr)
	for sc.Scan() {
		if a, ok := strings.CutPrefix(sc.Text(), "obs listening addr="); ok {
			addr = a
			break
		}
	}
	if addr == "" {
		t.Fatalf("argus-load never announced its obs plane (scan err %v)", sc.Err())
	}
	go io.Copy(io.Discard, stderr)

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	seen := map[string]bool{}
	err = realtime.Tail(ctx, "http://"+addr+"/events", func(ev realtime.Event) error {
		seen[ev.Type] = true
		if seen[realtime.EventSnapshot] && seen[realtime.EventSpan] &&
			seen["wave"] && seen["churn"] && seen["report"] {
			return realtime.Stop
		}
		return nil
	})
	if err != nil {
		t.Fatalf("tail: %v (seen %v)", err, seen)
	}

	if err := cmd.Wait(); err != nil {
		t.Fatalf("argus-load exited %v (want SLO pass)", err)
	}
	if _, err := os.Stat(out); err != nil {
		t.Fatalf("report not written: %v", err)
	}
}

// TestProfileFlagsWriteHeadlessProfiles runs a tiny soak with -cpuprofile
// and -memprofile and asserts both pprof files land non-empty — the
// headless profiling workflow documented in the README.
func TestProfileFlagsWriteHeadlessProfiles(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	out := filepath.Join(dir, "report.json")
	cmd := exec.Command(os.Args[0],
		"-profile", "ci-soak", "-cells", "1", "-subjects", "2", "-objects", "2",
		"-waves", "1", "-min-peak", "-1", "-quiet", "-out", out,
		"-cpuprofile", cpu, "-memprofile", mem)
	cmd.Env = append(os.Environ(), "ARGUS_LOAD_CHILD=1")
	if outB, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("argus-load: %v\n%s", err, outB)
	}
	for _, p := range []string{cpu, mem, out} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("%s not written: %v", filepath.Base(p), err)
		}
		if st.Size() == 0 {
			t.Fatalf("%s is empty", filepath.Base(p))
		}
	}
}

// TestShardWordRunsTheShard: `argus-load shard <flags>` is dispatched to the
// shard's own flag set before argus-load's, so a bad shard flag set exits
// non-zero with the shard's error, not argus-load's usage.
func TestShardWordRunsTheShard(t *testing.T) {
	cmd := exec.Command(os.Args[0], "shard", "-shard-index", "2", "-shards", "2", "-addr-file", "x")
	cmd.Env = append(os.Environ(), "ARGUS_LOAD_CHILD=1")
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("out-of-range shard index exited 0:\n%s", out)
	}
	if want := "shard: index 2 outside [0, 2)"; !strings.Contains(string(out), want) {
		t.Fatalf("shard printed %q, want its own error %q", out, want)
	}
}

// TestCapacitySelfExecE2E runs the sharded capacity search end to end on the
// 2×2×2 smoke fleet: the coordinator child re-executes its own binary (this
// test binary, through the trampoline) as its two shards, finds a knee, and
// reports the profile's level mix — the same mix the in-process placement
// resolves (scripts/capacity_smoke.sh holds the two against each other).
func TestCapacitySelfExecE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	cmd := exec.Command(os.Args[0], "-capacity", "-procs", "2",
		"-profile", "ci-soak", "-cells", "2", "-subjects", "2", "-objects", "2",
		"-cap-start", "25", "-cap-tol", "0.5", "-cap-trials", "4", "-cap-duration", "1s", "-quiet")
	cmd.Env = append(os.Environ(), "ARGUS_LOAD_CHILD=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("argus-load -capacity -procs 2: %v\n%s", err, stderr.Bytes())
	}
	var doc struct {
		Procs       int               `json:"procs"`
		WarmByLevel map[string]uint64 `json:"warm_sessions_by_level"`
		Search      struct {
			Knee float64 `json:"knee_sessions_per_second"`
		} `json:"search"`
	}
	if err := json.Unmarshal(out, &doc); err != nil {
		t.Fatalf("capacity document: %v\n%s", err, out)
	}
	if doc.Procs != 2 || doc.Search.Knee <= 0 {
		t.Fatalf("procs %d, knee %v: want two processes and a non-zero knee", doc.Procs, doc.Search.Knee)
	}
	if want := map[string]uint64{"1": 2, "2": 4, "3": 2}; !reflect.DeepEqual(doc.WarmByLevel, want) {
		t.Fatalf("warm_sessions_by_level %v, want %v", doc.WarmByLevel, want)
	}
}
