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

// TestStrayArgumentIsAUsageError: argus-load takes no positional arguments,
// so a stray word prints the usage and exits 2 instead of starting a run.
func TestStrayArgumentIsAUsageError(t *testing.T) {
	for _, args := range [][]string{{"-list", "typo"}, {"shard", "-profile", "ci-soak"}} {
		cmd := exec.Command(os.Args[0], args...)
		cmd.Env = append(os.Environ(), "ARGUS_LOAD_CHILD=1")
		out, err := cmd.CombinedOutput()
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
			t.Fatalf("argus-load %v: %v, want exit 2\n%s", args, err, out)
		}
		if !strings.Contains(string(out), "Usage") {
			t.Fatalf("argus-load %v printed no usage:\n%s", args, out)
		}
	}
}

// TestBadOutFailsBeforeTheFleet: an -out under a missing directory exits 2
// before any fleet is built, on the profile and the capacity path alike —
// on `standard`, building the fleet alone takes far longer than the bound.
func TestBadOutFailsBeforeTheFleet(t *testing.T) {
	out := filepath.Join(t.TempDir(), "missing", "report.json")
	for _, args := range [][]string{
		{"-profile", "standard", "-quiet", "-out", out},
		{"-capacity", "-profile", "standard", "-quiet", "-out", out},
	} {
		cmd := exec.Command(os.Args[0], args...)
		cmd.Env = append(os.Environ(), "ARGUS_LOAD_CHILD=1")
		start := time.Now()
		msg, err := cmd.CombinedOutput()
		took := time.Since(start)
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
			t.Fatalf("argus-load %v: %v, want exit 2\n%s", args, err, msg)
		}
		if took >= 2*time.Second {
			t.Fatalf("argus-load %v took %v to reject its -out, want < 2s", args, took)
		}
	}
}

// TestCapacityInProcessE2E runs the capacity search end to end on the 2×2×2
// smoke fleet (the flags of scripts/capacity_smoke.sh): a non-zero knee, the
// profile's level mix in the warm wave, and one placement, so no procs key.
func TestCapacityInProcessE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	cmd := exec.Command(os.Args[0], "-capacity",
		"-profile", "ci-soak", "-cells", "2", "-subjects", "2", "-objects", "2",
		"-cap-start", "25", "-cap-tol", "0.5", "-cap-trials", "4", "-cap-duration", "1s", "-quiet")
	cmd.Env = append(os.Environ(), "ARGUS_LOAD_CHILD=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("argus-load -capacity: %v\n%s", err, stderr.Bytes())
	}
	var doc struct {
		WarmByLevel map[string]uint64 `json:"warm_sessions_by_level"`
		Search      struct {
			Knee float64 `json:"knee_sessions_per_second"`
		} `json:"search"`
	}
	if err := json.Unmarshal(out, &doc); err != nil {
		t.Fatalf("capacity document: %v\n%s", err, out)
	}
	if doc.Search.Knee <= 0 {
		t.Fatalf("knee %v: want a non-zero knee", doc.Search.Knee)
	}
	if want := map[string]uint64{"1": 2, "2": 4, "3": 2}; !reflect.DeepEqual(doc.WarmByLevel, want) {
		t.Fatalf("warm_sessions_by_level %v, want %v", doc.WarmByLevel, want)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(out, &keys); err != nil {
		t.Fatal(err)
	}
	if _, ok := keys["procs"]; ok {
		t.Fatalf("capacity document carries a procs key:\n%s", out)
	}
}
