package main

// The command is driven as a real process: the test binary re-executes
// itself with ARGUS_BENCH_CHILD=1, which runs main instead of the tests.

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"

	"argus/internal/exp"
)

func TestMain(m *testing.M) {
	if os.Getenv("ARGUS_BENCH_CHILD") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// bench runs argus-bench with args and returns its stdout and exit code.
func bench(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "ARGUS_BENCH_CHILD=1")
	out, err := cmd.Output()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return string(out), 0
	case errors.As(err, &exit):
		return string(out), exit.ExitCode()
	}
	t.Fatalf("argus-bench %v: %v", args, err)
	return "", 0
}

func TestListPrintsEveryExperiment(t *testing.T) {
	out, code := bench(t, "-list")
	if code != 0 {
		t.Fatalf("-list exited %d", code)
	}
	if want := strings.Join(exp.IDs(), "\n") + "\n"; out != want {
		t.Fatalf("-list printed\n%s\nwant\n%s", out, want)
	}
}

func TestUnknownExperimentExits2(t *testing.T) {
	if _, code := bench(t, "-exp", "table1,overhead"); code != 2 {
		t.Fatalf("unknown experiment exited %d, want 2", code)
	}
}

// TestTable1Quick: the quick Table I run prints one row per compared scheme.
func TestTable1Quick(t *testing.T) {
	out, code := bench(t, "-exp", "table1", "-quick")
	if code != 0 {
		t.Fatalf("-exp table1 -quick exited %d:\n%s", code, out)
	}
	for _, scheme := range []string{"ID-based ACL", "ABE", "Argus"} {
		rows := 0
		for _, line := range strings.Split(out, "\n") {
			if strings.Contains(line, "  "+scheme+"  ") {
				rows++
			}
		}
		if rows != 1 {
			t.Errorf("%d rows for %q, want 1:\n%s", rows, scheme, out)
		}
	}
}
