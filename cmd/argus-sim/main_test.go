package main

import (
	"bytes"
	"os"
	"os/exec"
	"testing"
)

// TestMain doubles as the argus-sim trampoline: the test re-executes its own
// binary with ARGUS_SIM_CHILD=1 and the child runs main instead of the suite.
func TestMain(m *testing.M) {
	if os.Getenv("ARGUS_SIM_CHILD") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestSameSeedSameBytes: the simulator is deterministic at the CLI surface —
// two runs of a full deployment with churn under one seed print
// byte-identical stdout.
func TestSameSeedSameBytes(t *testing.T) {
	run := func() []byte {
		t.Helper()
		cmd := exec.Command(os.Args[0], "-objects", "12", "-mix", "1,2,3", "-churn", "-seed", "7")
		cmd.Env = append(os.Environ(), "ARGUS_SIM_CHILD=1")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("argus-sim: %v\n%s", err, stderr.Bytes())
		}
		return out
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("argus-sim printed nothing")
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("two runs under -seed 7 differ:\n--- first\n%s\n--- second\n%s", a, b)
	}
}
