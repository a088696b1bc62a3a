package exp

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"argus/internal/backend"
	"argus/internal/core"
	"argus/internal/netsim"
	"argus/internal/wire"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/fingerprints.golden")

// goldenConfigs spans the deployment space the transport refactor must not
// perturb: levels, versions, multi-hop rings, fault injection with retry, and
// fellow runs. Each entry's Fingerprint is pinned in testdata so that the
// netsim adapter provably replays the exact event sequence of the direct
// engine↔simulator coupling it replaced.
func goldenConfigs() map[string]DeployConfig {
	return map[string]DeployConfig{
		"l1-uniform": {
			Levels: uniformLevels(backend.L1, 8),
			Seed:   7,
		},
		"l2-uniform": {
			Levels: uniformLevels(backend.L2, 8),
			Seed:   7,
		},
		"l3-fellow": {
			Levels: uniformLevels(backend.L3, 6),
			Seed:   11,
			Fellow: true,
		},
		"mixed-multihop": {
			Levels: []backend.Level{backend.L1, backend.L2, backend.L3, backend.L2, backend.L3, backend.L1, backend.L2, backend.L3, backend.L2, backend.L1},
			HopOf:  paperHops(10),
			Seed:   3,
			Fellow: true,
		},
		"v20-mixed": {
			Levels:  []backend.Level{backend.L2, backend.L3, backend.L2, backend.L3},
			Version: wire.V20,
			Seed:    5,
			Fellow:  true,
		},
		"lossy-retry": {
			Levels: uniformLevels(backend.L2, 6),
			Seed:   13,
			Faults: netsim.FaultModel{Loss: 0.2},
			Retry: core.RetryPolicy{
				Que1Retries: 3,
				Que2Retries: 3,
				Timeout:     250 * time.Millisecond,
				SessionTTL:  4 * time.Second,
			},
		},
	}
}

// TestFingerprintGolden locks the fixed-seed simulation outputs across the
// transport refactor: run with -update before a behavior-preserving change,
// never after one.
func TestFingerprintGolden(t *testing.T) {
	path := filepath.Join("testdata", "fingerprints.golden")
	got := ""
	names := []string{"l1-uniform", "l2-uniform", "l3-fellow", "mixed-multihop", "v20-mixed", "lossy-retry"}
	cfgs := goldenConfigs()
	for _, name := range names {
		fp, err := RunFingerprint(cfgs[name], 2)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got += "== " + name + "\n" + fp
	}
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if string(want) != got {
		t.Fatalf("fixed-seed fingerprints drifted from %s:\n got:\n%s\nwant:\n%s", path, got, want)
	}
}
