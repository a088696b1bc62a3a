package exp

import (
	"testing"

	"argus/internal/backend"
	"argus/internal/cert"
	"argus/internal/obs"
)

func fastpathConfig() DeployConfig {
	return DeployConfig{
		Levels:       uniformLevels(backend.L2, 4),
		SubjectCosts: PhoneCosts(),
		ObjectCosts:  PiCosts(),
		Seed:         7,
	}
}

// TestCacheDoesNotPerturbDiscovery is the determinism half of the fast-path
// acceptance criteria: a fixed-seed run with the verification cache enabled
// produces a byte-identical discovery fingerprint to the uncached run. The
// cache removes real CPU work; the modeled virtual Costs are charged
// unconditionally, so nothing observable to the simulation changes. Two
// rounds make the second one warm — the case where the cache actually acts.
func TestCacheDoesNotPerturbDiscovery(t *testing.T) {
	cold, err := RunFingerprint(fastpathConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastpathConfig()
	cfg.VerifyCache = cert.NewVerifyCache(0)
	warm, err := RunFingerprint(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if cold != warm {
		t.Fatalf("cache changed the run:\n--- uncached ---\n%s--- cached ---\n%s", cold, warm)
	}
	if hits, _, _ := cfg.VerifyCache.Stats(); hits == 0 {
		t.Fatal("cache never hit — the warm round did not exercise it")
	}
}

// TestDeployCacheInstrumented: Deploy wires the shared cache into every
// engine and instruments it under the deployment registry.
func TestDeployCacheInstrumented(t *testing.T) {
	cfg := fastpathConfig()
	cfg.VerifyCache = cert.NewVerifyCache(0)
	cfg.Registry = obs.NewRegistry()
	d, err := Deploy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := d.Run(1); err != nil {
			t.Fatal(err)
		}
	}
	snap := cfg.Registry.Snapshot()
	hit := snap.Get(obs.MVerifyCacheEvents, obs.L("result", "hit"))
	miss := snap.Get(obs.MVerifyCacheEvents, obs.L("result", "miss"))
	if hit == nil || miss == nil || hit.Value == 0 || miss.Value == 0 {
		t.Fatalf("cache counters not populated: hit=%+v miss=%+v", hit, miss)
	}
	// Two rounds × 4 objects × 4 credential checks per L2 handshake = 32
	// lookups, split between hits and misses across both counter kinds.
	var total float64
	for _, m := range snap.Metrics {
		if m.Name == obs.MVerifyCacheEvents {
			total += m.Value
		}
	}
	if total != 32 {
		t.Fatalf("lookup volume = %g, want 32", total)
	}
}
