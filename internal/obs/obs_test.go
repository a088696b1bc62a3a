package obs

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestRegistryDedup checks that the same (family, labels) pair always yields
// the same handle, regardless of label order.
func TestRegistryDedup(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("argus_x_total", "help", L("a", "1"), L("b", "2"))
	b := r.Counter("argus_x_total", "", L("b", "2"), L("a", "1"))
	if a != b {
		t.Fatal("label order changed metric identity")
	}
	c := r.Counter("argus_x_total", "", L("a", "1"))
	if a == c {
		t.Fatal("different labels produced the same metric")
	}
	h1 := r.Histogram("argus_h_seconds", "", LatencyBuckets(), L("k", "v"))
	h2 := r.Histogram("argus_h_seconds", "", LatencyBuckets(), L("k", "v"))
	if h1 != h2 {
		t.Fatal("histogram not deduplicated")
	}
}

// TestNilSafety proves the "telemetry off" contract: every operation on a nil
// registry, metric handle or tracer is a no-op, never a panic.
func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x", "")
	g := r.Gauge("x", "")
	h := r.Histogram("x", "", LatencyBuckets())
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry must hand out nil metrics")
	}
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter has a value")
	}
	g.Set(3)
	g.Add(-1)
	if g.Value() != 0 {
		t.Fatal("nil gauge has a value")
	}
	h.Observe(1)
	h.ObserveDuration(1e6)
	if h.Count() != 0 || h.Sum() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil histogram has state")
	}
	snap := r.Snapshot()
	if len(snap.Metrics) != 0 {
		t.Fatal("nil registry snapshot not empty")
	}

	var tr *Tracer
	if tr.NewSession() != 0 {
		t.Fatal("nil tracer session id")
	}
	tr.Record(Span{Session: 1})
	if tr.Len() != 0 || tr.Spans() != nil {
		t.Fatal("nil tracer recorded a span")
	}
}

// TestConcurrentHammer exercises counters, gauges and histograms from many
// goroutines — including concurrent create-or-lookup through the registry and
// concurrent snapshots — and verifies the totals. Run under -race.
func TestConcurrentHammer(t *testing.T) {
	const (
		workers = 8
		perG    = 10000
	)
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				// Re-resolve through the registry to race the dedup path too.
				r.Counter("argus_hammer_total", "").Inc()
				r.Gauge("argus_hammer_gauge", "").Add(1)
				r.Histogram("argus_hammer_seconds", "", LatencyBuckets()).
					Observe(float64(i%100) / 1000)
				if i%1000 == 0 {
					_ = r.Snapshot()
				}
			}
		}()
	}
	wg.Wait()
	const want = workers * perG
	if got := r.Counter("argus_hammer_total", "").Value(); got != want {
		t.Fatalf("counter = %d, want %d", got, want)
	}
	if got := r.Gauge("argus_hammer_gauge", "").Value(); got != want {
		t.Fatalf("gauge = %d, want %d", got, want)
	}
	h := r.Histogram("argus_hammer_seconds", "", LatencyBuckets())
	if got := h.Count(); got != want {
		t.Fatalf("histogram count = %d, want %d", got, want)
	}
}

// TestShared: a registry memoizes one value per key, calling build once;
// keys of distinct types never collide; a nil registry memoizes nothing.
func TestShared(t *testing.T) {
	type keyA struct{}
	type keyB struct{}
	r := NewRegistry()
	builds := 0
	build := func() *int { builds++; v := builds; return &v }
	a := Shared(r, keyA{}, build)
	if Shared(r, keyA{}, build) != a || builds != 1 {
		t.Fatalf("second lookup rebuilt: %d builds", builds)
	}
	if Shared(r, keyB{}, build) == a || builds != 2 {
		t.Fatal("a second key type shares the first one's value")
	}
	if Shared(NewRegistry(), keyA{}, build) == a {
		t.Fatal("a second registry shares the first one's value")
	}
	var nilReg *Registry
	if Shared(nilReg, keyA{}, build) == Shared(nilReg, keyA{}, build) {
		t.Fatal("a nil registry memoized")
	}
}

// TestSharedConcurrent: goroutines racing to build one key all receive the
// one value, built once.
func TestSharedConcurrent(t *testing.T) {
	type key struct{}
	r := NewRegistry()
	var builds atomic.Int32
	const n = 8
	got := make([]*Counter, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = Shared(r, key{}, func() *Counter {
				builds.Add(1)
				return r.Counter("argus_shared_total", "")
			})
		}(i)
	}
	wg.Wait()
	if builds.Load() != 1 {
		t.Fatalf("%d builds, want 1", builds.Load())
	}
	for _, c := range got {
		if c != got[0] || c == nil {
			t.Fatal("goroutines received different values")
		}
	}
}
