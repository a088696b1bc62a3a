package obs

import (
	"math"
	"reflect"
	"testing"
)

// mkCounter / mkGauge / mkHist build snapshot metrics directly, the way
// ParseSnapshot would deliver them from a scraped obs plane.
func mkCounter(name string, v float64, labels map[string]string) Metric {
	return Metric{Name: name, Type: "counter", Labels: labels, Value: v}
}

func mkGauge(name string, v float64) Metric {
	return Metric{Name: name, Type: "gauge", Value: v}
}

// mkHist builds a histogram metric from per-bucket (non-cumulative) counts.
func mkHist(name string, bounds []float64, counts []uint64, overflow uint64, sum float64) Metric {
	m := Metric{Name: name, Type: "histogram", Sum: sum}
	var cum uint64
	for i, b := range bounds {
		cum += counts[i]
		m.Buckets = append(m.Buckets, Bucket{LE: b, Count: cum})
	}
	m.Overflow = overflow
	m.Count = cum + overflow
	all := append(append([]uint64(nil), counts...), overflow)
	m.P50 = bucketQuantile(0.50, bounds, all, m.Count)
	m.P95 = bucketQuantile(0.95, bounds, all, m.Count)
	m.P99 = bucketQuantile(0.99, bounds, all, m.Count)
	return m
}

func snap(ms ...Metric) *Snapshot { return &Snapshot{Metrics: ms} }

func TestDiffSnapshots(t *testing.T) {
	before := snap(
		mkCounter("c", 10, nil),
		mkCounter("gone", 3, nil),
		mkGauge("g", 5),
		mkHist("h", []float64{1, 2}, []uint64{2, 1}, 1, 4),
	)
	after := snap(
		mkCounter("c", 15, nil),
		mkCounter("fresh", 2, nil),
		mkGauge("g", 9),
		mkHist("h", []float64{1, 2}, []uint64{5, 1}, 3, 10),
	)
	got := DiffSnapshots(after, before)
	want := []Metric{
		mkCounter("c", 5, nil),
		mkCounter("fresh", 2, nil),
		mkGauge("g", 9),
		mkHist("h", []float64{1, 2}, []uint64{3, 0}, 2, 6),
	}
	if len(got.Metrics) != len(want) {
		t.Fatalf("got %d metrics, want %d: %+v", len(got.Metrics), len(want), got.Metrics)
	}
	for i := range want {
		if !metricEq(&got.Metrics[i], &want[i]) {
			t.Errorf("metric %d:\n got  %+v\n want %+v", i, got.Metrics[i], want[i])
		}
	}

	// A counter that went backwards (process restart) clamps to zero.
	clamped := DiffSnapshots(snap(mkCounter("c", 1, nil)), snap(mkCounter("c", 10, nil)))
	if v := clamped.Metrics[0].Value; v != 0 {
		t.Errorf("restart clamp: got %v, want 0", v)
	}
}

func TestDiffThenReportWindow(t *testing.T) {
	// The capacity trial's exact flow: observe, snapshot, observe more,
	// snapshot, diff — the diff must describe only the second window.
	r := NewRegistry()
	h := r.Histogram("argus_w_seconds", "w", []float64{0.01, 0.1, 1})
	h.Observe(0.005)
	h.Observe(0.05)
	before := r.Snapshot()
	h.Observe(0.5)
	h.Observe(0.5)
	h.Observe(5) // overflow
	diff := DiffSnapshots(r.Snapshot(), before)
	m := diff.Get("argus_w_seconds")
	if m == nil {
		t.Fatal("histogram missing from diff")
	}
	if m.Count != 3 || m.Overflow != 1 {
		t.Fatalf("window count %d overflow %d, want 3 and 1", m.Count, m.Overflow)
	}
	if m.P50 < 0.1 || m.P50 > 1 {
		t.Errorf("window p50 %v outside the 0.5s bucket", m.P50)
	}
}

// TestDiffRepairsParsedInput: a diff's input may be any parsed snapshot. A
// histogram with no earlier series is normalized — cumulative buckets made
// monotone, Count re-derived — one whose bucket layout changed is kept as it
// is, and labels are copied, not shared.
func TestDiffRepairsParsedInput(t *testing.T) {
	broken := Metric{Name: "h", Type: "histogram", Count: 99, Overflow: 1, Sum: 3,
		Buckets: []Bucket{{LE: 1, Count: 4}, {LE: 2, Count: 2}, {LE: 4, Count: 5}}}
	relaid := mkHist("r", []float64{1, 8}, []uint64{1, 1}, 0, 2)
	labels := map[string]string{"role": "object"}
	got := DiffSnapshots(
		snap(broken, relaid, mkCounter("c", 5, labels)),
		snap(mkHist("r", []float64{1, 2}, []uint64{1, 0}, 0, 1), mkCounter("c", 2, labels)),
	)
	want := []Metric{
		mkCounter("c", 3, labels),
		mkHist("h", []float64{1, 2, 4}, []uint64{4, 0, 1}, 1, 3),
		relaid,
	}
	if len(got.Metrics) != len(want) {
		t.Fatalf("got %d metrics, want %d: %+v", len(got.Metrics), len(want), got.Metrics)
	}
	for i := range want {
		if !metricEq(&got.Metrics[i], &want[i]) {
			t.Errorf("metric %d:\n got  %+v\n want %+v", i, got.Metrics[i], want[i])
		}
	}
	got.Metrics[0].Labels["role"] = "changed"
	if labels["role"] != "object" {
		t.Error("the diff shares its input's labels")
	}
}

// metricEq compares two metrics with float tolerance on the derived
// quantiles.
func metricEq(a, b *Metric) bool {
	if a.Name != b.Name || a.Type != b.Type || !reflect.DeepEqual(a.Labels, b.Labels) {
		return false
	}
	feq := func(x, y float64) bool { return math.Abs(x-y) < 1e-9 }
	if !feq(a.Value, b.Value) || !feq(a.Sum, b.Sum) {
		return false
	}
	if a.Count != b.Count || a.Overflow != b.Overflow || !reflect.DeepEqual(a.Buckets, b.Buckets) {
		return false
	}
	return feq(a.P50, b.P50) && feq(a.P95, b.P95) && feq(a.P99, b.P99)
}
