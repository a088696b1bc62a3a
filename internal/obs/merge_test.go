package obs

import (
	"bytes"
	"encoding/json"
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

func TestMergeSnapshotsTable(t *testing.T) {
	cases := []struct {
		name string
		in   []*Snapshot
		want []Metric
	}{
		{
			name: "counters sum across processes and label sets stay distinct",
			in: []*Snapshot{
				snap(mkCounter("c", 3, map[string]string{"role": "subject"}), mkCounter("c", 1, map[string]string{"role": "object"})),
				snap(mkCounter("c", 4, map[string]string{"role": "subject"})),
				nil,
				snap(mkCounter("c", 2, map[string]string{"role": "subject"})),
			},
			want: []Metric{
				mkCounter("c", 1, map[string]string{"role": "object"}),
				mkCounter("c", 9, map[string]string{"role": "subject"}),
			},
		},
		{
			name: "gauges take the last writer",
			in: []*Snapshot{
				snap(mkGauge("depth", 7)),
				snap(mkGauge("depth", 3)),
				snap(mkCounter("other", 1, nil)),
			},
			want: []Metric{mkGauge("depth", 3), mkCounter("other", 1, nil)},
		},
		{
			name: "histograms with identical bounds add bucket-wise incl. overflow",
			in: []*Snapshot{
				snap(mkHist("h", []float64{1, 2, 4}, []uint64{1, 2, 0}, 1, 5)),
				snap(mkHist("h", []float64{1, 2, 4}, []uint64{0, 1, 3}, 2, 20)),
			},
			want: []Metric{mkHist("h", []float64{1, 2, 4}, []uint64{1, 3, 3}, 3, 25)},
		},
		{
			name: "histograms with different bounds merge over the union",
			in: []*Snapshot{
				snap(mkHist("h", []float64{1, 4}, []uint64{2, 1}, 0, 4)),
				snap(mkHist("h", []float64{2, 4, 8}, []uint64{1, 1, 1}, 1, 30)),
			},
			// union bounds {1,2,4,8}: 2@1 from the first input, 1@2 from the
			// second, 1+1@4 from both, 1@8, overflow 0+1.
			want: []Metric{mkHist("h", []float64{1, 2, 4, 8}, []uint64{2, 1, 2, 1}, 1, 34)},
		},
		{
			name: "type conflict: first seen wins, later series skipped",
			in: []*Snapshot{
				snap(mkCounter("x", 5, nil)),
				snap(mkGauge("x", 100)),
			},
			want: []Metric{mkCounter("x", 5, nil)},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := MergeSnapshots(tc.in...)
			if len(got.Metrics) != len(tc.want) {
				t.Fatalf("got %d metrics, want %d: %+v", len(got.Metrics), len(tc.want), got.Metrics)
			}
			for i := range tc.want {
				if !metricEq(&got.Metrics[i], &tc.want[i]) {
					t.Errorf("metric %d:\n got  %+v\n want %+v", i, got.Metrics[i], tc.want[i])
				}
			}
		})
	}
}

func TestMergeMatchesSingleRegistry(t *testing.T) {
	// Two registries observing disjoint halves of a workload must merge to
	// the same snapshot one registry observing everything produces.
	obsv := [][]float64{{0.001, 0.002, 0.5}, {0.004, 30}}
	var regs []*Registry
	all := NewRegistry()
	allH := all.Histogram("h", "lat", LatencyBuckets())
	allC := all.Counter("c", "count")
	for _, part := range obsv {
		r := NewRegistry()
		h := r.Histogram("h", "lat", LatencyBuckets())
		c := r.Counter("c", "count")
		for _, v := range part {
			h.Observe(v)
			allH.Observe(v)
			c.Inc()
			allC.Inc()
		}
		regs = append(regs, r)
	}
	merged := MergeSnapshots(regs[0].Snapshot(), regs[1].Snapshot())
	want := all.Snapshot()
	if len(merged.Metrics) != len(want.Metrics) {
		t.Fatalf("metric count %d != %d", len(merged.Metrics), len(want.Metrics))
	}
	for i := range want.Metrics {
		if !metricEq(&merged.Metrics[i], &want.Metrics[i]) {
			t.Errorf("metric %d:\n got  %+v\n want %+v", i, merged.Metrics[i], want.Metrics[i])
		}
	}
}

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

// FuzzMergeSnapshots checks merge totality and conservation over arbitrary
// parsed snapshot pairs: never panic, cumulative buckets stay monotone,
// histogram Count equals buckets + overflow, and counters conserve their
// inputs' sum.
func FuzzMergeSnapshots(f *testing.F) {
	seed := func(s *Snapshot) {
		var buf bytes.Buffer
		if err := s.WriteJSON(&buf); err == nil {
			f.Add(buf.Bytes(), buf.Bytes())
		}
	}
	seed(snap(mkCounter("c", 3, map[string]string{"role": "subject"}), mkGauge("g", 1)))
	seed(snap(mkHist("h", []float64{1, 2, 4}, []uint64{1, 2, 0}, 1, 5)))
	seed(snap(mkHist("h", []float64{2, 8}, []uint64{4, 1}, 0, 9)))
	f.Add([]byte(`{"metrics":[]}`), []byte(`not json`))

	f.Fuzz(func(t *testing.T, aRaw, bRaw []byte) {
		var a, b Snapshot
		okA := json.Unmarshal(aRaw, &a) == nil
		okB := json.Unmarshal(bRaw, &b) == nil
		var in []*Snapshot
		if okA {
			in = append(in, &a)
		}
		if okB {
			in = append(in, &b)
		}
		got := MergeSnapshots(in...)

		// Expected counter totals: first-seen type wins per id.
		wantCounter := map[string]float64{}
		typeOf := map[string]string{}
		for _, s := range in {
			for i := range s.Metrics {
				m := &s.Metrics[i]
				id := m.id()
				if prev, ok := typeOf[id]; ok && prev != m.Type {
					continue
				}
				typeOf[id] = m.Type
				if m.Type == "counter" {
					wantCounter[id] += m.Value
				}
			}
		}
		for i := range got.Metrics {
			m := &got.Metrics[i]
			switch m.Type {
			case "counter":
				if want := wantCounter[m.id()]; math.Abs(m.Value-want) > 1e-6*(1+math.Abs(want)) {
					t.Errorf("counter %s: merged %v, inputs sum to %v", m.id(), m.Value, want)
				}
			case "histogram":
				var prev uint64
				for _, b := range m.Buckets {
					if b.Count < prev {
						t.Errorf("histogram %s: cumulative buckets not monotone: %v", m.id(), m.Buckets)
						break
					}
					prev = b.Count
				}
				if len(m.Buckets) > 0 && m.Count != m.Buckets[len(m.Buckets)-1].Count+m.Overflow {
					t.Errorf("histogram %s: Count %d != last bucket %d + overflow %d",
						m.id(), m.Count, m.Buckets[len(m.Buckets)-1].Count, m.Overflow)
				}
			}
		}

		// Diff of the merge against one input must not panic and must keep
		// counters non-negative.
		if len(in) > 0 {
			d := DiffSnapshots(got, in[0])
			for i := range d.Metrics {
				if m := &d.Metrics[i]; m.Type == "counter" && m.Value < 0 {
					t.Errorf("diff counter %s negative: %v", m.id(), m.Value)
				}
			}
		}
	})
}
