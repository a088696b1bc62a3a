package obs

import "sort"

// This file implements snapshot algebra: a window of one registry is
// after − before (DiffSnapshots), which slo.SnapshotReport and the SLO gates
// consume like any snapshot.

// DiffSnapshots returns after − before, series by series: counter values and
// histogram bucket counts subtract (clamped at zero, so a restarted process
// reads as a fresh window rather than a negative one); gauges keep the
// `after` value. Series present only in `after` pass through unchanged;
// series only in `before` are dropped. Histogram quantiles are recomputed
// over the difference window. Nil inputs are treated as empty.
func DiffSnapshots(after, before *Snapshot) *Snapshot {
	out := &Snapshot{}
	if after == nil {
		return out
	}
	base := map[string]*Metric{}
	if before != nil {
		for i := range before.Metrics {
			m := &before.Metrics[i]
			base[m.id()] = m
		}
	}
	for i := range after.Metrics {
		m := copyMetric(&after.Metrics[i])
		if prev, ok := base[m.id()]; ok && prev.Type == m.Type {
			switch m.Type {
			case "counter":
				m.Value -= prev.Value
				if m.Value < 0 {
					m.Value = 0
				}
			case "histogram":
				diffHistogram(m, prev)
			}
		} else if m.Type == "histogram" {
			normalizeHistogram(m)
		}
		out.Metrics = append(out.Metrics, *m)
	}
	sort.Slice(out.Metrics, func(i, j int) bool {
		return out.Metrics[i].id() < out.Metrics[j].id()
	})
	return out
}

// copyMetric deep-copies the slices and map so snapshot algebra never
// aliases its inputs.
func copyMetric(m *Metric) *Metric {
	out := *m
	if m.Labels != nil {
		out.Labels = make(map[string]string, len(m.Labels))
		for k, v := range m.Labels {
			out.Labels[k] = v
		}
	}
	out.Buckets = append([]Bucket(nil), m.Buckets...)
	return &out
}

// normalizeHistogram re-derives a histogram's cumulative form from its own
// buckets, repairing non-monotone counts and a Count that disagrees with
// buckets+overflow. A registry-produced snapshot is already consistent and
// passes through bit-identically (quantiles recompute to the same values);
// the repair exists because a diff's input may be any parsed snapshot, where
// a series with no earlier value would otherwise skip every other consistency
// path.
func normalizeHistogram(m *Metric) {
	bounds, counts := bucketCounts(m)
	sum := m.Sum
	rebuild(m, bounds, counts, m.Overflow)
	m.Sum = sum
}

// bucketCounts lowers a metric's cumulative buckets to per-bucket counts.
// Non-monotone cumulative input (possible only in adversarial snapshots) is
// repaired by clamping each step at its predecessor.
func bucketCounts(m *Metric) (bounds []float64, counts []uint64) {
	bounds = make([]float64, len(m.Buckets))
	counts = make([]uint64, len(m.Buckets))
	var prev uint64
	for i, b := range m.Buckets {
		bounds[i] = b.LE
		c := b.Count
		if c < prev {
			c = prev
		}
		counts[i] = c - prev
		prev = c
	}
	return bounds, counts
}

// rebuild writes bounds plus per-bucket counts (and overflow) back into the
// metric's cumulative form, recomputing Count and the quantile estimates.
// Sum is left to the caller.
func rebuild(m *Metric, bounds []float64, counts []uint64, overflow uint64) {
	m.Buckets = make([]Bucket, len(bounds))
	var cum uint64
	for i, b := range bounds {
		cum += counts[i]
		m.Buckets[i] = Bucket{LE: b, Count: cum}
	}
	m.Overflow = overflow
	m.Count = cum + overflow
	all := append(append([]uint64(nil), counts...), overflow)
	m.P50 = bucketQuantile(0.50, bounds, all, m.Count)
	m.P95 = bucketQuantile(0.95, bounds, all, m.Count)
	m.P99 = bucketQuantile(0.99, bounds, all, m.Count)
}

// diffHistogram subtracts prev's window from m in place. Layout changes
// between scrapes of one process cannot happen (bounds are immutable per
// registry); if the layouts disagree anyway, m is kept as-is — the honest
// fallback for a restarted process.
func diffHistogram(m, prev *Metric) {
	mb, mc := bucketCounts(m)
	pb, pc := bucketCounts(prev)
	if len(mb) != len(pb) {
		return
	}
	for i := range mb {
		if mb[i] != pb[i] {
			return
		}
	}
	for i := range mc {
		if mc[i] >= pc[i] {
			mc[i] -= pc[i]
		} else {
			mc[i] = 0
		}
	}
	overflow := m.Overflow
	if overflow >= prev.Overflow {
		overflow -= prev.Overflow
	} else {
		overflow = 0
	}
	sum := m.Sum - prev.Sum
	if sum < 0 {
		sum = 0
	}
	rebuild(m, mb, mc, overflow)
	m.Sum = sum
}
