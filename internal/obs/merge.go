package obs

import "sort"

// This file implements snapshot algebra: a window of one registry is
// after − before (DiffSnapshots), and windows scraped from several processes
// sum into one fleet-wide view (MergeSnapshots) that slo.SnapshotReport and
// the SLO gates consume unchanged.
//
// Merge semantics, by metric type:
//
//   - counters add;
//   - gauges take the value from the last argument holding the series
//     ("last writer wins" — gauges are point-in-time levels, and summing a
//     depth gauge across processes would be a different metric);
//   - histograms add bucket-by-bucket. Inputs with different bucket layouts
//     merge over the union of their bounds (every input bound appears in the
//     union, so each bucket's count lands exactly at its own bound); Count,
//     Sum and Overflow add, and the quantile estimates are recomputed from
//     the merged buckets.
//
// A series whose type disagrees with an earlier snapshot's series of the
// same identity is skipped — first type wins, deterministically — so merge
// is total over arbitrary (fuzzed, hostile) inputs and never panics.

// MergeSnapshots folds per-process snapshots into a single fleet-wide
// snapshot. The result is sorted like Registry.Snapshot output; inputs are
// not modified. Nil snapshots are ignored; with no usable input the result
// is empty. Nothing ships it today: its tests and FuzzMergeSnapshots hold
// the algebra for a fleet view in argus-ops over several obs planes.
func MergeSnapshots(snaps ...*Snapshot) *Snapshot {
	merged := map[string]*Metric{}
	for _, s := range snaps {
		if s == nil {
			continue
		}
		for i := range s.Metrics {
			m := &s.Metrics[i]
			key := m.id()
			prev, ok := merged[key]
			if !ok {
				c := copyMetric(m)
				if c.Type == "histogram" {
					normalizeHistogram(c)
				}
				merged[key] = c
				continue
			}
			if prev.Type != m.Type {
				continue // first type wins
			}
			switch m.Type {
			case "counter":
				prev.Value += m.Value
			case "gauge":
				prev.Value = m.Value // last writer wins
			case "histogram":
				mergeHistogram(prev, m)
			}
		}
	}
	out := &Snapshot{Metrics: make([]Metric, 0, len(merged))}
	for _, m := range merged {
		out.Metrics = append(out.Metrics, *m)
	}
	sort.Slice(out.Metrics, func(i, j int) bool {
		return out.Metrics[i].id() < out.Metrics[j].id()
	})
	return out
}

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
// the repair exists because merge promises totality over arbitrary parsed
// input, where a series seen by exactly one snapshot would otherwise skip
// every other consistency path.
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

// mergeHistogram folds src into dst over the union of their bucket bounds.
func mergeHistogram(dst, src *Metric) {
	db, dc := bucketCounts(dst)
	sb, sc := bucketCounts(src)
	seen := map[float64]bool{}
	var union []float64
	for _, b := range append(append([]float64(nil), db...), sb...) {
		if !seen[b] {
			seen[b] = true
			union = append(union, b)
		}
	}
	sort.Float64s(union)
	at := make(map[float64]int, len(union))
	for i, b := range union {
		at[b] = i
	}
	counts := make([]uint64, len(union))
	for i, b := range db {
		counts[at[b]] += dc[i]
	}
	for i, b := range sb {
		counts[at[b]] += sc[i]
	}
	sum := dst.Sum + src.Sum
	rebuild(dst, union, counts, dst.Overflow+src.Overflow)
	dst.Sum = sum
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
