package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile: with
// fewer, the figure is one or two outliers, not a property of the run.
const minBeyond = 10

// highestPercentile returns the highest whole percentile (at most 99) that
// still has at least minBeyond of n samples beyond it, or 0 when even the
// median has not.
func highestPercentile(n int) int {
	if n < 2*minBeyond {
		return 0
	}
	p := int(math.Floor(100 * float64(n-minBeyond) / float64(n)))
	if p > 99 {
		p = 99
	}
	return p
}

// percentile returns the p-th percentile (0 < p < 100) of sorted by the
// nearest-rank rule, so a reported value is always one that was measured.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median of an unsorted sample; the mean of the middle two when even.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sortedCopy(v)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quantile returns the q-quantile (0 ≤ q ≤ 1) of an unsorted sample,
// interpolated linearly between the two order statistics around it.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sortedCopy(v)
	pos := math.Min(math.Max(q, 0), 1) * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// windowed is one reported figure and the per-window values it was taken
// from, kept so that -compare can tell a shift from noise.
type windowed struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Windows []float64 `json:"windows,omitempty"`
	// Quantile is which quantile of the windows the value is; 0 for a figure
	// without windows (scalar).
	Quantile float64 `json:"window_quantile,omitempty"`
	// N is the number of samples behind the figure (rounds, sessions, ops or
	// timed calls), summed over the windows.
	N int `json:"n,omitempty"`
}

// Quartiles of windowQuiet.
const (
	quietLower = 0.25 // for a figure that is better lower
	quietUpper = 0.75 // for a figure that is better higher
	// quietBand is half the width, in quantile, of the band of windows around
	// the reported quartile that -compare judges its resolution by.
	quietBand = 0.125
)

// windowQuiet reports the quartile of the per-window values on the good side:
// the first for a figure that is better lower, the third for one that is
// better higher. The host this runs on only ever takes speed away — a stolen
// time slice, a busy sibling thread, a whole-VM stall — so the slow windows of
// a run say what the host did and the fast ones what the program does; a
// change to the program moves them all. With dozens of short windows the good
// quartile is the median of the undisturbed half.
func windowQuiet(unit string, windows []float64, q float64, n int) windowed {
	return windowed{Value: quantile(windows, q), Unit: unit, Windows: windows, Quantile: q, N: n}
}

func scalar(unit string, v float64, n int) windowed {
	return windowed{Value: v, Unit: unit, N: n}
}

// spread is the min–max distance of the windows as a share of the value; 0
// for a figure without windows.
func (w windowed) spread() float64 {
	if len(w.Windows) < 2 || w.Value == 0 {
		return 0
	}
	s := sortedCopy(w.Windows)
	return (s[len(s)-1] - s[0]) / math.Abs(w.Value)
}

// band returns the windows -compare sets against each other: those within
// quietBand, in rank, of the reported quartile.
func (w windowed) band() []float64 {
	if len(w.Windows) == 0 {
		return nil
	}
	s := sortedCopy(w.Windows)
	lo := int(math.Floor(math.Max(w.Quantile-quietBand, 0) * float64(len(s)-1)))
	hi := int(math.Ceil(math.Min(w.Quantile+quietBand, 1) * float64(len(s)-1)))
	return s[lo : hi+1]
}

// resolution is how far the reported value could be off, as a share of it:
// the width of its band.
func (w windowed) resolution() float64 {
	b := w.band()
	if len(b) < 2 || w.Value == 0 {
		return 0
	}
	return (b[len(b)-1] - b[0]) / math.Abs(w.Value)
}
