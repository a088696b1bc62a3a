package main

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"
)

// Verdicts of -compare.
const (
	verdictBetter     = "better"
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// worsening is how much worse b is than a, as a share of a, given which
// direction is better; negative when b is better.
func worsening(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// allBeat reports whether every value of x is better than every value of y.
func allBeat(x, y []float64, better string) bool {
	if len(x) == 0 || len(y) == 0 {
		return false
	}
	for _, xv := range x {
		for _, yv := range y {
			if worsening(yv, xv, better) >= 0 {
				return false
			}
		}
	}
	return true
}

// judge compares one (metric, workload) pair. The bound decides what counts
// as a change; the recorded windows decide whether the run could see a change
// of that size at all. A resolution (the width of the band of windows around
// the reported quartile) wider than the bound on either side leaves the pair
// unresolved, unless every window in the band of one side beats every window
// in the band of the other.
func judge(base, cur windowed, spec metricSpec) string {
	w := worsening(base.Value, cur.Value, spec.Better)
	if base.resolution() > spec.Bound || cur.resolution() > spec.Bound {
		switch {
		case allBeat(cur.band(), base.band(), spec.Better):
			return verdictBetter
		case allBeat(base.band(), cur.band(), spec.Better):
			return verdictWorse
		}
		return verdictUnresolved
	}
	switch {
	case w > spec.Bound:
		return verdictWorse
	case w < -spec.Bound:
		return verdictBetter
	}
	return verdictSame
}

// compare prints one row per (metric, workload) present in both results and
// returns how many pairs were worse and how many unresolved.
func compare(out io.Writer, base, cur *resultFile, spec *benchmarkSpec) (worse, unresolved int) {
	names := make([]string, 0, len(base.Workloads))
	for name := range base.Workloads {
		if _, ok := cur.Workloads[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tworkload\tbase\tnew\tnew/base\tbound\tverdict")
	for _, ms := range spec.EndToEnd {
		for _, name := range names {
			a, okA := base.Workloads[name].EndToEnd[ms.Name]
			b, okB := cur.Workloads[name].EndToEnd[ms.Name]
			if !okA || !okB {
				continue
			}
			v := judge(a, b, ms)
			switch v {
			case verdictWorse:
				worse++
			case verdictUnresolved:
				unresolved++
			}
			ratio := 0.0
			if a.Value != 0 {
				ratio = b.Value / a.Value
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g %s\t%.4g %s\t%.3f\t%.3g\t%s\n", ms.Name, name, a.Value, a.Unit, b.Value, b.Unit, ratio, ms.Bound, v)
		}
	}
	tw.Flush()
	fmt.Fprintf(out, "%d worse, %d unresolved\n", worse, unresolved)
	return worse, unresolved
}
