// Package obs is the zero-dependency telemetry layer: a concurrency-safe
// metrics registry (counters, gauges, fixed-bucket histograms with snapshot
// quantiles), a span tracer for discovery sessions keyed to the netsim
// virtual clock, and exposition in Prometheus text format and JSON.
//
// Two properties shape the design:
//
//   - Hot-path cheapness. Metric handles are resolved once (at Instrument
//     time) and observed through lock-free atomics; a counter increment or
//     histogram observation is tens of nanoseconds (see bench_test.go), so
//     the discovery engines and the simulator can be instrumented
//     unconditionally.
//   - Nil safety. Every method on *Registry, *Counter, *Gauge, *Histogram
//     and *Tracer is a no-op on a nil receiver. Code paths are written
//     against possibly-nil handles, so a deployment without telemetry runs
//     the exact same event sequence — fixed-seed experiment outputs are
//     byte-identical with and without a registry attached (proved by
//     internal/exp's determinism test).
//
// Naming follows the Prometheus conventions: `argus_<subsystem>_<noun>_
// <unit>` with `_total` for counters, base units (seconds, bytes) for
// histograms, and low-cardinality labels (level, phase, op, channel).
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Label is one metric dimension (a Prometheus label pair).
type Label struct {
	Key   string
	Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// LabelString renders sorted labels as `{k1="v1",k2="v2"}` (empty string for
// no labels). Metric identity within a registry is name + LabelString.
func LabelString(labels []Label) string { return labelString(labels) }

func labelString(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// Registry holds a process's metrics. The zero value is not usable; create
// with NewRegistry. A nil *Registry is a valid "telemetry off" registry:
// every constructor returns a nil metric handle whose methods no-op.
type Registry struct {
	mu       sync.RWMutex
	help     map[string]string // metric family → help text
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram

	// shared holds the handle blocks built by Shared, keyed by their
	// owners' key types. memoMu is taken before mu, never after.
	memoMu sync.Mutex
	shared map[any]any
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		help:     make(map[string]string),
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		shared:   make(map[any]any),
	}
}

// Shared returns the value memoized in r under key, calling build to create
// it on first use. It lets every component bound to one registry share one
// read-only block of metric handles instead of resolving the same handles
// into a private copy each: the block lives as long as the registry. key must
// be comparable, and should be of a type unexported by its caller's package
// (as with context keys) so two packages never collide. build may register
// metrics on r but must not call Shared. A nil registry memoizes nothing:
// every call returns a fresh build().
func Shared[T any](r *Registry, key any, build func() T) T {
	if r == nil {
		return build()
	}
	r.memoMu.Lock()
	defer r.memoMu.Unlock()
	if v, ok := r.shared[key]; ok {
		return v.(T)
	}
	v := build()
	r.shared[key] = v
	return v
}

func (r *Registry) setHelp(name, help string) {
	if help != "" {
		if _, ok := r.help[name]; !ok {
			r.help[name] = help
		}
	}
}

// Counter returns (creating on first use) the counter with the given family
// name and labels. Returns nil on a nil registry.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	id := name + labelString(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[id]; ok {
		return c
	}
	r.setHelp(name, help)
	c := &Counter{family: name, labels: append([]Label(nil), labels...)}
	r.counters[id] = c
	return c
}

// Gauge returns (creating on first use) the gauge with the given family name
// and labels. Returns nil on a nil registry.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	id := name + labelString(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[id]; ok {
		return g
	}
	r.setHelp(name, help)
	g := &Gauge{family: name, labels: append([]Label(nil), labels...)}
	r.gauges[id] = g
	return g
}

// Histogram returns (creating on first use) the histogram with the given
// family name, bucket upper bounds and labels. bounds must be sorted
// ascending; an implicit +Inf overflow bucket is always present. All
// histograms of one family must share bounds (the first registration wins).
// Returns nil on a nil registry.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	id := name + labelString(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[id]; ok {
		return h
	}
	r.setHelp(name, help)
	h := newHistogram(name, bounds, labels)
	r.hists[id] = h
	return h
}
