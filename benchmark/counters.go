package main

import "argus/internal/obs"

// counters is one reading of every count the per-session figures and the
// budget are deltas of: the shared registry, the endpoint wrappers, and the
// verify caches.
type counters struct {
	reg          *obs.Snapshot
	tap          tapCounts
	hits, misses int64 // summed VerifyCache.Stats
}

// tapCounts is one reading of the wrappers' counters.
type tapCounts struct {
	deliveries, lost int64
	sent, delivered  [msgKinds]int64
}

func (f *fleet) counters() counters {
	c := counters{reg: f.reg.Snapshot()}
	c.hits, c.misses = f.cacheStats()
	t := f.tap
	c.tap.deliveries, c.tap.lost = t.deliveries.Load(), t.lost.Load()
	for k := range c.tap.sent {
		c.tap.sent[k], c.tap.delivered[k] = t.sent[k].Load(), t.delivered[k].Load()
	}
	return c
}

// since returns the counts accumulated between the reading b and a.
func (a counters) since(b counters) counters {
	d := counters{reg: obs.DiffSnapshots(a.reg, b.reg), hits: a.hits - b.hits, misses: a.misses - b.misses}
	d.tap.deliveries, d.tap.lost = a.tap.deliveries-b.tap.deliveries, a.tap.lost-b.tap.lost
	for k := range d.tap.sent {
		d.tap.sent[k] = a.tap.sent[k] - b.tap.sent[k]
		d.tap.delivered[k] = a.tap.delivered[k] - b.tap.delivered[k]
	}
	return d
}

// family adds up every counter series of a registry family whose labels
// include the given ones.
func (c counters) family(name string, labels ...obs.Label) float64 {
	var sum float64
next:
	for i := range c.reg.Metrics {
		m := &c.reg.Metrics[i]
		if m.Name != name || m.Type != "counter" {
			continue
		}
		for _, l := range labels {
			if m.Labels[l.Key] != l.Value {
				continue next
			}
		}
		sum += m.Value
	}
	return sum
}
