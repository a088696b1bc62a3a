// Package chaos is a property-based fault-injection harness for the Argus
// discovery protocol: it deploys a provisioned testbed (internal/exp) on a
// faulty ground network (netsim.FaultModel) with retransmission enabled
// (core.RetryPolicy) and exposes the run's observable outcome — discoveries,
// leaked sessions, fault counters, final virtual time — so tests can sweep
// seeds × loss rates × levels and assert the paper-level properties:
//
//   - eventual completeness: below a loss threshold, every provisioned object
//     is discovered at its provisioned level, and repeated runs of one seed
//     produce identical results (the simulator stays deterministic with
//     faults on);
//   - graceful degradation: at any loss rate — including total loss — the
//     run terminates in bounded virtual time with zero leaked sessions and
//     no panics;
//   - indistinguishability under retransmission: the Case 7 traffic-shape
//     equality (attack tests) still holds when frames are being resent.
package chaos

import (
	"fmt"
	"sort"
	"time"

	"argus/internal/backend"
	"argus/internal/core"
	"argus/internal/exp"
	"argus/internal/netsim"
	"argus/internal/obs"
	"argus/internal/transport"
	"argus/internal/wire"
)

// Crash schedules a crash/recovery window for one object.
type Crash struct {
	Object int           // index into Scenario.Levels
	At     time.Duration // window start (virtual time)
	For    time.Duration // window length
}

// Scenario is one chaos run: a deployment shape plus the fault environment.
type Scenario struct {
	Seed      int64
	FaultSeed int64 // 0: derived from Seed (netsim default)
	Levels    []backend.Level
	Version   wire.Version // 0: v3.0
	Faults    netsim.FaultModel
	Retry     core.RetryPolicy
	Fellow    bool // subject holds the covert group key of L3 objects
	TTL       int  // hop TTL for QUE1 (0: 1)
	// Sweeps is how many times DiscoverAll runs (0: once). From the second
	// sweep on the subject holds a resumption ticket for every Level 2/3
	// object the sweeps before completed a handshake with.
	Sweeps int
	// Between, when set, runs after each sweep but the last, on the drained
	// network: churn — a Refresh, a Revoke — between two visits.
	Between  func(d *exp.Deployment, sweep int)
	Crashes  []Crash
	Registry *obs.Registry
	// Snoop, when set, is installed on the network before discovery starts
	// (eavesdropper taps for indistinguishability properties). It is handed
	// the deployment too, for churn that a frame on the air triggers.
	Snoop func(d *exp.Deployment, from, to netsim.NodeID, payload []byte)
}

// Outcome is everything a property can assert about a finished run.
type Outcome struct {
	Deployment     *exp.Deployment
	Discoveries    []core.Discovery
	VirtualTime    time.Duration // final virtual clock — bounded ⇒ not stuck
	Stats          netsim.Stats
	SubjectPending int // leaked subject sessions after the final drain
	ObjectPending  int // leaked object sessions, summed over all objects
}

// Run executes the scenario: deploy, schedule crashes, DiscoverAll (one
// round per held group key) Sweeps times over, and drain every remaining
// timer so session expiry has fired before leaks are counted.
func Run(s Scenario) (*Outcome, error) {
	d, err := exp.Deploy(exp.DeployConfig{
		Levels:    s.Levels,
		Version:   s.Version,
		Seed:      s.Seed,
		FaultSeed: s.FaultSeed,
		Faults:    s.Faults,
		Retry:     s.Retry,
		Fellow:    s.Fellow,
		Registry:  s.Registry,
	})
	if err != nil {
		return nil, err
	}
	if s.Snoop != nil {
		d.Net.Snoop(func(from, to netsim.NodeID, p []byte) { s.Snoop(d, from, to, p) })
	}
	for _, c := range s.Crashes {
		d.Net.ScheduleCrash(d.ObjNode[c.Object], c.At, c.For)
	}
	ttl := s.TTL
	if ttl < 1 {
		ttl = 1
	}
	for sweep := 0; sweep < max(s.Sweeps, 1); sweep++ {
		if err := d.Subject.DiscoverAll(ttl, func() { d.Net.Run(0) }); err != nil {
			return nil, err
		}
		if s.Between != nil && sweep+1 < s.Sweeps {
			s.Between(d, sweep)
		}
	}
	d.Net.Run(0) // outstanding expiry timers of the last round

	out := &Outcome{
		Deployment:     d,
		Discoveries:    d.Subject.Results(),
		VirtualTime:    d.Net.Now(),
		Stats:          d.Net.Stats(),
		SubjectPending: d.Subject.PendingSessions(),
	}
	for _, o := range d.Objects {
		out.ObjectPending += o.PendingSessions()
	}
	return out, nil
}

// Fingerprint canonicalizes the run's results for run-to-run comparison:
// the sorted multiset of (node, level, round) records. Node IDs and the
// round sequence are allocation-order deterministic; certificate identities
// are not (fresh keys per deployment), so they are deliberately excluded.
func (o *Outcome) Fingerprint() string {
	lines := make([]string, len(o.Discoveries))
	for i, d := range o.Discoveries {
		lines[i] = fmt.Sprintf("node=%s level=%d round=%d", d.Node, d.Level, d.Round)
	}
	sort.Strings(lines)
	out := ""
	for _, l := range lines {
		out += l + "\n"
	}
	return out
}

// Missing returns a line per object that was not discovered at the expected
// level (empty ⇒ the run was complete). want gives the expected perceived
// level per object — usually the provisioned level, except L3 objects seen
// by a non-fellow, which are expected at L2.
func (o *Outcome) Missing(want []backend.Level) []string {
	best := make(map[transport.Addr]core.Level)
	for _, d := range o.Discoveries {
		if d.Level > best[d.Node] {
			best[d.Node] = d.Level
		}
	}
	var out []string
	for i, w := range want {
		node := o.Deployment.ObjNode[i]
		addr := netsim.AddrOf(node)
		if best[addr] != w {
			out = append(out, fmt.Sprintf("object %d (node %d): want L%d, got L%d", i, node, w, best[addr]))
		}
	}
	return out
}

// Duplicates returns a line per (node, level, round) discovery recorded more
// than once — retransmission and link-layer duplication must stay invisible
// in the result set.
func (o *Outcome) Duplicates() []string {
	seen := make(map[string]int)
	for _, d := range o.Discoveries {
		seen[fmt.Sprintf("node=%s level=%d round=%d", d.Node, d.Level, d.Round)]++
	}
	var out []string
	for k, n := range seen {
		if n > 1 {
			out = append(out, fmt.Sprintf("%s recorded %d times", k, n))
		}
	}
	sort.Strings(out)
	return out
}
