package update

import (
	"time"

	"argus/internal/cert"
	"argus/internal/transport"
)

// The dead-letter queue turns a missed churn notification into a measured
// redelivery instead of a silent hole (DESIGN.md §11). The transport is
// fire-and-forget radio semantics with no delivery acknowledgment, so
// admission is connection-state driven: the operator (or the liveness layer
// above) marks a destination offline with MarkOffline, and every subsequent
// push to it parks instead of sending. Guarantees:
//
//   - Bounded, never silent. Each destination holds at most DLQCapacity
//     letters; past the bound the oldest is discarded and counted
//     (argus_update_dlq_evictions_total). Every park is counted
//     (argus_update_undeliverable_total by kind).
//   - In-order redelivery. Sequence numbers are assigned at push time, park
//     preserves push order, and Reattach drains the whole queue under the
//     same lock that serializes pushes — so a destination always observes
//     strictly increasing sequence numbers.
//   - Exactly-once effectuation. The agent applies a revocation only if it
//     has not applied that subject's revocation before, and a reprovision
//     only if its signed Seq is above the last reprovision it applied; in
//     push order both hold for every letter the first time and for none of
//     them again, so each notification is applied exactly once even across
//     repeated Reattach calls.

// DefaultDLQCapacity is the per-destination dead-letter bound.
const DefaultDLQCapacity = 256

// Journal persists dead-letter mutations so parked notifications survive a
// gateway crash: every park, eviction and drain is recorded as it happens
// (under the distributor lock, so the journal sees them in queue order).
// On restart the embedder folds the journal back into parked letters and
// hands them to RestoreParked. backendsvc.DLQLog is the file-backed
// implementation, built on the same fsynced record framing as the
// backend WAL.
type Journal interface {
	// Park records one parked letter (Notification.Encode bytes).
	Park(to cert.ID, letter []byte)
	// Evict records that the destination's oldest letter was discarded at
	// the capacity bound.
	Evict(to cert.ID)
	// Drain records that the destination's whole queue was redelivered.
	Drain(to cert.ID)
}

// WithDLQJournal attaches a dead-letter journal (nil detaches).
func WithDLQJournal(j Journal) DistributorOption {
	return func(d *Distributor) { d.journal = j }
}

// letter is one parked notification: signed, sequence assigned.
type letter struct {
	n  *Notification
	at time.Duration // ep.Now() at park time, for redelivery lag
}

// DistributorOption customizes NewDistributor.
type DistributorOption func(*Distributor)

// WithDLQCapacity overrides the per-destination dead-letter bound
// (values < 1 keep the default).
func WithDLQCapacity(n int) DistributorOption {
	return func(d *Distributor) {
		if n >= 1 {
			d.dlqCap = n
		}
	}
}

// park appends one letter to the destination's queue, evicting the oldest
// at the bound. Caller holds d.mu.
func (d *Distributor) park(to cert.ID, n *Notification) {
	q := d.dlq[to]
	if len(q) >= d.dlqCap {
		q = q[1:]
		d.parked--
		d.evictC.Inc()
		d.depthG.Add(-1)
		if d.journal != nil {
			d.journal.Evict(to)
		}
	}
	q = append(q, letter{n: n, at: d.ep.Now()})
	d.dlq[to] = q
	d.parked++
	if d.journal != nil {
		d.journal.Park(to, n.Encode())
	}
	d.counters(n.Kind).undelivered.Inc()
	// Delta, not Set: several distributors (one per cell in the load
	// harness) may share a registry, and the family gauge is their sum.
	d.depthG.Add(1)
}

// MarkOffline marks a destination unreachable: subsequent pushes to it are
// parked instead of sent.
func (d *Distributor) MarkOffline(id cert.ID) {
	d.mu.Lock()
	d.offline[id] = true
	d.mu.Unlock()
}

// Reattach marks the destination reachable again — at a new address when
// addr is non-empty — and immediately redelivers every parked letter in
// original push order. Returns the number of letters redelivered. Reattach
// on an already-online destination with an empty queue is a no-op.
func (d *Distributor) Reattach(id cert.ID, addr transport.Addr) int {
	d.mu.Lock()
	delete(d.offline, id)
	if addr != "" {
		d.addr[id] = addr
	}
	dst, ok := d.addr[id]
	q := d.dlq[id]
	if !ok || len(q) == 0 {
		d.mu.Unlock()
		return 0
	}
	delete(d.dlq, id)
	d.parked -= len(q)
	d.redelivered += len(q)
	if d.journal != nil {
		d.journal.Drain(id)
	}
	now := d.ep.Now()
	for _, l := range q {
		// The letter's lag is measured from its park time (SentAt).
		d.stamp(l.n.Seq, l.at)
		c := d.counters(l.n.Kind)
		c.sent.Inc()
		c.redelivered.Inc()
		d.lagH.ObserveDuration(now - l.at)
		d.sent++
		d.ep.Send(dst, l.n.Encode())
	}
	d.depthG.Add(-int64(len(q)))
	d.mu.Unlock()
	return len(q)
}

// RestoreParked reloads journaled letters after a restart: every destination
// with parked letters comes back offline (it missed those notifications for
// a reason, and redelivery must wait for an explicit Reattach), queue order
// is preserved, and the distributor's sequence counter fast-forwards past
// the highest restored Seq so post-restart reprovisions never collide with a
// parked letter — the agent's Seq check depends on it. Each restored
// revocation gets the admin's revocation signature, so a letter journaled
// while revocations were signed per push, over their Seq, still applies.
// Restored letters are NOT re-journaled: the journal already holds them.
func (d *Distributor) RestoreParked(parked map[cert.ID][]*Notification) error {
	for _, ns := range parked {
		for _, n := range ns {
			if n.Kind != KindRevokeSubject {
				continue
			}
			sig, err := d.revocationSig(n.Subject)
			if err != nil {
				return err
			}
			n.Sig = sig
		}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	now := d.ep.Now()
	for to, ns := range parked {
		if len(ns) == 0 {
			continue
		}
		d.offline[to] = true
		q := d.dlq[to]
		for _, n := range ns {
			q = append(q, letter{n: n, at: now})
			d.parked++
			d.depthG.Add(1)
			if n.Seq > d.seq {
				d.seq = n.Seq
			}
		}
		d.dlq[to] = q
	}
	return nil
}

// DLQDepth returns the total number of parked letters across destinations.
func (d *Distributor) DLQDepth() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.parked
}

// Redelivered returns how many parked letters have been redelivered.
func (d *Distributor) Redelivered() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.redelivered
}
