// Package update implements the backend→ground propagation path of §IV-A and
// §VIII: "changes on the backend may need to be immediately propagated to the
// ground network and effectuated on the affected subjects/objects, such that
// newly authorized subjects can discover services, or de-authorized subjects
// stop seeing previously visible services."
//
// Every notification carries an admin signature that each device verifies
// itself before applying it, so notifications cannot be forged even though
// they travel the same radios as discovery traffic. What the signature covers
// depends on the kind:
//
//   - A revocation is a signed fact, "subject X is revoked": the signature
//     covers magic ‖ kind ‖ subject and nothing else. The admin signs it once
//     (cert.Admin.SignOnce), the first time any gateway pushes it, and every
//     copy to every object, from every distributor built on that admin,
//     relays the one signature. A device applies a given revocation once: a
//     replay or a second redelivery hits its set of applied revocations.
//   - A reprovision is signed per push over magic ‖ kind ‖ Seq ‖ subject, and
//     a device applies it only when Seq is above the last reprovision it
//     applied.
//
// Seq travels on every frame. On a revocation it is unsigned: it orders the
// dead-letter queue and keys the propagation-lag measurement, and rewriting
// it can neither replay the revocation nor move the reprovision watermark.
// Neither kind names its target device, so a copy pushed to one device is
// valid at any other; every producer revokes a subject fleet-wide, and a
// reprovision only makes a device re-pull its own provision. Per the §VII
// threat model the backend↔device channel is confidential; sensitive payloads
// (rotated group keys) are therefore carried symbolically — the device
// re-pulls its provision through the ApplyFunc callback, which models the
// secure channel.
//
// The Distributor's delivery counts are exactly the updating overhead of
// Table I, and the propagation experiment (`argus-bench -exp propagation`)
// measures how long revocation takes to *effectuate* across N objects.
package update

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"argus/internal/cert"
	"argus/internal/enc"
	"argus/internal/obs"
	"argus/internal/suite"
	"argus/internal/transport"
)

// Kind enumerates notification types.
type Kind byte

const (
	// KindRevokeSubject tells an object to blacklist a subject ID.
	KindRevokeSubject Kind = 1
	// KindReprovision tells a device to refresh its credential bundle from
	// the backend (policy change, PROF-variant recompilation, group re-key).
	KindReprovision Kind = 2
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindRevokeSubject:
		return "revoke-subject"
	case KindReprovision:
		return "reprovision"
	}
	return fmt.Sprintf("kind(%d)", byte(k))
}

// envelopeMagic distinguishes admin notifications from discovery messages on
// the shared radio. wire message types are 1–4; this byte cannot collide.
const envelopeMagic byte = 0xA5

// Notification is one admin-signed update.
type Notification struct {
	Kind    Kind
	Seq     uint64  // strictly increasing per distributor; signed on a reprovision only
	Subject cert.ID // KindRevokeSubject: who to blacklist
	Sig     []byte
}

// signedBody returns the bytes the admin signature covers: magic ‖ kind ‖
// subject for a revocation, magic ‖ kind ‖ Seq ‖ subject for a reprovision.
// The kind byte sits at the same offset in both, so neither signature
// verifies as the other kind.
func (n *Notification) signedBody() []byte {
	if n.Kind == KindRevokeSubject {
		return revocationBody(n.Subject)
	}
	w := enc.NewWriter(2 + 8 + len(cert.ID{}))
	w.U8(envelopeMagic)
	w.U8(byte(n.Kind))
	w.U64(n.Seq)
	w.Raw(n.Subject[:])
	return w.Bytes()
}

// revocationBody is the statement "subject is revoked" the admin signs once.
func revocationBody(subject cert.ID) []byte {
	b := make([]byte, 0, 2+len(subject))
	b = append(b, envelopeMagic, byte(KindRevokeSubject))
	return append(b, subject[:]...)
}

// Encode returns the wire form: magic ‖ kind ‖ Seq ‖ subject ‖ sig (92 B at
// S128), the same layout for both kinds.
func (n *Notification) Encode() []byte {
	w := enc.NewWriter(2 + 8 + len(cert.ID{}) + 2 + len(n.Sig))
	w.U8(envelopeMagic)
	w.U8(byte(n.Kind))
	w.U64(n.Seq)
	w.Raw(n.Subject[:])
	w.Bytes16(n.Sig)
	return w.Bytes()
}

// Decode parses a notification; it returns ok=false when the payload is not
// an update envelope at all (so callers can fall through to discovery
// handling), and an error when it is a malformed envelope.
func Decode(b []byte) (n *Notification, ok bool, err error) {
	if len(b) == 0 || b[0] != envelopeMagic {
		return nil, false, nil
	}
	r := enc.NewReader(b)
	r.U8() // magic
	n = &Notification{}
	n.Kind = Kind(r.U8())
	n.Seq = r.U64()
	copy(n.Subject[:], r.Raw(len(cert.ID{})))
	n.Sig = r.Bytes16()
	if err := r.Done(); err != nil {
		return nil, true, err
	}
	if n.Kind != KindRevokeSubject && n.Kind != KindReprovision {
		return nil, true, errors.New("update: unknown notification kind")
	}
	return n, true, nil
}

// Verify checks the admin signature.
func (n *Notification) Verify(adminPub suite.PublicKey) bool {
	return adminPub.Verify(n.signedBody(), n.Sig)
}

// Agent wraps a device's discovery engine: it intercepts admin notifications
// (replay check → verify signature → apply) and passes every other message
// through. It is a transport.Handler middleware: either install it as the
// endpoint handler directly (with inner set), or — the usual way — bind the
// engine to Wrap(ep) so the agent interposes transparently.
type Agent struct {
	adminPub suite.PublicKey
	inner    transport.Handler
	apply    func(*Notification)
	now      func() time.Duration
	lastSeq  uint64               // Seq of the last reprovision applied
	revoked  map[cert.ID]struct{} // subjects whose revocation was applied
	applied  int
	rejected int

	appliedC    *obs.Counter
	rejectedC   *obs.Counter
	propagation *obs.Histogram
	sentAt      func(seq uint64) (time.Duration, bool)
}

// NewAgent builds an agent. apply is invoked for each fresh, authentic
// notification (typically: re-pull the provision and Refresh the engine).
// inner may be nil when the engine is attached later through Wrap.
func NewAgent(adminPub suite.PublicKey, inner transport.Handler, apply func(*Notification)) *Agent {
	return &Agent{adminPub: adminPub, inner: inner, apply: apply}
}

// Wrap interposes the agent on an endpoint's inbound path: binding an engine
// to the returned endpoint installs the agent as the real handler with the
// engine as its passthrough, so update envelopes are consumed by the agent
// and everything else reaches the engine unchanged. All other Endpoint
// methods delegate to ep untouched.
func (a *Agent) Wrap(ep transport.Endpoint) transport.Endpoint {
	a.now = ep.Now
	return &agentEndpoint{Endpoint: ep, agent: a}
}

type agentEndpoint struct {
	transport.Endpoint
	agent *Agent
}

func (w *agentEndpoint) Bind(h transport.Handler) {
	w.agent.inner = h
	w.Endpoint.Bind(w.agent)
}

// Instrument attaches a metrics registry. sentAt, when non-nil (typically
// (*Distributor).SentAt of an instrumented distributor), lets the agent
// observe the backend→ground propagation lag of each effectuated
// notification — the §VIII effectuation latency — into
// argus_update_propagation_seconds.
func (a *Agent) Instrument(reg *obs.Registry, sentAt func(seq uint64) (time.Duration, bool)) {
	if reg == nil {
		a.appliedC, a.rejectedC, a.propagation, a.sentAt = nil, nil, nil, nil
		return
	}
	a.appliedC = reg.Counter(obs.MUpdateApplied, "Admin notifications verified and effectuated.")
	a.rejectedC = reg.Counter(obs.MUpdateRejected, "Admin notifications rejected (bad signature or replay).")
	a.propagation = reg.Histogram(obs.MUpdatePropagation,
		"Virtual lag from backend push to on-device effectuation.", obs.LatencyBuckets())
	a.sentAt = sentAt
}

// Applied returns how many notifications have been effectuated.
func (a *Agent) Applied() int { return a.applied }

// Rejected returns how many notifications failed verification or replay
// checks.
func (a *Agent) Rejected() int { return a.rejected }

// replayed reports whether n was applied before: a revocation of a subject
// already revoked here, or a reprovision at or below the last applied Seq.
func (a *Agent) replayed(n *Notification) bool {
	if n.Kind == KindRevokeSubject {
		_, ok := a.revoked[n.Subject]
		return ok
	}
	return n.Seq <= a.lastSeq
}

// Handle implements transport.Handler.
func (a *Agent) Handle(from transport.Addr, payload []byte) {
	n, isUpdate, err := Decode(payload)
	if !isUpdate {
		if a.inner != nil {
			a.inner.Handle(from, payload)
		}
		return
	}
	if err != nil || a.replayed(n) || !n.Verify(a.adminPub) {
		a.rejected++
		a.rejectedC.Inc()
		return
	}
	if n.Kind == KindRevokeSubject {
		if a.revoked == nil {
			a.revoked = make(map[cert.ID]struct{})
		}
		a.revoked[n.Subject] = struct{}{}
	} else {
		a.lastSeq = n.Seq
	}
	a.applied++
	a.appliedC.Inc()
	if a.sentAt != nil && a.now != nil {
		if t, ok := a.sentAt(n.Seq); ok {
			a.propagation.ObserveDuration(a.now() - t)
		}
	}
	if a.apply != nil {
		a.apply(n)
	}
}

// Distributor is the backend's ground gateway: it signs notifications (a
// revocation once per admin, a reprovision per push) and unicasts them to
// affected devices over its transport endpoint. Destinations marked offline
// have their notifications parked in a bounded per-destination dead-letter
// queue (see dlq.go) and redelivered in push order on Reattach. All methods
// are safe for concurrent use.
type Distributor struct {
	admin *cert.Admin
	ep    transport.Endpoint

	mu          sync.Mutex
	addr        map[cert.ID]transport.Addr
	seq         uint64
	sent        int
	offline     map[cert.ID]bool
	dlq         map[cert.ID][]letter
	dlqCap      int
	parked      int
	redelivered int
	journal     Journal

	// Instrumentation, resolved once by Instrument: the counters by Kind, and
	// the push time of every notification on the wire by Seq until its agent
	// reads it (SentAt). Nobody may ever read one — an agent not instrumented,
	// a notification lost or rejected — so the table is capped: past
	// maxSentAts the older half goes.
	sentAts map[uint64]time.Duration
	depthG  *obs.Gauge
	evictC  *obs.Counter
	lagH    *obs.Histogram
	kindC   [KindReprovision]kindCounters // by Kind-1
}

// kindCounters are a distributor's counters of one Kind.
type kindCounters struct{ sent, undelivered, redelivered *obs.Counter }

// counters returns the counters of notifications of kind k.
func (d *Distributor) counters(k Kind) *kindCounters { return &d.kindC[k-1] }

// maxSentAts caps Distributor.sentAts: the push stamps no agent has read.
const maxSentAts = 4096

// NewDistributor builds a backend gateway sending through ep (the gateway
// itself receives nothing, so ep stays unbound). Under the simulator, pass
// net.NewEndpoint() and link its Node into the topology.
func NewDistributor(admin *cert.Admin, ep transport.Endpoint, opts ...DistributorOption) *Distributor {
	d := &Distributor{
		admin:   admin,
		ep:      ep,
		addr:    make(map[cert.ID]transport.Addr),
		offline: make(map[cert.ID]bool),
		dlq:     make(map[cert.ID][]letter),
		dlqCap:  DefaultDLQCapacity,
	}
	for _, o := range opts {
		o(d)
	}
	return d
}

// Addr returns the gateway's transport address.
func (d *Distributor) Addr() transport.Addr { return d.ep.Addr() }

// Instrument attaches a metrics registry: pushes are counted by kind and
// stamped with their virtual send time so instrumented agents can measure
// propagation lag, and the dead-letter queue exports depth, evictions and
// redelivery lag. Passing nil detaches.
func (d *Distributor) Instrument(reg *obs.Registry) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.kindC = [KindReprovision]kindCounters{}
	if reg == nil {
		d.sentAts, d.depthG, d.evictC, d.lagH = nil, nil, nil, nil
		return
	}
	d.sentAts = make(map[uint64]time.Duration)
	d.depthG = reg.Gauge(obs.MUpdateDLQDepth, "Churn notifications parked awaiting redelivery.")
	d.evictC = reg.Counter(obs.MUpdateDLQEvictions,
		"Parked notifications discarded at the per-destination DLQ bound.")
	d.lagH = reg.Histogram(obs.MUpdateRedeliveryLag,
		"Lag from parking an undeliverable notification to its redelivery.", obs.LatencyBuckets())
	for _, k := range []Kind{KindRevokeSubject, KindReprovision} {
		kind := obs.L("kind", k.String())
		*d.counters(k) = kindCounters{
			sent: reg.Counter(obs.MUpdateSent, "Admin notifications pushed to the ground, by kind.", kind),
			undelivered: reg.Counter(obs.MUpdateUndeliverable,
				"Notifications not deliverable because the destination was offline, by kind.", kind),
			redelivered: reg.Counter(obs.MUpdateRedelivered,
				"Parked notifications redelivered after reattach, by kind.", kind),
		}
	}
}

// SentAt returns the virtual time the notification with the given sequence
// number was pushed (only tracked while instrumented), once: the stamp goes
// with the read, as each notification has one destination. For a parked
// notification this is the park time, so agent-side propagation lag includes
// the destination's offline window. Pass this method to (*Agent).Instrument
// to wire the propagation-lag histogram.
func (d *Distributor) SentAt(seq uint64) (time.Duration, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	t, ok := d.sentAts[seq]
	delete(d.sentAts, seq)
	return t, ok
}

// stamp records at as the push time of the notification with sequence seq,
// first dropping the stamps of the older half of the last maxSentAts
// sequence numbers if the table is full: each sweep takes at least half of
// it, so a push pays for it in amortized constant time. Caller holds d.mu.
func (d *Distributor) stamp(seq uint64, at time.Duration) {
	if d.sentAts == nil {
		return
	}
	if len(d.sentAts) >= maxSentAts {
		floor := d.seq - min(d.seq, maxSentAts/2)
		for s := range d.sentAts {
			if s <= floor {
				delete(d.sentAts, s)
			}
		}
	}
	d.sentAts[seq] = at
}

// Register maps a device identity to its transport address.
func (d *Distributor) Register(id cert.ID, addr transport.Addr) {
	d.mu.Lock()
	d.addr[id] = addr
	d.mu.Unlock()
}

// Sent returns the number of notifications actually put on the wire so far
// (live sends plus redeliveries) — the measured updating overhead. Parked
// notifications are not counted until redelivered.
func (d *Distributor) Sent() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.sent
}

// push assigns n the next Seq, then either unicasts it or — when the
// destination is offline — parks it for redelivery. A reprovision is signed
// here, over its Seq; a revocation arrives carrying the admin's one
// signature.
func (d *Distributor) push(to cert.ID, n *Notification) error {
	d.mu.Lock()
	addr, ok := d.addr[to]
	if !ok {
		d.mu.Unlock()
		return fmt.Errorf("update: no ground address for %v", to)
	}
	d.seq++
	n.Seq = d.seq
	if n.Kind == KindReprovision {
		sig, err := d.admin.Sign(n.signedBody())
		if err != nil {
			d.mu.Unlock()
			return err
		}
		n.Sig = sig
	}
	if d.offline[to] {
		d.park(to, n)
		d.mu.Unlock()
		return nil
	}
	d.stamp(n.Seq, d.ep.Now())
	d.counters(n.Kind).sent.Inc()
	d.sent++
	// Send while still holding d.mu: sequence numbers are assigned under the
	// lock, so the wire order must be decided under it too. Unlocking first
	// would let a concurrent push — or a MarkOffline/Reattach cycle, which
	// redelivers under the lock — put a higher sequence on the wire before
	// this one; were both reprovisions, the agent's Seq check would then drop
	// this one as a replay: silently lost, not reordered. Transport sends
	// are asynchronous (mailbox enqueue / socket write), so no callback can
	// re-enter the distributor here.
	d.ep.Send(addr, n.Encode())
	d.mu.Unlock()
	return nil
}

// revocationSig returns the admin's one signature over "subject is revoked",
// shared by every distributor built on the same admin.
func (d *Distributor) revocationSig(subject cert.ID) ([]byte, error) {
	return d.admin.SignOnce(revocationBody(subject))
}

// RevokeSubject notifies each listed object to blacklist the subject —
// the N notifications of Table I's "Rmv a subject" row. All N carry the
// same admin signature, made before any lock is taken.
func (d *Distributor) RevokeSubject(subject cert.ID, objects []cert.ID) error {
	if len(objects) == 0 {
		return nil
	}
	sig, err := d.revocationSig(subject)
	if err != nil {
		return err
	}
	for _, oid := range objects {
		if err := d.push(oid, &Notification{Kind: KindRevokeSubject, Subject: subject, Sig: sig}); err != nil {
			return err
		}
	}
	return nil
}

// Reprovision notifies each listed device to refresh its credentials
// (group re-key: the γ−1 fellows; policy change: the β governed objects).
func (d *Distributor) Reprovision(devices []cert.ID) error {
	for _, id := range devices {
		if err := d.push(id, &Notification{Kind: KindReprovision}); err != nil {
			return err
		}
	}
	return nil
}
