// Package update implements the backend→ground propagation path of §IV-A and
// §VIII: "changes on the backend may need to be immediately propagated to the
// ground network and effectuated on the affected subjects/objects, such that
// newly authorized subjects can discover services, or de-authorized subjects
// stop seeing previously visible services."
//
// The backend signs every notification with the admin key; devices verify the
// signature and a strictly increasing sequence number before applying it, so
// notifications cannot be forged or replayed even though they travel the same
// radios as discovery traffic. Per the §VII threat model the backend↔device
// channel is confidential; sensitive payloads (rotated group keys) are
// therefore carried symbolically — the device re-pulls its provision through
// the ApplyFunc callback, which models the secure channel.
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
	Seq     uint64  // strictly increasing per deployment; replay protection
	Subject cert.ID // KindRevokeSubject: who to blacklist
	Sig     []byte
}

func (n *Notification) body() []byte {
	w := enc.NewWriter(32)
	w.U8(envelopeMagic)
	w.U8(byte(n.Kind))
	w.U64(n.Seq)
	w.Raw(n.Subject[:])
	return w.Bytes()
}

// Encode returns the signed wire form.
func (n *Notification) Encode() []byte {
	w := enc.NewWriter(64 + len(n.Sig))
	w.Raw(n.body())
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
	return adminPub.Verify(n.body(), n.Sig)
}

// Agent wraps a device's discovery engine: it intercepts admin notifications
// (verify signature → check sequence → apply) and passes every other message
// through. It is a transport.Handler middleware: either install it as the
// endpoint handler directly (with inner set), or — the usual way — bind the
// engine to Wrap(ep) so the agent interposes transparently.
type Agent struct {
	adminPub suite.PublicKey
	inner    transport.Handler
	apply    func(*Notification)
	now      func() time.Duration
	lastSeq  uint64
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
	a.rejectedC = reg.Counter(obs.MUpdateRejected, "Admin notifications rejected (bad signature or replayed sequence).")
	a.propagation = reg.Histogram(obs.MUpdatePropagation,
		"Virtual lag from backend push to on-device effectuation.", obs.LatencyBuckets())
	a.sentAt = sentAt
}

// Applied returns how many notifications have been effectuated.
func (a *Agent) Applied() int { return a.applied }

// Rejected returns how many notifications failed verification or replay
// checks.
func (a *Agent) Rejected() int { return a.rejected }

// Handle implements transport.Handler.
func (a *Agent) Handle(from transport.Addr, payload []byte) {
	n, isUpdate, err := Decode(payload)
	if !isUpdate {
		if a.inner != nil {
			a.inner.Handle(from, payload)
		}
		return
	}
	if err != nil || !n.Verify(a.adminPub) || n.Seq <= a.lastSeq {
		a.rejected++
		a.rejectedC.Inc()
		return
	}
	a.lastSeq = n.Seq
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

// Distributor is the backend's ground gateway: it signs notifications and
// unicasts them to affected devices over its transport endpoint. Destinations
// marked offline have their notifications parked in a bounded per-destination
// dead-letter queue (see dlq.go) and redelivered in push order on Reattach.
// All methods are safe for concurrent use.
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

	reg     *obs.Registry
	sentAts map[uint64]time.Duration // seq → virtual push time, for lag measurement
	depthG  *obs.Gauge
	evictC  *obs.Counter
	lagH    *obs.Histogram
}

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
	d.reg = reg
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
}

// SentAt returns the virtual time the notification with the given sequence
// number was pushed (only tracked while instrumented). For a parked
// notification this is the park time, so agent-side propagation lag includes
// the destination's offline window. Pass this method to (*Agent).Instrument
// to wire the propagation-lag histogram.
func (d *Distributor) SentAt(seq uint64) (time.Duration, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	t, ok := d.sentAts[seq]
	return t, ok
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

func (d *Distributor) countSent(k Kind) {
	d.reg.Counter(obs.MUpdateSent, "Admin notifications pushed to the ground, by kind.",
		obs.L("kind", k.String())).Inc()
}

// push signs one notification, then either unicasts it or — when the
// destination is offline — parks it for redelivery.
func (d *Distributor) push(to cert.ID, n *Notification) error {
	d.mu.Lock()
	addr, ok := d.addr[to]
	if !ok {
		d.mu.Unlock()
		return fmt.Errorf("update: no ground address for %v", to)
	}
	d.seq++
	n.Seq = d.seq
	sig, err := d.admin.Sign(n.body())
	if err != nil {
		d.mu.Unlock()
		return err
	}
	n.Sig = sig
	if d.reg != nil {
		d.sentAts[d.seq] = d.ep.Now()
	}
	if d.offline[to] {
		d.park(to, n)
		d.mu.Unlock()
		return nil
	}
	d.countSent(n.Kind)
	d.sent++
	// Send while still holding d.mu: sequence numbers are assigned under the
	// lock, so the wire order must be decided under it too. Unlocking first
	// would let a concurrent push — or a MarkOffline/Reattach cycle, which
	// redelivers under the lock — put a higher sequence on the wire before
	// this one, and the agents' replay check would then drop this
	// notification as a replay: silently lost, not reordered. Transport sends
	// are asynchronous (mailbox enqueue / socket write), so no callback can
	// re-enter the distributor here.
	d.ep.Send(addr, n.Encode())
	d.mu.Unlock()
	return nil
}

// RevokeSubject notifies each listed object to blacklist the subject —
// the N notifications of Table I's "Rmv a subject" row.
func (d *Distributor) RevokeSubject(subject cert.ID, objects []cert.ID) error {
	for _, oid := range objects {
		if err := d.push(oid, &Notification{Kind: KindRevokeSubject, Subject: subject}); err != nil {
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
