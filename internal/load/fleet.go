package load

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"argus/internal/adversary"
	"argus/internal/attr"
	"argus/internal/backend"
	"argus/internal/cert"
	"argus/internal/core"
	"argus/internal/groups"
	"argus/internal/obs"
	"argus/internal/suite"
	"argus/internal/transport"
	"argus/internal/update"
	"argus/internal/wire"
)

// subjectSlot is the harness's view of one subject engine: the driver's
// round ledger plus the ground truth the runner judges discoveries against.
type subjectSlot struct {
	*Slot
	id   cert.ID
	name string

	// revoked: revocation effectuated; only L1 may arrive. Written by churn
	// between waves, read by the completion hook on the engine's event loop.
	revoked atomic.Bool

	// staleGroup marks a fellow provisioned after a revocation rotated the
	// covert group key: the objects still hold the provisioning-time key,
	// so this subject's L3 visibility legitimately degrades to L2.
	staleGroup bool
}

// objectSlot is the harness's view of one object engine.
type objectSlot struct {
	id    cert.ID
	eng   *core.Object
	agent *update.Agent
	level backend.Level
	addr  transport.Addr // pre-fault endpoint address, for DLQ Reattach
}

// objHolder lets the update agent's apply callback (wired before the engine
// exists) reach the engine built one statement later. The write happens
// before any notification can possibly be enqueued, and the mailbox mutex
// orders it against the event loop's read.
type objHolder struct{ obj *core.Object }

// cell is one broadcast domain: a Mesh (or UDP peer group) of subjects and
// objects plus the cell's update distributor.
type cell struct {
	index    int
	mesh     *transport.Mesh // nil for UDP cells
	udps     []*transport.UDPEndpoint
	join     func() (transport.Endpoint, error) // mints one more member endpoint
	subjects []*subjectSlot
	objects  []*objectSlot
	dist     *update.Distributor
	objIDs   []cert.ID
	l1Count  int // L1 objects remain visible to revoked subjects

	// vcache is the cell's credential verification cache. Caches are
	// per-cell because verification is radio-range-local in the deployed
	// system: a roaming subject arrives at a cell that has never verified
	// it, which is exactly the locality effect RoamFrac measures.
	vcache *cert.VerifyCache
	// sleepy are the cell's duty-cycled object radios (wake override).
	sleepy []*sleepyEndpoint
	// replays are the cell's wiretapped objects and their captured
	// transcripts, for the replay persona.
	replays []adversary.ReplayTarget
}

// fleet is the fully provisioned run state. mu guards the per-cell slot
// slices: the orchestrator appends subjects during add-churn while the
// sampler goroutine walks the fleet for open-handshake counts.
type fleet struct {
	p   Profile
	reg *obs.Registry
	// backend is the concrete enterprise — kept for what only the concrete
	// type offers (the distributor admin, batch registration). All churn
	// goes through svc, the transport-agnostic Service seam, so the harness
	// exercises the same surface a remote backend serves.
	backend  *backend.Backend
	svc      backend.Service
	group    groups.ID
	cells    []*cell
	observer *adversary.Observer // nil unless Profile.Observer
	sleepy   int                 // fleet-wide duty-cycled object count

	mu           sync.RWMutex
	subjectCount atomic.Int64
}

// verifyCacheCap is the entry count of each cell's credential verification
// cache.
const verifyCacheCap = 1 << 16

// engineVersion is the wire version every engine speaks: v3.0 normally,
// v2.0 when the profile deliberately breaks the covertness countermeasures.
func (p *Profile) engineVersion() wire.Version {
	if p.BreakScoping {
		return wire.V20
	}
	return wire.V30
}

// onDiscovery is installed on every subject engine by the runner before any
// traffic flows; declared here as a type to keep fleet.go engine-agnostic.
type discoveryHook func(*subjectSlot, core.Discovery)

// buildFleet provisions the backend and constructs every cell, engine, and
// distributor. hook receives completion events on engine event loops;
// observer, when non-nil, is tapped onto every secure object.
func buildFleet(p Profile, reg *obs.Registry, observer *adversary.Observer, hook discoveryHook) (*fleet, error) {
	b, err := backend.New(suite.S128, backend.WithTelemetry(reg))
	if err != nil {
		return nil, err
	}
	if _, _, err := b.AddPolicy(
		attr.MustParse("position=='staff'"),
		attr.MustParse("type=='device'"),
		[]string{"use"}); err != nil {
		return nil, err
	}
	grp, err := b.Groups.CreateGroup("load covert group")
	if err != nil {
		return nil, err
	}

	f := &fleet{p: p, reg: reg, backend: b, svc: backend.NewLocal(b), group: grp.ID(), observer: observer}

	// Register + provision the whole population through the batch APIs, one
	// worker per processor (the result is the same for any worker count).
	workers := runtime.GOMAXPROCS(0)
	nSubj, nObj := p.Subjects(), p.Objects()
	subjSpecs := make([]backend.SubjectSpec, nSubj)
	for i := range subjSpecs {
		subjSpecs[i] = backend.SubjectSpec{
			Name:  fmt.Sprintf("s-%d", i),
			Attrs: attr.MustSet("position=staff"),
		}
	}
	sids, err := b.RegisterSubjects(subjSpecs, workers)
	if err != nil {
		return nil, err
	}
	objSpecs := make([]backend.ObjectSpec, nObj)
	levels := make([]backend.Level, nObj)
	for i := range objSpecs {
		levels[i] = p.ObjectLevel(i)
		objSpecs[i] = backend.ObjectSpec{
			Name:      fmt.Sprintf("o-%d", i),
			Level:     levels[i],
			Attrs:     attr.MustSet("type=device"),
			Functions: []string{"use"},
		}
	}
	oids, err := b.RegisterObjects(objSpecs, workers)
	if err != nil {
		return nil, err
	}
	for i, oid := range oids {
		if levels[i] == backend.L3 {
			if err := b.AddCovertService(oid, grp.ID(), []string{"use", "covert"}); err != nil {
				return nil, err
			}
		}
	}
	if p.Fellow {
		for _, sid := range sids {
			if err := b.AddSubjectToGroup(sid, grp.ID()); err != nil {
				return nil, err
			}
		}
	}
	oprovs, err := b.ProvisionObjects(oids, workers)
	if err != nil {
		return nil, err
	}
	if p.BreakScoping {
		// Undo the backend's uniform-length padding: inflate every covert
		// variant's profile past the fleet-wide pad target, so its cover-up
		// answers run measurably long — the un-countermeasured deployment the
		// observer's statistical gate must catch. Only non-fellows ever see
		// these bytes (validate enforces Fellow false), so the broken admin
		// signature is never checked.
		for _, prov := range oprovs {
			for i := range prov.Variants {
				if prov.Variants[i].IsCovert() {
					prov.Variants[i].Profile.Note += strings.Repeat(".", 64)
				}
			}
		}
	}

	// Assemble cells.
	f.cells = make([]*cell, p.Cells)
	si, oi := 0, 0
	for ci := range f.cells {
		c := &cell{index: ci}
		f.cells[ci] = c
		c.vcache = cert.NewVerifyCache(verifyCacheCap)
		c.vcache.Instrument(reg)
		replayIdx, err := p.replayIndices(ci)
		if err != nil {
			return nil, err
		}
		join, err := f.openCell(c)
		if err != nil {
			return nil, err
		}
		c.join = join
		distEP, err := join()
		if err != nil {
			return nil, err
		}
		// The gateway only sends, but as a cell member it still receives
		// discovery broadcasts; drain them so an idle queue never fills up
		// and charges the run with mailbox drops.
		distEP.Bind(transport.HandlerFunc(func(transport.Addr, []byte) {}))
		c.dist = update.NewDistributor(b.Admin(), distEP)
		c.dist.Instrument(reg)

		for k := 0; k < p.ObjectsPerCell; k++ {
			prov := oprovs[oi]
			ep, err := join()
			if err != nil {
				return nil, err
			}
			addr := ep.Addr()
			// Taps sit innermost so the antenna sees every frame on the air —
			// inbound even if the sleep gate then drops it, outbound only if
			// it survived the fault layer (i.e. was actually transmitted).
			var taps []adversary.Tap
			if f.observer != nil && levels[oi] != backend.L1 {
				pop := adversary.PopPlain
				if levels[oi] == backend.L3 {
					pop = adversary.PopCovert
				}
				taps = append(taps, f.observer.Tap(pop))
			}
			var capture *adversary.Capture
			if replayIdx[k] {
				capture = adversary.NewCapture()
				taps = append(taps, capture)
			}
			ep = adversary.WrapTap(ep, taps...)
			if k < p.sleepyPerCell() {
				// Stagger sleep phases across the fleet so sleepy radios
				// don't blink in lockstep.
				phase := time.Duration(oi) * p.SleepPeriod / time.Duration(max(1, p.Objects()))
				sl := wrapSleepy(ep, p.SleepPeriod, p.SleepAwake, phase, reg)
				c.sleepy = append(c.sleepy, sl)
				f.sleepy++
				ep = sl
			}
			ep = WrapFaults(ep, p.Faults, p.FaultSeed+int64(oi)*2+1, reg)
			hold := &objHolder{}
			agent := update.NewAgent(b.AdminPublic(), nil, func(n *update.Notification) {
				// Runs on the object's event loop, where Revoke is legal.
				if n.Kind == update.KindRevokeSubject && hold.obj != nil {
					hold.obj.Revoke(n.Subject)
				}
			})
			// The distributor's push-time map is mutex-guarded, so the
			// agents' propagation histogram works on the concurrent
			// transports too — and measures from park time across any DLQ
			// crash window.
			agent.Instrument(reg, c.dist.SentAt)
			obj := core.NewObject(prov, p.engineVersion(), core.Costs{},
				core.WithEndpoint(agent.Wrap(ep)),
				core.WithRetry(p.Retry),
				core.WithTelemetry(reg, nil),
				core.WithVerifyCache(c.vcache))
			hold.obj = obj
			slot := &objectSlot{id: prov.ID, eng: obj, agent: agent, level: levels[oi], addr: addr}
			c.objects = append(c.objects, slot)
			c.objIDs = append(c.objIDs, prov.ID)
			if levels[oi] == backend.L1 {
				c.l1Count++
			}
			if capture != nil {
				c.replays = append(c.replays, adversary.ReplayTarget{Object: addr, Capture: capture})
			}
			c.dist.Register(prov.ID, addr)
			oi++
		}

		for k := 0; k < p.SubjectsPerCell; k++ {
			if _, err := f.addSubject(c, sids[si], subjSpecs[si].Name, false, hook); err != nil {
				return nil, err
			}
			si++
		}
	}
	return f, nil
}

// openCell creates the cell's broadcast domain and returns a join function
// minting one endpoint per engine.
func (f *fleet) openCell(c *cell) (func() (transport.Endpoint, error), error) {
	switch f.p.Transport {
	case TransportMesh:
		c.mesh = transport.NewMesh(transport.WithRegistry(f.reg))
		return func() (transport.Endpoint, error) { return c.mesh.Join(), nil }, nil
	case TransportUDP:
		return func() (transport.Endpoint, error) {
			ep, err := transport.ListenUDP(transport.UDPConfig{
				Listen:   "127.0.0.1:0",
				Registry: f.reg,
			})
			if err != nil {
				return nil, err
			}
			// Full peer mesh within the cell: everyone already present
			// learns the newcomer and vice versa, so broadcasts reach the
			// whole cell regardless of join order.
			for _, prev := range c.udps {
				if err := prev.AddPeer(string(ep.Addr())); err != nil {
					return nil, err
				}
				if err := ep.AddPeer(string(prev.Addr())); err != nil {
					return nil, err
				}
			}
			c.udps = append(c.udps, ep)
			return ep, nil
		}, nil
	default:
		return nil, fmt.Errorf("load: unknown transport %q", f.p.Transport)
	}
}

// addSubject provisions and attaches one subject engine to the cell. Used
// at build time and for mid-run add-churn; staleGroup is true when the
// covert group key has rotated since the objects were provisioned.
func (f *fleet) addSubject(c *cell, id cert.ID, name string, staleGroup bool, hook discoveryHook) (*subjectSlot, error) {
	prov, err := f.svc.ProvisionSubject(context.Background(), id)
	if err != nil {
		return nil, fmt.Errorf("provision %s: %w", name, err)
	}
	ep, err := c.join()
	if err != nil {
		return nil, err
	}
	ep = WrapFaults(ep, f.p.Faults, f.p.FaultSeed+f.subjectCount.Load()*2+2, f.reg)
	subj := core.NewSubject(prov, f.p.engineVersion(), core.Costs{},
		core.WithEndpoint(ep),
		core.WithRetry(f.p.Retry),
		core.WithTelemetry(f.reg, f.p.Tracer),
		core.WithVerifyCache(c.vcache))
	slot := &subjectSlot{Slot: NewSlot(subj, ep, len(c.objects)), id: id, name: name, staleGroup: staleGroup}
	// The hook write is ordered before any traffic by the mailbox mutex on
	// the first Do/Send that can trigger it.
	subj.OnDiscovery = func(d core.Discovery) { hook(slot, d) }
	f.mu.Lock()
	c.subjects = append(c.subjects, slot)
	f.mu.Unlock()
	f.subjectCount.Add(1)
	return slot, nil
}

// levelOf returns the object population's level map for mismatch checks.
func (f *fleet) levelOf() map[cert.ID]backend.Level {
	m := make(map[cert.ID]backend.Level, f.p.Objects())
	for _, c := range f.cells {
		for _, o := range c.objects {
			m[o.id] = o.level
		}
	}
	return m
}

// pendingSessions sums PendingSessions across every engine (both roles);
// safe to call from any goroutine.
func (f *fleet) pendingSessions() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	n := 0
	for _, c := range f.cells {
		for _, s := range c.subjects {
			n += s.eng.PendingSessions()
		}
		for _, o := range c.objects {
			n += o.eng.PendingSessions()
		}
	}
	return n
}

// wakeAll pins every duty-cycled radio awake for the rest of the run. The
// adversary phase calls it first: its ledger holds object counters to exact
// injected deltas, and a target sleeping through a forged frame would
// falsify the accounting rather than prove anything about the defense.
func (f *fleet) wakeAll() {
	for _, c := range f.cells {
		for _, s := range c.sleepy {
			s.wake()
		}
	}
}

// close tears down every transport; engine loops exit with their mailboxes.
func (f *fleet) close() {
	for _, c := range f.cells {
		if c.mesh != nil {
			c.mesh.Close()
		}
		for _, ep := range c.udps {
			ep.Close()
		}
	}
}
