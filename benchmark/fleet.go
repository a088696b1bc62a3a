package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

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

// The fleet every workload runs on. The shape is fixed — later issues cite
// figures measured on it — and small enough to set up in about a second.
const (
	nCells          = 200
	subjectsPerCell = 5 // γ, the paper's "small secret group"
	objectsPerCell  = 2
	nSubjects       = nCells * subjectsPerCell
	nObjects        = nCells * objectsPerCell
	nEngines        = nSubjects + nObjects
)

// objectLevels cycles over the fleet's objects in registration order, so the
// session mix is 25 % L1, 50 % L2, 25 % L3 and cells alternate (L1,L2) and
// (L3,L2).
var objectLevels = [...]backend.Level{backend.L1, backend.L2, backend.L3, backend.L2}

// workload is what differs between the four runs; everything else is shared.
type workload struct {
	Name string
	Why  string
	// vcacheCap is the capacity of every engine's verify cache: 0 is the
	// default capacity, 1 makes every lookup miss, store and evict.
	vcacheCap int
	// loss is the share of delivered frames each receiving wrapper drops.
	loss float64
	// churn schedules revocations through the measured phases; the other
	// workloads apply short bursts to the idle fleet around them instead.
	churn bool
}

var workloads = []workload{
	{Name: "warm", Why: "default verify caches, no loss, no churn: per-session ephemeral crypto does the work, cert verification is bypassed (hits) and every retransmitted frame is waste"},
	{Name: "cold", Why: "every engine's verify cache holds one entry, so each credential lookup misses, stores and evicts: cert chain and PROF verification dominate", vcacheCap: 1},
	{Name: "lossy", Why: "warm plus 3 % of delivered frames dropped at the receiver, then a second of quiet there: retransmission is the only recovery, p50 stays on the fast path and p95 on the first timeout", loss: 0.03},
	{Name: "churn", Why: "warm plus 4 revocations a second, each pushed signed to all 300 L2/L3 objects with re-keying and a cold replacement subject, beside the discovery load", churn: true},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// objectSlot is the benchmark's view of one object engine.
type objectSlot struct {
	level backend.Level
	eng   *core.Object
	ep    *benchEndpoint
	agent *update.Agent
}

// cell is one broadcast domain: a Mesh with five subjects, two objects and
// the backend's gateway, and one covert group whose fellows are the subjects.
type cell struct {
	idx     int
	mesh    *transport.Mesh
	group   groups.ID
	dist    *update.Distributor
	objects [objectsPerCell]*objectSlot
	objIdx  map[cert.ID]int

	// rekey is odd while a revocation is rotating the cell's group key: the
	// fellows and the L3 object are refreshed one after the other, and until
	// the last has its new key an L3 object may rightly show its L2 face.
	rekey atomic.Uint32

	mu       sync.RWMutex
	subjects []*slot // live subjects; [0] is never revoked
	byAddr   map[transport.Addr]*slot
}

func (c *cell) subjectAt(a transport.Addr) *slot {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.byAddr[a]
}

// fleet is the whole provisioned system under test.
type fleet struct {
	wl    workload
	seed  int64
	reg   *obs.Registry
	b     *backend.Backend
	tap   *tap
	cells []*cell

	// ring is the round-robin order arrivals walk; a replacement subject
	// takes over the ring position of the subject it replaces.
	ring [nSubjects]atomic.Pointer[slot]

	objCell map[cert.ID]int     // object → cell, to route revocations
	caches  []*cert.VerifyCache // every engine's, for Stats
	retired []*slot             // revoked subjects, still on their meshes
	joined  int                 // endpoints created, seeds the loss streams
	drv     *driver

	// Credentials the micro-benchmarks take as inputs.
	sampleSubject *backend.SubjectProvision
	sampleObject  *backend.ObjectProvision // an L2 object
	churnOps      sync.Map                 // victim cert.ID → *churnOp, for the agents' callback
}

// setupStats is what set-up reports besides the fleet.
type setupStats struct {
	seconds float64
	heapKB  float64 // live heap after set-up and a forced GC, per engine
}

// buildFleet performs the timed set-up: backend, registration, provisioning
// and engine construction, all through the layers' public constructors and
// configured the way cmd/argus-node ships its engines — core.DefaultRetry(),
// wire.V30, suite.S128, one shared registry — plus one verify cache per
// engine, because a device owns its cache.
func buildFleet(wl workload, seed int64) (*fleet, setupStats, error) {
	var heapBefore runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&heapBefore)
	t0 := time.Now()
	workers := runtime.GOMAXPROCS(0)

	reg := obs.NewRegistry()
	b, err := backend.New(suite.S128, backend.WithTelemetry(reg))
	if err != nil {
		return nil, setupStats{}, err
	}
	if _, _, err := b.AddPolicy(attr.MustParse("position=='staff'"), attr.MustParse("type=='device'"), []string{"use"}); err != nil {
		return nil, setupStats{}, err
	}
	f := &fleet{wl: wl, seed: seed, reg: reg, b: b, tap: &tap{trace: &traceLog{}, lossGap: lossQuiet}, objCell: make(map[cert.ID]int, nObjects)}

	subjSpecs := make([]backend.SubjectSpec, nSubjects)
	for i := range subjSpecs {
		subjSpecs[i] = backend.SubjectSpec{Name: fmt.Sprintf("s-%d", i), Attrs: attr.MustSet("position=staff")}
	}
	sids, err := b.RegisterSubjects(subjSpecs, workers)
	if err != nil {
		return nil, setupStats{}, err
	}
	objSpecs := make([]backend.ObjectSpec, nObjects)
	for i := range objSpecs {
		objSpecs[i] = backend.ObjectSpec{
			Name: fmt.Sprintf("o-%d", i), Level: objectLevels[i%len(objectLevels)],
			Attrs: attr.MustSet("type=device"), Functions: []string{"use"},
		}
	}
	oids, err := b.RegisterObjects(objSpecs, workers)
	if err != nil {
		return nil, setupStats{}, err
	}

	f.cells = make([]*cell, nCells)
	for ci := range f.cells {
		grp, err := b.Groups.CreateGroup(fmt.Sprintf("cell %d covert group", ci))
		if err != nil {
			return nil, setupStats{}, err
		}
		f.cells[ci] = &cell{idx: ci, group: grp.ID(), objIdx: make(map[cert.ID]int), byAddr: make(map[transport.Addr]*slot)}
		for k := 0; k < objectsPerCell; k++ {
			if oi := ci*objectsPerCell + k; objSpecs[oi].Level == backend.L3 {
				if err := b.AddCovertService(oids[oi], grp.ID(), []string{"use", "covert"}); err != nil {
					return nil, setupStats{}, err
				}
			}
		}
		for k := 0; k < subjectsPerCell; k++ {
			if err := b.AddSubjectToGroup(sids[ci*subjectsPerCell+k], grp.ID()); err != nil {
				return nil, setupStats{}, err
			}
		}
	}
	oprovs, err := b.ProvisionObjects(oids, workers)
	if err != nil {
		return nil, setupStats{}, err
	}
	sprovs := make([]*backend.SubjectProvision, nSubjects)
	for i, id := range sids {
		if sprovs[i], err = b.ProvisionSubject(id); err != nil {
			return nil, setupStats{}, err
		}
	}

	for ci, c := range f.cells {
		c.mesh = transport.NewMesh()
		gw := f.join(c, roleGateway)
		// The gateway only sends, but as a member of the segment it hears
		// every broadcast; drain them so its mailbox never fills.
		gw.Bind(transport.HandlerFunc(func(transport.Addr, []byte) {}))
		c.dist = update.NewDistributor(b.Admin(), gw)
		c.dist.Instrument(reg)
		for k := 0; k < objectsPerCell; k++ {
			oi := ci*objectsPerCell + k
			c.objects[k] = f.newObject(c, oprovs[oi])
			c.objIdx[oids[oi]] = k
			f.objCell[oids[oi]] = ci
		}
		for k := 0; k < subjectsPerCell; k++ {
			si := ci*subjectsPerCell + k
			s := f.newSubject(c, sprovs[si], subjSpecs[si].Name)
			s.ringPos = si
			f.ring[si].Store(s)
			c.subjects = append(c.subjects, s)
		}
	}
	f.sampleSubject, f.sampleObject = sprovs[0], oprovs[1]
	f.tap.start = time.Now()
	st := setupStats{seconds: time.Since(t0).Seconds()}

	var heapAfter runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&heapAfter)
	st.heapKB = (float64(heapAfter.HeapAlloc) - float64(heapBefore.HeapAlloc)) / 1024 / nEngines
	return f, st, nil
}

// join adds one wrapped endpoint to the cell's mesh. Each endpoint draws its
// loss decisions from its own stream, seeded from the run seed and the order
// in which endpoints were created.
func (f *fleet) join(c *cell, role int) *benchEndpoint {
	f.joined++
	return f.tap.wrap(c.mesh.Join(), role, c, f.wl.loss, lossSeed(f.seed, f.joined))
}

func lossSeed(seed int64, endpoint int) int64 { return seed*1000003 + int64(endpoint) }

func (f *fleet) newCache() *cert.VerifyCache {
	vc := cert.NewVerifyCache(f.wl.vcacheCap)
	vc.Instrument(f.reg)
	f.caches = append(f.caches, vc)
	return vc
}

func (f *fleet) newObject(c *cell, prov *backend.ObjectProvision) *objectSlot {
	o := &objectSlot{level: prov.Level, ep: f.join(c, roleObject)}
	// The agent's callback runs on the object's event loop, where Revoke is
	// legal. No shared VerifyMemo: each device verifies for itself.
	o.agent = update.NewAgent(f.b.AdminPublic(), nil, func(n *update.Notification) {
		if n.Kind != update.KindRevokeSubject {
			return
		}
		o.eng.Revoke(n.Subject)
		if op, ok := f.churnOps.Load(n.Subject); ok {
			op.(*churnOp).applied()
		}
	})
	o.agent.Instrument(f.reg, c.dist.SentAt)
	o.eng = core.NewObject(prov, wire.V30, core.Costs{},
		core.WithEndpoint(o.agent.Wrap(o.ep)),
		core.WithRetry(core.DefaultRetry()),
		core.WithTelemetry(f.reg, nil),
		core.WithVerifyCache(f.newCache()))
	c.dist.Register(prov.ID, o.ep.Addr())
	return o
}

// newSubject attaches one subject engine to the cell; the caller places it in
// the ring and in the cell's subject list.
func (f *fleet) newSubject(c *cell, prov *backend.SubjectProvision, name string) *slot {
	ep := f.join(c, roleSubject)
	s := &slot{f: f, id: prov.ID, name: name, cell: c, ep: ep, addrN: meshNumber(ep.Addr())}
	ep.self = s
	s.eng = core.NewSubject(prov, wire.V30, core.Costs{},
		core.WithEndpoint(ep),
		core.WithRetry(core.DefaultRetry()),
		core.WithTelemetry(f.reg, nil),
		core.WithVerifyCache(f.newCache()))
	// Ordered before any traffic by the mailbox lock of the first Do.
	s.eng.OnDiscovery = s.onDiscovery
	c.mu.Lock()
	c.byAddr[ep.Addr()] = s
	c.mu.Unlock()
	return s
}

// cacheStats sums VerifyCache.Stats over every engine.
func (f *fleet) cacheStats() (hits, misses int64) {
	for _, vc := range f.caches {
		h, m, _ := vc.Stats()
		hits += h
		misses += m
	}
	return hits, misses
}

// each visits every engine of the fleet, the live subjects under their
// cell's lock.
func (f *fleet) each(object func(*objectSlot), subject func(*slot)) {
	for _, c := range f.cells {
		for _, o := range c.objects {
			object(o)
		}
		c.mu.RLock()
		for _, s := range c.subjects {
			subject(s)
		}
		c.mu.RUnlock()
	}
}

func (f *fleet) pendingSessions() (n int) {
	f.each(func(o *objectSlot) { n += o.eng.PendingSessions() }, func(s *slot) { n += s.eng.PendingSessions() })
	return n
}

func (f *fleet) mailboxDrops() (n int64) {
	drops := func(e *benchEndpoint) int64 { return e.Endpoint.(*transport.MeshEndpoint).Drops() }
	f.each(func(o *objectSlot) { n += drops(o.ep) }, func(s *slot) { n += drops(s.ep) })
	return n
}

// updateRejected sums the agents' rejected notifications. The counters belong
// to the objects' event loops, so call it only after close.
func (f *fleet) updateRejected() int {
	n := 0
	for _, c := range f.cells {
		for _, o := range c.objects {
			n += o.agent.Rejected()
		}
	}
	return n
}

// close tears the fleet down: first the stop gate, so that a retry timer that
// fires during tear-down cannot broadcast into a closing mesh (see README,
// "Findings"), then the meshes, which wait for their event loops.
func (f *fleet) close() {
	f.tap.stopped.Store(true)
	time.Sleep(20 * time.Millisecond) // a broadcast that passed the gate just before it shut
	for _, c := range f.cells {
		c.mesh.Close()
	}
}
