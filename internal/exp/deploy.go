package exp

import (
	"fmt"
	"runtime"

	"argus/internal/attr"
	"argus/internal/backend"
	"argus/internal/cert"
	"argus/internal/core"
	"argus/internal/netsim"
	"argus/internal/obs"
	"argus/internal/suite"
	"argus/internal/wire"
)

// Deployment is a provisioned testbed: a backend, a ground network, one
// subject and a set of objects — the simulation analogue of the paper's
// 1-phone + 20-Pi testbed.
type Deployment struct {
	Backend  *backend.Backend
	Net      *netsim.Network
	Subject  *core.Subject
	SubjNode netsim.NodeID
	Objects  []*core.Object
	ObjNode  []netsim.NodeID
	// relays[i] is the relay chain node at hop distance i+1 from the subject
	// (only populated for multi-hop topologies).
	relays []netsim.NodeID
}

// DeployConfig describes a testbed to build.
type DeployConfig struct {
	// Levels lists the level of each object to create (len = object count).
	Levels []backend.Level
	// HopOf maps object index → hop distance from the subject (1 = direct).
	// Nil means all objects are one hop away.
	HopOf []int
	// Version is the protocol iteration (default v3.0).
	Version wire.Version
	// SubjectCosts/ObjectCosts are the virtual compute tables (zero = free).
	SubjectCosts, ObjectCosts core.Costs
	// Link is the radio model (DefaultWiFi if zero).
	Link netsim.LinkModel
	// Seed fixes the simulator RNG.
	Seed int64
	// FellowOfGroup puts the subject in the covert group served by every
	// Level 3 object (true for fellow runs, false for cover-up runs).
	Fellow bool
	// Registry, when set, instruments the whole deployment (network,
	// backend, subject and every object). Telemetry never perturbs the
	// simulation: a fixed seed produces identical results either way.
	Registry *obs.Registry
	// Tracer, when set, records per-phase discovery spans on the subject.
	Tracer *obs.Tracer
	// Faults, when active, is installed as the network-wide fault model
	// (per-link overrides can be added on d.Net afterwards).
	Faults netsim.FaultModel
	// FaultSeed reseeds the fault RNG independently of Seed when non-zero,
	// so fault schedules can vary while airtime jitter stays fixed.
	FaultSeed int64
	// Retry, when enabled, is installed on the subject and every object so
	// the protocol survives Faults (see core.RetryPolicy).
	Retry core.RetryPolicy
	// VerifyCache, when set, is shared by the subject and every object so
	// repeat handshakes skip credential re-verification (core.WithVerifyCache).
	// It affects real CPU time only, never virtual-time results.
	// Instrumented under Registry when both are set.
	VerifyCache *cert.VerifyCache
}

// Deploy builds and provisions the testbed. Every object carries a Level 2
// policy face for staff ("use"); Level 3 objects additionally serve a secret
// group with a covert function.
func Deploy(cfg DeployConfig) (*Deployment, error) {
	if cfg.Version == 0 {
		cfg.Version = wire.V30
	}
	if cfg.Link.BytesPerSecond == 0 {
		cfg.Link = netsim.DefaultWiFi()
	}
	b, err := backend.New(suite.S128, backend.WithTelemetry(cfg.Registry))
	if err != nil {
		return nil, err
	}
	if _, _, err := b.AddPolicy(
		attr.MustParse("position=='staff'"),
		attr.MustParse("type=='device'"),
		[]string{"use"}); err != nil {
		return nil, err
	}
	grp, err := b.Groups.CreateGroup("experiment secret group")
	if err != nil {
		return nil, err
	}

	sid, _, err := b.RegisterSubject("subject-device", attr.MustSet("position=staff"))
	if err != nil {
		return nil, err
	}
	if cfg.Fellow {
		if err := b.AddSubjectToGroup(sid, grp.ID()); err != nil {
			return nil, err
		}
	}

	d := &Deployment{Backend: b, Net: netsim.New(cfg.Link, cfg.Seed)}
	d.Net.Instrument(cfg.Registry)
	if cfg.FaultSeed != 0 {
		d.Net.FaultSeed(cfg.FaultSeed)
	}
	if cfg.Faults.Active() {
		d.Net.SetFaults(cfg.Faults)
	}

	if cfg.VerifyCache != nil && cfg.Registry != nil {
		cfg.VerifyCache.Instrument(cfg.Registry)
	}
	engineOpts := func() []core.Option {
		opts := []core.Option{core.WithVerifyCache(cfg.VerifyCache)}
		if cfg.Registry != nil || cfg.Tracer != nil {
			opts = append(opts, core.WithTelemetry(cfg.Registry, cfg.Tracer))
		}
		if cfg.Retry.Enabled() {
			opts = append(opts, core.WithRetry(cfg.Retry))
		}
		return opts
	}

	sprov, err := b.ProvisionSubject(sid)
	if err != nil {
		return nil, err
	}
	// Node allocation order (subject, relay chain, objects in index order) is
	// load-bearing: node IDs are transport addresses, and fixed-seed
	// fingerprints quote them.
	sep := d.Net.NewEndpoint()
	d.SubjNode = sep.Node()
	d.Subject = core.NewSubject(sprov, cfg.Version, cfg.SubjectCosts,
		append(engineOpts(), core.WithEndpoint(sep))...)

	// Relay chain for multi-hop rings (bridging devices, §II-A).
	maxHop := 1
	for _, h := range cfg.HopOf {
		if h > maxHop {
			maxHop = h
		}
	}
	prev := d.SubjNode
	for i := 1; i < maxHop; i++ {
		r := d.Net.AddNode()
		d.Net.Link(prev, r)
		d.relays = append(d.relays, r)
		prev = r
	}

	// Object bootstrapping in three phases: batch registration (keygen and
	// certificate signing fan out across GOMAXPROCS workers), serial
	// covert-service wiring (mutates shared group state), batch provisioning
	// (profile signing fans out). Attachment stays serial so node IDs are
	// assigned in index order: the ground network, like the provisioned
	// credentials, is the same for any worker count.
	specs := make([]backend.ObjectSpec, len(cfg.Levels))
	for i, level := range cfg.Levels {
		specs[i] = backend.ObjectSpec{
			Name:      fmt.Sprintf("object-%02d", i),
			Level:     level,
			Attrs:     attr.MustSet("type=device,room=R1"),
			Functions: []string{"use"},
		}
	}
	oids, err := b.RegisterObjects(specs, runtime.GOMAXPROCS(0))
	if err != nil {
		return nil, err
	}
	for i, level := range cfg.Levels {
		if level == backend.L3 {
			if err := b.AddCovertService(oids[i], grp.ID(), []string{"use", "covert-use"}); err != nil {
				return nil, err
			}
		}
	}
	provs, err := b.ProvisionObjects(oids, runtime.GOMAXPROCS(0))
	if err != nil {
		return nil, err
	}
	for i, prov := range provs {
		oep := d.Net.NewEndpoint()
		node := oep.Node()
		o := core.NewObject(prov, cfg.Version, cfg.ObjectCosts,
			append(engineOpts(), core.WithEndpoint(oep))...)

		hop := 1
		if cfg.HopOf != nil {
			hop = cfg.HopOf[i]
		}
		if hop <= 1 {
			d.Net.Link(d.SubjNode, node)
		} else {
			d.Net.Link(d.relays[hop-2], node)
		}
		d.Objects = append(d.Objects, o)
		d.ObjNode = append(d.ObjNode, node)
	}
	return d, nil
}

// Run performs one discovery round with the given TTL and drains the
// network, returning the discoveries and the completion time (virtual time
// of the last discovery).
func (d *Deployment) Run(ttl int) ([]core.Discovery, error) {
	if err := d.Subject.Discover(ttl); err != nil {
		return nil, err
	}
	d.Net.Run(0)
	return d.Subject.Results(), nil
}

// uniformLevels returns n copies of one level.
func uniformLevels(level backend.Level, n int) []backend.Level {
	out := make([]backend.Level, n)
	for i := range out {
		out[i] = level
	}
	return out
}

// paperHops assigns the paper's multi-hop layout: objects i are 1+i/5 hops
// away (1–5 → 1 hop, 6–10 → 2 hops, ..., Fig 6g).
func paperHops(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = 1 + i/5
	}
	return out
}

// mustPred and mustAttrs are tiny fixtures for experiment setup.
func mustPred(text string) *attr.Predicate { return attr.MustParse(text) }
func mustAttrs(text string) attr.Set       { return attr.MustSet(text) }
