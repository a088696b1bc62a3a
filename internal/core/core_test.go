package core

import (
	"testing"

	"argus/internal/attr"
	"argus/internal/backend"
	"argus/internal/cert"
	"argus/internal/groups"
	"argus/internal/netsim"
	"argus/internal/suite"
	"argus/internal/wire"
)

// deployment is a test fixture: a backend plus a star ground network with
// one subject and its engines.
type deployment struct {
	t   *testing.T
	b   *backend.Backend
	net *netsim.Network

	subjNode netsim.NodeID
	subject  *Subject

	objects map[string]*Object
}

func newDeployment(t *testing.T) *deployment {
	t.Helper()
	b, err := backend.New(suite.S128)
	if err != nil {
		t.Fatal(err)
	}
	return &deployment{
		t:       t,
		b:       b,
		net:     netsim.New(netsim.DefaultWiFi(), 1),
		objects: make(map[string]*Object),
	}
}

// addSubject registers and attaches the deployment's subject.
func (d *deployment) addSubject(name string, attrs attr.Set, version wire.Version, opts ...Option) *Subject {
	d.t.Helper()
	id, _, err := d.b.RegisterSubject(name, attrs)
	if err != nil {
		d.t.Fatal(err)
	}
	return d.attachSubject(id, version, opts...)
}

func (d *deployment) attachSubject(id cert.ID, version wire.Version, opts ...Option) *Subject {
	d.t.Helper()
	prov, err := d.b.ProvisionSubject(id)
	if err != nil {
		d.t.Fatal(err)
	}
	ep := d.net.NewEndpoint()
	s := NewSubject(prov, version, Costs{}, append(opts, WithEndpoint(ep))...)
	d.subjNode = ep.Node()
	d.subject = s
	return s
}

// addObject registers, provisions and attaches an object one hop from the
// subject.
func (d *deployment) addObject(name string, level Level, attrs attr.Set, funcs []string, version wire.Version, opts ...Option) *Object {
	d.t.Helper()
	id, _, err := d.b.RegisterObject(name, level, attrs, funcs)
	if err != nil {
		d.t.Fatal(err)
	}
	return d.attachObject(id, version, opts...)
}

func (d *deployment) attachObject(id cert.ID, version wire.Version, opts ...Option) *Object {
	d.t.Helper()
	prov, err := d.b.ProvisionObject(id)
	if err != nil {
		d.t.Fatal(err)
	}
	ep := d.net.NewEndpoint()
	o := NewObject(prov, version, Costs{}, append(opts, WithEndpoint(ep))...)
	d.net.Link(d.subjNode, ep.Node())
	d.objects[prov.Name] = o
	return o
}

// refreshObject re-provisions an attached object after backend churn.
func (d *deployment) refreshObject(name string) {
	d.t.Helper()
	o := d.objects[name]
	prov, err := d.b.ProvisionObject(o.ID())
	if err != nil {
		d.t.Fatal(err)
	}
	o.Refresh(prov)
}

// run performs one discovery round and drains the network.
func (d *deployment) run() []Discovery {
	d.t.Helper()
	if err := d.subject.Discover(1); err != nil {
		d.t.Fatal(err)
	}
	d.net.Run(0)
	return d.subject.Results()
}

func findByLevel(res []Discovery, l Level) []Discovery {
	var out []Discovery
	for _, r := range res {
		if r.Level == l {
			out = append(out, r)
		}
	}
	return out
}

func TestLevel1Discovery(t *testing.T) {
	for _, v := range []wire.Version{wire.V10, wire.V20, wire.V30} {
		d := newDeployment(t)
		d.addSubject("alice", attr.MustSet("position=visitor"), v)
		d.addObject("aisle-thermometer", L1, attr.MustSet("type=thermometer"), []string{"read-temperature"}, v)

		res := d.run()
		if len(res) != 1 {
			t.Fatalf("%v: discoveries = %d, want 1", v, len(res))
		}
		if res[0].Level != L1 {
			t.Errorf("%v: level = %v", v, res[0].Level)
		}
		if got := res[0].Profile.Functions; len(got) != 1 || got[0] != "read-temperature" {
			t.Errorf("%v: functions = %v", v, got)
		}
		if res[0].At <= 0 {
			t.Errorf("%v: no virtual time recorded", v)
		}
	}
}

func TestLevel2DifferentiatedByAttributes(t *testing.T) {
	for _, v := range []wire.Version{wire.V10, wire.V20, wire.V30} {
		d := newDeployment(t)
		d.b.AddPolicy(
			attr.MustParse("position=='manager' && department=='X'"),
			attr.MustParse("type=='multimedia'"),
			[]string{"play", "record"})
		d.addSubject("manager", attr.MustSet("position=manager,department=X"), v)
		d.addObject("office-multimedia", L2, attr.MustSet("type=multimedia,room=101"), []string{"play", "record", "admin"}, v)

		res := d.run()
		if len(res) != 1 || res[0].Level != L2 {
			t.Fatalf("%v: results = %+v, want one L2 discovery", v, res)
		}
		fns := res[0].Profile.Functions
		if len(fns) != 2 || fns[0] != "play" || fns[1] != "record" {
			t.Errorf("%v: functions = %v, want the policy rights only", v, fns)
		}
	}
}

func TestLevel2OutsiderSeesNothing(t *testing.T) {
	d := newDeployment(t)
	d.b.AddPolicy(
		attr.MustParse("position=='manager'"),
		attr.MustParse("type=='multimedia'"),
		[]string{"play"})
	d.addSubject("outsider", attr.MustSet("position=visitor"), wire.V30)
	d.addObject("office-multimedia", L2, attr.MustSet("type=multimedia"), []string{"play"}, wire.V30)

	res := d.run()
	if len(res) != 0 {
		t.Fatalf("outsider discovered %d services, want 0 — service information secrecy (§III)", len(res))
	}
}

func TestLevel2MultipleVariants(t *testing.T) {
	// Two policies on one object: managers see admin functions, staff see
	// basic ones — differentiated variants of the same device.
	for _, tc := range []struct {
		who   string
		attrs string
		want  int
	}{
		{"manager", "position=manager", 3},
		{"staff", "position=staff", 1},
	} {
		d := newDeployment(t)
		d.b.AddPolicy(attr.MustParse("position=='manager'"),
			attr.MustParse("type=='hvac'"), []string{"set-temperature", "schedule", "service-mode"})
		d.b.AddPolicy(attr.MustParse("position=='staff'"),
			attr.MustParse("type=='hvac'"), []string{"read-temperature"})
		d.addSubject(tc.who, attr.MustSet(tc.attrs), wire.V30)
		d.addObject("hvac", L2, attr.MustSet("type=hvac"), []string{"set-temperature", "schedule", "service-mode", "read-temperature"}, wire.V30)
		res := d.run()
		if len(res) != 1 {
			t.Fatalf("%s: discoveries = %d", tc.who, len(res))
		}
		if got := len(res[0].Profile.Functions); got != tc.want {
			t.Errorf("%s sees %d functions (%v), want %d", tc.who, got, res[0].Profile.Functions, tc.want)
		}
	}
}

// covertFixture builds the paper's running example: student S with a
// sensitive attribute, the magazine machine O serving S's secret group
// covertly while showing a Level 2 face to everyone.
func covertFixture(t *testing.T, v wire.Version, subjectInGroup bool) (*deployment, groups.ID) {
	d := newDeployment(t)
	g, err := d.b.Groups.CreateGroup("students with learning disability")
	if err != nil {
		t.Fatal(err)
	}
	// Level 2 face: any student can buy magazines.
	d.b.AddPolicy(attr.MustParse("position=='student'"),
		attr.MustParse("type=='magazine-machine'"), []string{"buy-magazine"})

	sid, _, err := d.b.RegisterSubject("student-S", attr.MustSet("position=student"))
	if err != nil {
		t.Fatal(err)
	}
	if subjectInGroup {
		if err := d.b.AddSubjectToGroup(sid, g.ID()); err != nil {
			t.Fatal(err)
		}
	}

	oid, _, err := d.b.RegisterObject("magazine-machine", L3,
		attr.MustSet("type=magazine-machine,building=library"), []string{"buy-magazine"})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.b.AddCovertService(oid, g.ID(), []string{"buy-magazine", "counseling-flyers"}); err != nil {
		t.Fatal(err)
	}

	d.attachSubject(sid, v)
	d.attachObject(oid, v)
	return d, g.ID()
}

func TestLevel3FellowDiscoversCovertService(t *testing.T) {
	for _, v := range []wire.Version{wire.V20, wire.V30} {
		d, gid := covertFixture(t, v, true)
		res := d.run()
		if len(res) != 1 {
			t.Fatalf("%v: discoveries = %d, want 1", v, len(res))
		}
		r := res[0]
		if r.Level != L3 {
			t.Fatalf("%v: level = %v, want L3", v, r.Level)
		}
		if r.Group != uint64(gid) {
			t.Errorf("%v: group = %d, want %d", v, r.Group, gid)
		}
		found := false
		for _, f := range r.Profile.Functions {
			if f == "counseling-flyers" {
				found = true
			}
		}
		if !found {
			t.Errorf("%v: covert functions missing: %v", v, r.Profile.Functions)
		}
	}
}

func TestLevel3NonFellowSeesLevel2Face(t *testing.T) {
	// v3.0 double-faced role: a student outside the secret group gets the
	// clean magazines — a Level 2 discovery — and cannot tell the machine is
	// Level 3.
	d, _ := covertFixture(t, wire.V30, false)
	res := d.run()
	if len(res) != 1 {
		t.Fatalf("discoveries = %d, want 1", len(res))
	}
	if res[0].Level != L2 {
		t.Fatalf("level = %v, want L2 (the object's public face)", res[0].Level)
	}
	for _, f := range res[0].Profile.Functions {
		if f == "counseling-flyers" {
			t.Fatal("covert function leaked to non-fellow")
		}
	}
}

func TestLevel3V20NonFellowDiscoveryFails(t *testing.T) {
	// In v2.0 a Level 3 object always answers with its Level 3 face; a
	// non-fellow cannot verify MAC_{O,3} and the discovery fails — secrecy
	// holds, but the failure itself is the distinguishability leak.
	d, _ := covertFixture(t, wire.V20, false)
	res := d.run()
	if len(res) != 0 {
		t.Fatalf("non-fellow discovered %d services under v2.0, want 0", len(res))
	}
}

func TestV10TreatsLevel3ObjectAsLevel2(t *testing.T) {
	d, _ := covertFixture(t, wire.V10, true)
	res := d.run()
	if len(res) != 1 || res[0].Level != L2 {
		t.Fatalf("v1.0 results = %+v, want one L2 discovery", res)
	}
}

func TestMultiGroupRotationFindsAllCovertServices(t *testing.T) {
	// §VI-C: a subject in two secret groups rotates keys across rounds and
	// finds the covert services of both.
	d := newDeployment(t)
	g1, _ := d.b.Groups.CreateGroup("group-one")
	g2, _ := d.b.Groups.CreateGroup("group-two")
	sid, _, _ := d.b.RegisterSubject("multi", attr.MustSet("position=student"))
	d.b.AddSubjectToGroup(sid, g1.ID())
	d.b.AddSubjectToGroup(sid, g2.ID())

	o1, _, _ := d.b.RegisterObject("covert-1", L3, attr.MustSet("type=kiosk"), []string{"use"})
	o2, _, _ := d.b.RegisterObject("covert-2", L3, attr.MustSet("type=kiosk"), []string{"use"})
	d.b.AddCovertService(o1, g1.ID(), []string{"use", "support-1"})
	d.b.AddCovertService(o2, g2.ID(), []string{"use", "support-2"})

	d.attachSubject(sid, wire.V30)
	d.attachObject(o1, wire.V30)
	d.attachObject(o2, wire.V30)

	if err := d.subject.DiscoverAll(1, func() { d.net.Run(0) }); err != nil {
		t.Fatal(err)
	}
	l3 := findByLevel(d.subject.Results(), L3)
	seen := map[string]bool{}
	for _, r := range l3 {
		for _, f := range r.Profile.Functions {
			seen[f] = true
		}
	}
	if !seen["support-1"] || !seen["support-2"] {
		t.Fatalf("multi-group rotation missed covert services: %v", seen)
	}
}

func TestRevokedSubjectIsRefused(t *testing.T) {
	// §VIII: after revocation, the notified objects reject the subject's
	// future discovery attempts.
	d := newDeployment(t)
	d.b.AddPolicy(attr.MustParse("position=='manager'"),
		attr.MustParse("type=='safe'"), []string{"open"})
	s := d.addSubject("manager", attr.MustSet("position=manager"), wire.V30)
	d.addObject("safe", L2, attr.MustSet("type=safe"), []string{"open"}, wire.V30)

	if res := d.run(); len(res) != 1 {
		t.Fatalf("pre-revocation discoveries = %d, want 1", len(res))
	}

	rep, err := d.b.RevokeSubject(s.ID())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.NotifiedObjects) != 1 {
		t.Fatalf("notified %d objects, want 1", len(rep.NotifiedObjects))
	}
	d.refreshObject("safe")

	before := len(d.subject.Results())
	d.run()
	if got := len(d.subject.Results()) - before; got != 0 {
		t.Fatalf("revoked subject discovered %d services, want 0", got)
	}
}

// TestRefreshServesTheNewProfiles: an object encodes its profiles when a
// provision arrives, not per answer — so a Refresh must replace every one of
// them, the public profile and the variants.
func TestRefreshServesTheNewProfiles(t *testing.T) {
	d := newDeployment(t)
	d.b.AddPolicy(attr.MustParse("position=='staff'"), attr.MustParse("has(type)"), []string{"use"})
	d.addSubject("alice", attr.MustSet("position=staff"), wire.V30, WithVerifyCache(cert.NewVerifyCache(0)))
	names := map[cert.ID]string{}
	for name, level := range map[string]Level{"sign": L1, "printer": L2} {
		names[d.addObject(name, level, attr.MustSet("type=device,floor=1"), []string{"use"}, wire.V30).ID()] = name
	}
	floors := func(res []Discovery) map[string]string {
		out := map[string]string{}
		for _, r := range res {
			out[names[r.Object]] = r.Profile.Attrs["floor"]
		}
		return out
	}
	if got := floors(d.run()); got["sign"] != "1" || got["printer"] != "1" {
		t.Fatalf("before the move: floors %v", got)
	}
	// Met again, an object's unchanged profile is the one already held: the
	// subject's results keep it once, however many rounds report it.
	again := d.run()
	for _, r := range again[2:] {
		for _, first := range again[:2] {
			if first.Object == r.Object && first.Profile != r.Profile {
				t.Errorf("%s: the second round decoded and kept the same profile again", names[r.Object])
			}
		}
	}
	for id, name := range names {
		if _, err := d.b.UpdateObjectAttrs(id, attr.MustSet("type=device,floor=2")); err != nil {
			t.Fatal(err)
		}
		d.refreshObject(name)
	}
	if got := floors(d.run()[4:]); got["sign"] != "2" || got["printer"] != "2" {
		t.Fatalf("after Refresh the objects still serve the old encodings: floors %v", got)
	}
}

func TestDuplicateQUE1Suppressed(t *testing.T) {
	// Objects detect duplicate queries via R_S (§IV-B): a flooded QUE1
	// arriving over several paths triggers one RES1.
	d := newDeployment(t)
	d.addSubject("alice", attr.Set{}, wire.V30)
	o := d.addObject("thermo", L1, attr.MustSet("type=thermometer"), []string{"read"}, wire.V30)
	// Add a relay path subject → relay → object so the flood reaches the
	// object twice.
	relay := d.net.AddNode(nil)
	d.net.Link(d.subjNode, relay)
	objNode := netsim.NodeID(1) // first object added after subject
	_ = o
	d.net.Link(relay, objNode)

	if err := d.subject.Discover(3); err != nil {
		t.Fatal(err)
	}
	d.net.Run(0)
	if got := len(d.subject.Results()); got != 1 {
		t.Fatalf("discoveries = %d, want 1 (duplicate suppressed)", got)
	}
}

func TestTwentyObjectMixedDeployment(t *testing.T) {
	// An integration sweep shaped like the paper's testbed: 20 objects mixed
	// across levels, one subject discovering all of them concurrently.
	d := newDeployment(t)
	g, _ := d.b.Groups.CreateGroup("support")
	d.b.AddPolicy(attr.MustParse("position=='staff'"),
		attr.MustParse("has(room)"), []string{"use"})
	sid, _, _ := d.b.RegisterSubject("staff-member", attr.MustSet("position=staff"))
	d.b.AddSubjectToGroup(sid, g.ID())
	d.attachSubject(sid, wire.V30)

	wantL1, wantL2, wantL3 := 0, 0, 0
	for i := 0; i < 20; i++ {
		var level Level
		switch i % 3 {
		case 0:
			level = L1
			wantL1++
		case 1:
			level = L2
			wantL2++
		default:
			level = L3
			wantL3++
		}
		name := string(rune('a'+i)) + "-device"
		oid, _, err := d.b.RegisterObject(name, level,
			attr.MustSet("room=R1,type=device"), []string{"use"})
		if err != nil {
			t.Fatal(err)
		}
		if level == L3 {
			if err := d.b.AddCovertService(oid, g.ID(), []string{"use", "covert-use"}); err != nil {
				t.Fatal(err)
			}
		}
		d.attachObject(oid, wire.V30)
	}

	res := d.run()
	if len(res) != 20 {
		t.Fatalf("discoveries = %d, want 20", len(res))
	}
	if got := len(findByLevel(res, L1)); got != wantL1 {
		t.Errorf("L1 = %d, want %d", got, wantL1)
	}
	if got := len(findByLevel(res, L2)); got != wantL2 {
		t.Errorf("L2 = %d, want %d", got, wantL2)
	}
	if got := len(findByLevel(res, L3)); got != wantL3 {
		t.Errorf("L3 = %d, want %d", got, wantL3)
	}
}

// TestLevel3ObjectServesMultipleGroups: an object in m' secret groups holds
// m' PROF variants (§IV-A) and answers each fellow with their group's
// variant — two fellows of different groups see different covert functions.
func TestLevel3ObjectServesMultipleGroups(t *testing.T) {
	b, err := backend.New(suite.S128)
	if err != nil {
		t.Fatal(err)
	}
	g1, _ := b.Groups.CreateGroup("group-one")
	g2, _ := b.Groups.CreateGroup("group-two")
	oid, _, _ := b.RegisterObject("multi-kiosk", backend.L3, attr.MustSet("type=kiosk"), []string{"use"})
	b.AddCovertService(oid, g1.ID(), []string{"use", "covert-one"})
	b.AddCovertService(oid, g2.ID(), []string{"use", "covert-two"})

	s1, _, _ := b.RegisterSubject("fellow-one", attr.MustSet("position=staff"))
	s2, _, _ := b.RegisterSubject("fellow-two", attr.MustSet("position=staff"))
	b.AddSubjectToGroup(s1, g1.ID())
	b.AddSubjectToGroup(s2, g2.ID())

	covertFuncs := func(sid cert.ID) []string {
		net := netsim.New(netsim.DefaultWiFi(), 8)
		prov, err := b.ProvisionSubject(sid)
		if err != nil {
			t.Fatal(err)
		}
		sep := net.NewEndpoint()
		subj := NewSubject(prov, wire.V30, Costs{}, WithEndpoint(sep))
		oprov, err := b.ProvisionObject(oid)
		if err != nil {
			t.Fatal(err)
		}
		oep := net.NewEndpoint()
		NewObject(oprov, wire.V30, Costs{}, WithEndpoint(oep))
		net.Link(sep.Node(), oep.Node())
		if err := subj.Discover(1); err != nil {
			t.Fatal(err)
		}
		net.Run(0)
		res := subj.Results()
		if len(res) != 1 || res[0].Level != L3 {
			t.Fatalf("results = %+v", res)
		}
		return res[0].Profile.Functions
	}

	f1 := covertFuncs(s1)
	f2 := covertFuncs(s2)
	has := func(fs []string, want string) bool {
		for _, f := range fs {
			if f == want {
				return true
			}
		}
		return false
	}
	if !has(f1, "covert-one") || has(f1, "covert-two") {
		t.Fatalf("fellow-one sees %v", f1)
	}
	if !has(f2, "covert-two") || has(f2, "covert-one") {
		t.Fatalf("fellow-two sees %v", f2)
	}
}
