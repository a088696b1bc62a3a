package adversary_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"argus/internal/adversary"
	"argus/internal/attr"
	"argus/internal/backend"
	"argus/internal/cert"
	"argus/internal/core"
	"argus/internal/exp"
	"argus/internal/netsim"
	"argus/internal/obs"
	"argus/internal/slo"
	"argus/internal/suite"
	"argus/internal/transport"
	"argus/internal/wire"

	"argus/internal/transport/transporttest"
)

// rig is a one-cell honest deployment on a Mesh: a backend, one Level 2
// object, and one provisioned staff subject, with every engine instrumented
// into reg.
type rig struct {
	t    *testing.T
	b    *backend.Backend
	mesh *transport.Mesh
	reg  *obs.Registry

	obj     *core.Object
	objAddr transport.Addr
	subj    *core.Subject
	subjEP  transport.Endpoint
}

func newRig(t *testing.T, retry core.RetryPolicy, taps ...adversary.Tap) *rig {
	t.Helper()
	b, err := backend.New(suite.S128)
	if err != nil {
		t.Fatal(err)
	}
	b.AddPolicy(attr.MustParse("position=='staff'"), attr.MustParse("type=='device'"), []string{"use"})
	oid, _, err := b.RegisterObject("printer", backend.L2, attr.MustSet("type=device"), []string{"use"})
	if err != nil {
		t.Fatal(err)
	}
	sid, _, err := b.RegisterSubject("alice", attr.MustSet("position=staff"))
	if err != nil {
		t.Fatal(err)
	}
	oprov, err := b.ProvisionObject(oid)
	if err != nil {
		t.Fatal(err)
	}
	sprov, err := b.ProvisionSubject(sid)
	if err != nil {
		t.Fatal(err)
	}

	mesh := transport.NewMesh()
	t.Cleanup(mesh.Close)
	reg := obs.NewRegistry()
	vc := cert.NewVerifyCache(1 << 10)

	var objEP transport.Endpoint = mesh.Join()
	objAddr := objEP.Addr()
	objEP = adversary.WrapTap(objEP, taps...)
	obj := core.NewObject(oprov, wire.V30, core.Costs{},
		core.WithEndpoint(objEP), core.WithRetry(retry),
		core.WithTelemetry(reg, nil), core.WithVerifyCache(vc))
	_ = obj

	subjEP := mesh.Join()
	subj := core.NewSubject(sprov, wire.V30, core.Costs{},
		core.WithEndpoint(subjEP), core.WithRetry(retry),
		core.WithTelemetry(reg, nil), core.WithVerifyCache(vc))

	return &rig{t: t, b: b, mesh: mesh, reg: reg,
		obj: obj, objAddr: objAddr, subj: subj, subjEP: subjEP}
}

// counter reads the summed value of a family filtered by one label.
func (r *rig) counter(name, key, value string) int64 {
	var total int64
	snap := r.reg.Snapshot()
	for i := range snap.Metrics {
		m := &snap.Metrics[i]
		if m.Name != name {
			continue
		}
		if key != "" && m.Labels[key] != value {
			continue
		}
		total += int64(m.Value)
	}
	return total
}

func (r *rig) await(what string, cond func() bool) {
	r.t.Helper()
	transporttest.WaitUntil(r.t, 5*time.Second, cond, what)
}

// discover runs one honest discovery round and waits for it to complete.
func (r *rig) discover() {
	r.t.Helper()
	r.subjEP.Do(func() { _ = r.subj.Discover(1) })
	r.await("honest discovery", func() bool {
		return r.counter(obs.MDiscoveries, "", "") >= 1
	})
}

var quickRetry = core.RetryPolicy{
	Que1Retries: 3, Que2Retries: 3,
	Timeout: 150 * time.Millisecond, SessionTTL: 5 * time.Second,
}

// The replayer's whole contract against one real object: orphan QUE2 is
// silence, replayed QUE1 opens a handshake whose duplicates resend the
// cached RES1 byte-identically, and the stale QUE2 is rejected — with the
// object-side counters moving by exactly the injected amounts.
func TestReplayerContract(t *testing.T) {
	capture := adversary.NewCapture()
	r := newRig(t, quickRetry, capture)
	r.discover()

	if !capture.Complete() {
		t.Fatal("capture did not assemble a full QUE1/RES1/QUE2 transcript")
	}

	before := map[string]int64{}
	for _, result := range []string{"handshake", "duplicate", "rejected", "orphan", "fellow", "l2"} {
		before[result] = r.counter(obs.MObjectQue2, "result", result) + r.counter(obs.MObjectQue1, "result", result)
	}

	attacker := r.mesh.Join()
	stats, err := adversary.ExecuteReplay(attacker,
		[]adversary.ReplayTarget{{Object: r.objAddr, Capture: capture}},
		3*time.Second, r.reg)
	if err != nil {
		t.Fatalf("ExecuteReplay: %v", err)
	}
	if stats.Skipped != 0 || stats.IdempotencyViolations != 0 {
		t.Fatalf("replay stats: %+v", stats)
	}
	if stats.OrphanQue2 != 1 || stats.Que1 != 1 || stats.DupQue1 != 2 || stats.StaleQue2 != 1 {
		t.Fatalf("unexpected injection ledger: %+v", stats)
	}

	r.await("replay counters", func() bool {
		return r.counter(obs.MObjectQue2, "result", "rejected")-before["rejected"] >= 1
	})
	deltas := map[string]int64{
		"orphan":    r.counter(obs.MObjectQue2, "result", "orphan") - before["orphan"],
		"rejected":  r.counter(obs.MObjectQue2, "result", "rejected") - before["rejected"],
		"duplicate": r.counter(obs.MObjectQue1, "result", "duplicate") - before["duplicate"],
	}
	want := map[string]int64{"orphan": 1, "rejected": 1, "duplicate": 2}
	for k, w := range want {
		if deltas[k] != w {
			t.Errorf("object %s delta = %d, want %d (stats %+v)", k, deltas[k], w, stats)
		}
	}
	// The replayer must never be answered: no fellow/l2 results beyond the
	// honest session's.
	for _, result := range []string{"fellow", "l2"} {
		if got := r.counter(obs.MObjectQue2, "result", result); got != before[result] {
			t.Errorf("replayer was answered: %s moved %d → %d", result, before[result], got)
		}
	}
	if got := r.counter(obs.MAdversaryInjected, "persona", "replay"); got != 5 {
		t.Errorf("injected counter = %d, want 5 (3 QUE1 + 2 QUE2)", got)
	}
}

// A Sybil flood against a real object: every forged QUE2 is rejected at
// certificate verification, honest discovery still works afterwards, and
// the object's pending-session table stays bounded under a much larger
// flood than it will ever cache.
func TestSybilFloodRejectedAndBounded(t *testing.T) {
	r := newRig(t, quickRetry)

	prov, err := adversary.RogueProvision(suite.S128)
	if err != nil {
		t.Fatal(err)
	}
	rejected0 := r.counter(obs.MObjectQue2, "result", "rejected")

	stats, err := adversary.ExecuteSybil(
		func() (transport.Endpoint, error) { return r.mesh.Join(), nil },
		prov, 3, 2*time.Second, r.reg)
	if err != nil {
		t.Fatalf("ExecuteSybil: %v", err)
	}
	if stats.Identities != 3 || stats.Broadcasts != 3 {
		t.Fatalf("sybil stats: %+v", stats)
	}
	if stats.SecureRes1 != 3 || stats.Forged != 3 {
		t.Fatalf("expected one secure RES1 + one forged QUE2 per round: %+v", stats)
	}
	r.await("forged QUE2 rejections", func() bool {
		return r.counter(obs.MObjectQue2, "result", "rejected")-rejected0 >= stats.Forged
	})
	if got := r.counter(obs.MObjectQue2, "result", "rejected") - rejected0; got != stats.Forged {
		t.Fatalf("rejected delta = %d, want exactly %d", got, stats.Forged)
	}

	// Honest traffic is unaffected.
	r.discover()

	// Bounded work: a flood of unique QUE1s cannot grow the session table
	// past its cap — the overflow is refused, not stored.
	flood := r.mesh.Join()
	defer flood.Close()
	flood.Bind(transport.HandlerFunc(func(transport.Addr, []byte) {})) // deaf flooder; Bind starts the loop
	for i := 0; i < 400; i++ {
		rs, err := suite.NewNonce(nil)
		if err != nil {
			t.Fatal(err)
		}
		enc := (&wire.QUE1{Version: wire.V30, RS: rs}).Encode()
		flood.Do(func() { flood.Send(r.objAddr, enc) })
	}
	r.await("flood refusals", func() bool {
		return r.counter(obs.MObjectQue1, "result", "refused") > 0
	})
	r.await("session table bounded", func() bool {
		return r.obj.PendingSessions() <= 256
	})
	if got := r.obj.PendingSessions(); got > 256 {
		t.Fatalf("session table grew past its bound: %d", got)
	}
}

// The observer distinguishes nothing when both populations come from the
// same world, and decisively flags a deterministic length leak.
func TestObserverVerdict(t *testing.T) {
	reg := obs.NewRegistry()
	o := adversary.NewObserver(reg, 20, 0)
	plain := o.Tap(adversary.PopPlain)
	covert := o.Tap(adversary.PopCovert)

	que2 := (&wire.QUE2{Version: wire.V30, RS: []byte("0123456789abcdef0123456789ab"),
		MACS2: make([]byte, suite.MACSize)}).Encode()
	res2 := func(extra int) []byte {
		return (&wire.RES2{Version: wire.V30, Ciphertext: make([]byte, 160+extra),
			MACO: make([]byte, suite.MACSize)}).Encode()
	}

	feed := func(tap adversary.Tap, n int, extra int, jitter func(int) time.Duration) {
		for i := 0; i < n; i++ {
			peer := transport.Addr(fmt.Sprintf("peer-%d", i))
			at := time.Duration(i) * time.Millisecond
			tap.Inbound(peer, que2, at)
			tap.Outbound(peer, res2(extra), at+50*time.Microsecond+jitter(i))
		}
	}
	sameJitter := func(i int) time.Duration { return time.Duration(i%7) * time.Microsecond }

	feed(plain, 40, 0, sameJitter)
	feed(covert, 40, 0, sameJitter)
	v := o.Verdict()
	if !v.Evaluated {
		t.Fatalf("verdict not evaluated: %+v", v)
	}
	if !v.Pass(0.001) {
		t.Fatalf("identical worlds must pass the covertness gate: %s", v)
	}

	// A fresh observer over a leaky world: covert RES2s run 64 bytes long.
	o2 := adversary.NewObserver(reg, 20, 0)
	feed(o2.Tap(adversary.PopPlain), 40, 0, sameJitter)
	feed(o2.Tap(adversary.PopCovert), 40, 64, sameJitter)
	v2 := o2.Verdict()
	if !v2.Evaluated {
		t.Fatalf("verdict not evaluated: %+v", v2)
	}
	if v2.Pass(0.001) {
		t.Fatalf("a 64-byte length leak must fail the covertness gate: %s", v2)
	}
	if v2.LengthP > 1e-6 || v2.LengthD != 1 {
		t.Fatalf("length channel should be decisive: %s", v2)
	}

	// Starved observers never pass.
	o3 := adversary.NewObserver(reg, 1000, 0)
	if o3.Verdict().Pass(0.001) {
		t.Fatal("an unevaluated verdict must not pass")
	}
}

// gatedTap forwards to a tap only while armed, so an observer can be pointed
// at exactly the exchanges a test means it to sample.
type gatedTap struct {
	adversary.Tap
	armed *bool
}

func (g gatedTap) Inbound(peer transport.Addr, p []byte, at time.Duration) {
	if *g.armed {
		g.Tap.Inbound(peer, p, at)
	}
}

func (g gatedTap) Outbound(peer transport.Addr, p []byte, at time.Duration) {
	if *g.armed {
		g.Tap.Outbound(peer, p, at)
	}
}

// resumedCrowd runs the Case-7 crowd experiment over a population whose
// sampled sessions are all resumed: six non-fellow staff subjects against two
// true Level 2 devices (the plain world) and two Level 3 devices showing them
// their Level 2 face (the covert world), on the simulator with the calibrated
// Pi cost table, so the observer's clock reads the objects' equalised compute
// charge and nothing else. The first round of every subject — the full
// handshakes that mint the tickets — passes unobserved; then the observer is
// armed and every subject discovers eight more times.
//
// leak is the negative control: "length" makes the Level 3 devices' Level 2
// face run 64 B past the uniform pad (re-signed, so sessions still complete
// and resume); "timing" has them serve a second secret group, so their
// fellowship trial takes two HMAC pairs where every other device's takes one.
func resumedCrowd(t *testing.T, leak string) slo.Covertness {
	t.Helper()
	const subjects, rounds, perWorld = 6, 8, 2
	b, err := backend.New(suite.S128)
	if err != nil {
		t.Fatal(err)
	}
	b.AddPolicy(attr.MustParse("position=='staff'"), attr.MustParse("type=='device'"), []string{"use"})
	net := netsim.New(netsim.DefaultWiFi(), 1)
	reg := obs.NewRegistry()
	observer := adversary.NewObserver(reg, subjects*rounds*perWorld, 0)
	armed := false
	var objNodes []netsim.NodeID
	for i, pop := range []adversary.Population{adversary.PopPlain, adversary.PopCovert, adversary.PopCovert, adversary.PopPlain} {
		level := backend.L2
		if pop == adversary.PopCovert {
			level = backend.L3
		}
		id, _, err := b.RegisterObject(fmt.Sprintf("device-%d", i), level, attr.MustSet("type=device"), []string{"use"})
		if err != nil {
			t.Fatal(err)
		}
		for g := 0; level == backend.L3 && g < 2; g++ {
			if g == 1 && leak != "timing" {
				break
			}
			grp, err := b.Groups.CreateGroup(fmt.Sprintf("fellows the crowd is not, %d/%d", i, g))
			if err != nil {
				t.Fatal(err)
			}
			if err := b.AddCovertService(id, grp.ID(), []string{"use", "covert"}); err != nil {
				t.Fatal(err)
			}
		}
		prov, err := b.ProvisionObject(id)
		if err != nil {
			t.Fatal(err)
		}
		if leak == "length" && level == backend.L3 {
			for i := range prov.Variants {
				if v := &prov.Variants[i]; !v.IsCovert() {
					v.Profile.Note += strings.Repeat(".", 64)
					if err := b.Admin().SignProfile(v.Profile); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		ep := net.NewEndpoint()
		objNodes = append(objNodes, ep.Node())
		core.NewObject(prov, wire.V30, exp.PiCosts(),
			core.WithEndpoint(adversary.WrapTap(ep, gatedTap{observer.Tap(pop), &armed})),
			core.WithRetry(core.DefaultRetry()), core.WithTelemetry(reg, nil))
	}

	crowd := make([]*core.Subject, subjects)
	for i := range crowd {
		sid, _, err := b.RegisterSubject(fmt.Sprintf("staff-%d", i), attr.MustSet("position=staff"))
		if err != nil {
			t.Fatal(err)
		}
		prov, err := b.ProvisionSubject(sid)
		if err != nil {
			t.Fatal(err)
		}
		ep := net.NewEndpoint()
		for _, o := range objNodes {
			net.Link(ep.Node(), o)
		}
		s := core.NewSubject(prov, wire.V30, exp.PhoneCosts(), core.WithEndpoint(ep),
			core.WithRetry(core.DefaultRetry()), core.WithTelemetry(reg, nil))
		seen := 0
		s.OnDiscovery = func(d core.Discovery) {
			if d.Level != backend.L2 {
				t.Errorf("non-fellow discovered %v at level %v", d.Object, d.Level)
			}
			if seen++; seen%(2*perWorld) == 0 {
				s.CompleteRound()
			}
		}
		crowd[i] = s
	}
	sweep := func() {
		for _, s := range crowd {
			if err := s.Discover(1); err != nil {
				t.Fatal(err)
			}
			net.Run(0)
		}
	}
	counter := func(name string, labels ...obs.Label) int64 {
		var total int64
	next:
		for _, m := range reg.Snapshot().Metrics {
			if m.Name != name {
				continue
			}
			for _, l := range labels {
				if m.Labels[l.Key] != l.Value {
					continue next
				}
			}
			total += int64(m.Value)
		}
		return total
	}

	sweep()
	signed := counter(obs.MCryptoOps, obs.L("role", "subject"), obs.L("op", "sign"))
	armed = true
	// The RES1 form is on the air for anyone to read; what it may tell is
	// whether the object knows the subject, never the object's level.
	type res1Shape struct {
		mode wire.ResponseMode
		size int
	}
	res1s := make(map[netsim.NodeID]map[res1Shape]int)
	net.Snoop(func(from, _ netsim.NodeID, p []byte) {
		if m, err := wire.Decode(p); err == nil {
			if r, ok := m.(*wire.RES1); ok {
				if res1s[from] == nil {
					res1s[from] = make(map[res1Shape]int)
				}
				res1s[from][res1Shape{r.Mode, len(p)}]++
			}
		}
	})
	for r := 0; r < rounds; r++ {
		sweep()
	}
	for _, o := range objNodes {
		if got := res1s[o]; len(got) != 1 || got[res1Shape{wire.ModeResume, 3 + 2 + suite.NonceSize}] != subjects*rounds {
			t.Fatalf("object %d answered known subjects with RES1s %v; every level must send the one short form, %d times", o, got, subjects*rounds)
		}
	}
	if got := counter(obs.MCryptoOps, obs.L("role", "subject"), obs.L("op", "sign")); got != signed {
		t.Fatalf("%d observed sessions were full handshakes; the population must be all resumed", got-signed)
	}
	if got := counter(obs.MResumptions, obs.L("side", "object"), obs.L("result", "resumed")); got != 2*perWorld*subjects*rounds {
		t.Fatalf("objects resumed %d sessions, want %d", got, 2*perWorld*subjects*rounds)
	}
	v := observer.Verdict()
	if !v.Evaluated {
		t.Fatalf("observer starved (%s): %s", leak, v)
	}
	return v
}

// TestObserverOverResumedSessions: Case 7 on resumed sessions. Everything
// downstream of K2 is the code a full handshake runs, and a Level 2 device
// runs the one fellowship trial its Level 3 neighbour runs (on a resumed
// session nothing else would hide the difference), so a Level 3 device's
// cover-up answers stay indistinguishable from a Level 2 device's when every
// sampled session is resumed — and the gate still has teeth there, on both
// channels.
func TestObserverOverResumedSessions(t *testing.T) {
	const alpha = 1e-3
	if v := resumedCrowd(t, ""); v.LengthD != 0 || !v.Pass(alpha) {
		t.Fatalf("resumed sessions fail the covertness gate: %s", v)
	}
	if v := resumedCrowd(t, "length"); v.LengthD != 1 || v.TimingP < alpha || v.Pass(alpha) {
		t.Fatalf("a 64-byte leak on resumed sessions must fail the gate, on length alone: %s", v)
	}
	if v := resumedCrowd(t, "timing"); v.LengthD != 0 || v.TimingP >= alpha || v.Pass(alpha) {
		t.Fatalf("a two-HMAC lag on resumed sessions must fail the gate, on timing alone: %s", v)
	}
}

// TestRebroadcastsTellNoLevel: when a subject sends QUE1 again is on the air
// for anyone to count, and since the decision reads its answer ledger it must
// read nothing there a level could colour. One fellow subject, ten rounds no
// harness ends, the second device's first QUE1 of round 3 lost: in a cell of
// two Level 2 devices and in one whose second device is Level 3, every round
// carries the same number of QUE1s — the blind rounds their chain, the lossy
// round its one timeout, the rest one each.
func TestRebroadcastsTellNoLevel(t *testing.T) {
	const rounds, lossy = 10, 3
	que1s := func(second backend.Level) []int {
		d, err := exp.Deploy(exp.DeployConfig{
			Levels: []backend.Level{backend.L2, second}, Seed: 1, Fellow: true, Retry: core.DefaultRetry(),
		})
		if err != nil {
			t.Fatal(err)
		}
		perRound, byRS := []int{}, map[string]int{}
		d.Net.Snoop(func(_, to netsim.NodeID, p []byte) {
			m, err := wire.Decode(p)
			if q, ok := m.(*wire.QUE1); err == nil && ok && to == d.ObjNode[0] {
				r, seen := byRS[string(q.RS)]
				if !seen {
					r = len(perRound)
					byRS[string(q.RS)] = r
					perRound = append(perRound, 0)
				}
				perRound[r]++
			}
		})
		d.Net.SetDropFilter(func(_, to netsim.NodeID, p []byte) bool {
			m, err := wire.Decode(p)
			_, que1 := m.(*wire.QUE1)
			return err == nil && que1 && to == d.ObjNode[1] && len(perRound) == lossy && perRound[lossy-1] == 1
		})
		for r := 1; r <= rounds; r++ {
			res, err := d.Run(1)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := res[len(res)-1], core.Level(second); len(res) != 2*r || got.Round != r || got.Level != want {
				t.Fatalf("second device at %v, round %d: %d discoveries, the last %+v", second, r, len(res), got)
			}
		}
		return perRound
	}
	plain, covert := que1s(backend.L2), que1s(backend.L3)
	if fmt.Sprint(plain) != fmt.Sprint(covert) {
		t.Fatalf("QUE1s per round differ with the second device's level:\n L2: %v\n L3: %v", plain, covert)
	}
	quiet, chains := 0, 0
	for r, n := range plain {
		switch {
		case n == 1:
			quiet++
		case n == 1+core.DefaultRetry().Que1Retries:
			chains++
		case r+1 != lossy || n != 2:
			t.Errorf("round %d carried %d QUE1s", r+1, n)
		}
	}
	if chains != 2 || quiet != rounds-3 {
		t.Errorf("QUE1s per round %v: want two blind rounds, one timeout in round %d and one QUE1 in every other", plain, lossy)
	}
}
