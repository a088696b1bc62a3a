package core

import (
	"fmt"
	"testing"
	"time"

	"argus/internal/attr"
	"argus/internal/backend"
	"argus/internal/obs"
	"argus/internal/wire"
)

// mixedFixture builds a subject that discovers one object at each level: a
// Level 1 thermometer, a Level 2 printer and a Level 3 machine serving the
// subject's secret group. subjOpts and objOpts instrument the engines.
func mixedFixture(t *testing.T, subjOpts, objOpts []Option) *deployment {
	t.Helper()
	d := newDeployment(t)
	g, err := d.b.Groups.CreateGroup("covert")
	if err != nil {
		t.Fatal(err)
	}
	d.b.AddPolicy(attr.MustParse("position=='student'"), attr.MustParse("type=='printer'"), []string{"print"})
	d.b.AddPolicy(attr.MustParse("position=='student'"), attr.MustParse("type=='machine'"), []string{"buy"})
	sid, _, err := d.b.RegisterSubject("student", attr.MustSet("position=student"))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.b.AddSubjectToGroup(sid, g.ID()); err != nil {
		t.Fatal(err)
	}
	d.attachSubject(sid, wire.V30, subjOpts...)
	d.addObject("thermometer", L1, attr.MustSet("type=thermometer"), []string{"read"}, wire.V30, objOpts...)
	d.addObject("printer", L2, attr.MustSet("type=printer"), []string{"print"}, wire.V30, objOpts...)
	oid, _, err := d.b.RegisterObject("machine", L3, attr.MustSet("type=machine"), []string{"buy"})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.b.AddCovertService(oid, g.ID(), []string{"buy", "covert"}); err != nil {
		t.Fatal(err)
	}
	d.attachObject(oid, wire.V30, objOpts...)
	return d
}

// TestTracedSessionSpans: a traced run records, per discovery, one span per
// phase the session crossed, in wire order and back to back, with the
// detail "<version> peer=<object address>"; and the phase histograms hold
// exactly the spans' durations.
func TestTracedSessionSpans(t *testing.T) {
	reg, tr := obs.NewRegistry(), obs.NewTracer()
	d := mixedFixture(t, []Option{WithTelemetry(reg, tr)}, nil)
	res := d.run()
	if len(res) != 3 {
		t.Fatalf("discoveries = %d, want 3", len(res))
	}
	peers := make(map[string]Level)
	for _, r := range res {
		peers[fmt.Sprintf("%v peer=%s", wire.V30, r.Node)] = r.Level
	}

	bySession := make(map[uint64][]obs.Span)
	for _, sp := range tr.Spans() {
		bySession[sp.Session] = append(bySession[sp.Session], sp)
	}
	if len(bySession) != 3 {
		t.Fatalf("%d traced sessions, want 3", len(bySession))
	}
	type hkey struct {
		level int
		phase string
	}
	count := make(map[hkey]uint64)
	sum := make(map[hkey]time.Duration)
	for ses, spans := range bySession {
		level, ok := peers[spans[0].Detail]
		if !ok {
			t.Fatalf("session %d: detail %q names no discovered peer", ses, spans[0].Detail)
		}
		delete(peers, spans[0].Detail)
		want := []string{obs.PhaseQUE1, obs.PhaseRES1, obs.PhaseQUE2, obs.PhaseRES2}
		if level == L1 {
			want = []string{obs.PhaseQUE1, obs.PhaseRES2}
		}
		want = append(want, obs.PhaseAll)
		if len(spans) != len(want) {
			t.Fatalf("session %d (L%d): %d spans, want %d", ses, level, len(spans), len(want))
		}
		// Spans sort by start, so the total (starting with QUE1) may come
		// first or second; match by phase.
		byPhase := make(map[string]obs.Span)
		for _, sp := range spans {
			if sp.Name != "discover" || sp.Level != int(level) || sp.Detail != spans[0].Detail {
				t.Fatalf("session %d: span %+v", ses, sp)
			}
			byPhase[sp.Phase] = sp
			k := hkey{sp.Level, sp.Phase}
			count[k]++
			sum[k] += sp.Duration()
		}
		prev := byPhase[obs.PhaseQUE1]
		for _, ph := range want[1 : len(want)-1] {
			sp, ok := byPhase[ph]
			if !ok || sp.Start != prev.End {
				t.Fatalf("session %d: phase %s %+v does not follow %+v", ses, ph, sp, prev)
			}
			prev = sp
		}
		all := byPhase[obs.PhaseAll]
		if all.Start != byPhase[obs.PhaseQUE1].Start || all.End != prev.End {
			t.Fatalf("session %d: total %+v does not span its phases", ses, all)
		}
	}

	snap := reg.Snapshot()
	for k, n := range count {
		m := snap.Get(obs.MDiscoveryPhaseSeconds, obs.L("level", fmt.Sprint(k.level)), obs.L("phase", k.phase),
			obs.L("version", "v"+fmt.Sprint(int(wire.V30))))
		if m == nil || m.Count != n || time.Duration(m.Sum*float64(time.Second)).Round(time.Microsecond) != sum[k].Round(time.Microsecond) {
			t.Fatalf("histogram L%d/%s = %+v, want count %d sum %v", k.level, k.phase, m, n, sum[k])
		}
	}
}

// TestTelemetrySharedPerRegistry: the engines bound to one registry share one
// telemetry block (subjects per tracer and version), a second registry gets
// its own, a tracer alone still instruments, and WithTelemetry(nil, nil)
// leaves the engine detached.
func TestTelemetrySharedPerRegistry(t *testing.T) {
	reg, other, tr := obs.NewRegistry(), obs.NewRegistry(), obs.NewTracer()
	prov := provisionedSubject(t)
	subj := func(reg *obs.Registry, tr *obs.Tracer, v wire.Version) *subjectTelemetry {
		return NewSubject(prov, v, Costs{}, WithTelemetry(reg, tr)).tel
	}
	a := subj(reg, tr, wire.V30)
	switch {
	case a == nil:
		t.Fatal("subject not instrumented")
	case subj(reg, tr, wire.V30) != a:
		t.Fatal("two subjects on one registry hold different blocks")
	case subj(reg, nil, wire.V30) == a:
		t.Fatal("a subject without the tracer shares the traced block")
	case subj(reg, tr, wire.V20) == a:
		t.Fatal("a v2.0 subject shares the v3.0 block")
	case subj(other, tr, wire.V30) == a:
		t.Fatal("a second registry shares the first one's block")
	case subj(nil, tr, wire.V30) == nil:
		t.Fatal("a tracer alone must instrument the subject")
	case subj(nil, nil, wire.V30) != nil:
		t.Fatal("WithTelemetry(nil, nil) must leave the subject detached")
	}

	d := newDeployment(t)
	id, _, err := d.b.RegisterObject("lamp", L2, attr.MustSet("type=lamp"), []string{"on"})
	if err != nil {
		t.Fatal(err)
	}
	oprov, err := d.b.ProvisionObject(id)
	if err != nil {
		t.Fatal(err)
	}
	obj := func(reg *obs.Registry) *objectTelemetry {
		return NewObject(oprov, wire.V30, Costs{}, WithTelemetry(reg, tr)).tel
	}
	o := obj(reg)
	switch {
	case o == nil:
		t.Fatal("object not instrumented")
	case obj(reg) != o:
		t.Fatal("two objects on one registry hold different blocks")
	case obj(other) == o:
		t.Fatal("a second registry shares the first one's object block")
	case obj(nil) != nil:
		t.Fatal("WithTelemetry(nil, tracer) must leave the object detached")
	}
}

// provisionedSubject registers and provisions one subject on a fresh backend.
func provisionedSubject(t *testing.T) *backend.SubjectProvision {
	t.Helper()
	d := newDeployment(t)
	id, _, err := d.b.RegisterSubject("alice", attr.MustSet("position=staff"))
	if err != nil {
		t.Fatal(err)
	}
	p, err := d.b.ProvisionSubject(id)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestSharedTelemetryCountsLikePrivate: the counters of a run whose engines
// share their registry's blocks equal those of the same run with a private
// block per engine.
func TestSharedTelemetryCountsLikePrivate(t *testing.T) {
	counters := func(private bool) map[string]float64 {
		reg := obs.NewRegistry()
		d := mixedFixture(t, []Option{WithTelemetry(reg, nil), WithRetry(DefaultRetry())},
			[]Option{WithTelemetry(reg, nil), WithRetry(DefaultRetry())})
		if private {
			d.subject.tel = newSubjectTelemetry(reg, nil, wire.V30)
			d.subject.tally = &d.subject.tel.ops
			for _, o := range d.objects {
				o.tel = newObjectTelemetry(reg)
				o.tally = &o.tel.ops
			}
		} else if o := d.objects["printer"]; o.tel != d.objects["machine"].tel {
			t.Fatal("objects on one registry hold different blocks")
		}
		for round := 0; round < 3; round++ {
			d.run()
		}
		out := make(map[string]float64)
		for _, m := range reg.Snapshot().Metrics {
			if m.Type == "counter" {
				out[m.Name+obs.LabelString(labelsOf(m.Labels))] = m.Value
			}
		}
		return out
	}
	shared, private := counters(false), counters(true)
	if len(shared) == 0 {
		t.Fatal("no counters recorded")
	}
	for k, v := range private {
		if shared[k] != v {
			t.Errorf("%s: shared %v, private %v", k, shared[k], v)
		}
	}
	for k := range shared {
		if _, ok := private[k]; !ok {
			t.Errorf("%s: only in the shared run", k)
		}
	}
}

func labelsOf(m map[string]string) []obs.Label {
	out := make([]obs.Label, 0, len(m))
	for k, v := range m {
		out = append(out, obs.L(k, v))
	}
	return out
}
