package core

import (
	"sync"
	"testing"

	"argus/internal/attr"
	"argus/internal/cert"
	"argus/internal/netsim"
	"argus/internal/obs"
	"argus/internal/wire"
)

// attachSubjectWith / attachObjectWith are thin aliases kept from before the
// fixture itself grew an options parameter.
func (d *deployment) attachSubjectWith(id cert.ID, version wire.Version, opts ...Option) *Subject {
	return d.attachSubject(id, version, opts...)
}

func (d *deployment) attachObjectWith(id cert.ID, version wire.Version, opts ...Option) *Object {
	return d.attachObject(id, version, opts...)
}

// l2Fixture builds a one-subject/one-L2-object deployment whose engines share
// the given verification cache.
func l2Fixture(t *testing.T, vc *cert.VerifyCache) *deployment {
	d := newDeployment(t)
	d.b.AddPolicy(attr.MustParse("position=='staff'"),
		attr.MustParse("type=='printer'"), []string{"print"})
	sid, _, err := d.b.RegisterSubject("staff", attr.MustSet("position=staff"))
	if err != nil {
		t.Fatal(err)
	}
	oid, _, err := d.b.RegisterObject("printer", L2, attr.MustSet("type=printer"), []string{"print"})
	if err != nil {
		t.Fatal(err)
	}
	d.attachSubjectWith(sid, wire.V30, WithVerifyCache(vc))
	d.attachObjectWith(oid, wire.V30, WithVerifyCache(vc))
	return d
}

// TestWarmHandshakeZeroCredentialVerifies is the acceptance criterion: on a
// warm peer the Level 2/3 handshake performs zero ECDSA credential
// verifications — every lookup hits — asserted through the obs hit/miss
// counters. The cold round performs exactly the four the paper charges
// (CERT_O + PROF_O on the subject, CERT_S + PROF_S on the object).
func TestWarmHandshakeZeroCredentialVerifies(t *testing.T) {
	vc := cert.NewVerifyCache(0)
	reg := obs.NewRegistry()
	vc.Instrument(reg)
	d := l2Fixture(t, vc)

	events := func(kind, result string) int64 {
		return counterValue(t, reg, obs.MVerifyCacheEvents,
			obs.L("kind", kind), obs.L("result", result))
	}

	if res := d.run(); len(res) != 1 || res[0].Level != L2 {
		t.Fatalf("cold round results = %+v", res)
	}
	if cm, pm := events("cert", "miss"), events("prof", "miss"); cm != 2 || pm != 2 {
		t.Fatalf("cold round misses: cert=%d prof=%d, want 2+2", cm, pm)
	}
	if ch, ph := events("cert", "hit"), events("prof", "hit"); ch != 0 || ph != 0 {
		t.Fatalf("cold round hits: cert=%d prof=%d, want 0", ch, ph)
	}

	if res := d.run(); len(res) != 2 {
		t.Fatalf("warm round results = %+v", res)
	}
	if cm, pm := events("cert", "miss"), events("prof", "miss"); cm != 2 || pm != 2 {
		t.Fatalf("warm round added misses: cert=%d prof=%d, want 2+2 (zero new)", cm, pm)
	}
	if ch, ph := events("cert", "hit"), events("prof", "hit"); ch != 2 || ph != 2 {
		t.Fatalf("warm round hits: cert=%d prof=%d, want 2+2", ch, ph)
	}
}

// TestLevel3WarmHandshakeZeroCredentialVerifies covers the covert path too:
// the L3 fellow handshake has the same four credential checks, all warm on
// the second round.
func TestLevel3WarmHandshakeZeroCredentialVerifies(t *testing.T) {
	vc := cert.NewVerifyCache(0)
	d, _ := covertFixture(t, wire.V30, true)
	// covertFixture built engines without a cache; rebuild on the same
	// provisions via the deprecated setters' replacement is not possible, so
	// re-attach fresh engines sharing vc.
	d2 := newDeployment(t)
	d2.b = d.b
	sid := d.subject.ID()
	var oid cert.ID
	for _, o := range d.objects {
		oid = o.ID()
	}
	d2.attachSubjectWith(sid, wire.V30, WithVerifyCache(vc))
	d2.attachObjectWith(oid, wire.V30, WithVerifyCache(vc))

	if res := d2.run(); len(res) != 1 || res[0].Level != L3 {
		t.Fatalf("cold round results = %+v", res)
	}
	hits, misses, _ := vc.Stats()
	if hits != 0 || misses != 4 {
		t.Fatalf("cold round: hits=%d misses=%d, want 0/4", hits, misses)
	}
	if res := d2.run(); len(res) != 2 {
		t.Fatalf("warm round results = %+v", res)
	}
	hits, misses, _ = vc.Stats()
	if hits != 4 || misses != 4 {
		t.Fatalf("warm round: hits=%d misses=%d, want 4/4", hits, misses)
	}
}

// TestRevokedSubjectNotServedWarm: revocation must invalidate the revoked
// subject's warm entries — the next QUE2 re-verifies from scratch (and is
// then refused by the blacklist).
func TestRevokedSubjectNotServedWarm(t *testing.T) {
	vc := cert.NewVerifyCache(0)
	d := l2Fixture(t, vc)
	obj := d.objects["printer"]

	d.run()
	d.run()
	hits, misses, entries := vc.Stats()
	if hits != 4 || misses != 4 || entries != 4 {
		t.Fatalf("warm baseline: hits=%d misses=%d entries=%d", hits, misses, entries)
	}

	obj.Revoke(d.subject.ID())
	// The subject's CERT_S and PROF_S entries must be gone; the object's own
	// credentials (cached by the subject side) remain.
	if _, _, entries := vc.Stats(); entries != 2 {
		t.Fatalf("after Revoke: %d entries, want 2", entries)
	}

	before := len(d.subject.Results())
	d.run()
	if got := len(d.subject.Results()) - before; got != 0 {
		t.Fatalf("revoked subject discovered %d services", got)
	}
	// Round 3: subject-side CERT_O hit (+1); object-side CERT_S was
	// invalidated → real verification (+1 miss), then the blacklist rejects
	// before PROF_S is reached.
	hits2, misses2, _ := vc.Stats()
	if misses2 != misses+1 {
		t.Fatalf("revoked subject's CERT served warm: misses %d→%d", misses, misses2)
	}
	if hits2 != hits+1 {
		t.Fatalf("unexpected hit pattern after revoke: hits %d→%d", hits, hits2)
	}
}

// TestRefreshedCredentialNotServedWarm: a rotated (re-issued) credential must
// never be satisfied by the stale entry — content-addressed keying guarantees
// the new bytes miss and re-verify.
func TestRefreshedCredentialNotServedWarm(t *testing.T) {
	vc := cert.NewVerifyCache(0)
	d := l2Fixture(t, vc)

	d.run()
	d.run()
	_, misses, _ := vc.Stats()

	// Rotate the subject's PROF (attribute update bumps the profile serial and
	// re-signs) and refresh the subject engine with the new provision.
	if _, err := d.b.UpdateSubjectAttrs(d.subject.ID(), attr.MustSet("position=staff,floor=2")); err != nil {
		t.Fatal(err)
	}
	prov, err := d.b.ProvisionSubject(d.subject.ID())
	if err != nil {
		t.Fatal(err)
	}
	d.subject.Refresh(prov)

	before := len(d.subject.Results())
	d.run()
	if got := len(d.subject.Results()) - before; got != 1 {
		t.Fatalf("refreshed subject discovered %d services, want 1", got)
	}
	// The object re-verified the rotated PROF_S for real (+1 miss); nothing
	// served the old entry for new bytes.
	_, misses2, _ := vc.Stats()
	if misses2 != misses+1 {
		t.Fatalf("rotated PROF handling: misses %d→%d, want +1", misses, misses2)
	}
}

// TestRefreshAnchorChangeFlushesCache: re-provisioning against a different
// trust anchor (backend re-key) must drop every memoized result.
func TestRefreshAnchorChangeFlushesCache(t *testing.T) {
	vc := cert.NewVerifyCache(0)
	d := l2Fixture(t, vc)
	d.run()
	if vc.Len() == 0 {
		t.Fatal("cache empty after a round")
	}
	// Same-anchor refresh keeps the cache warm.
	prov, err := d.b.ProvisionSubject(d.subject.ID())
	if err != nil {
		t.Fatal(err)
	}
	d.subject.Refresh(prov)
	if vc.Len() == 0 {
		t.Fatal("same-anchor Refresh flushed the cache")
	}
	// A provision whose anchor differs flushes.
	rotated := *prov
	rotated.CACert = append([]byte(nil), prov.CACert...)
	rotated.CACert[len(rotated.CACert)-1] ^= 0xFF
	d.subject.Refresh(&rotated)
	if vc.Len() != 0 {
		t.Fatalf("anchor change left %d entries", vc.Len())
	}
}

// TestOptionsConfigureEngine: each functional option lands in the engine
// state it documents, and an optionless engine stays unbound with defaults.
func TestOptionsConfigureEngine(t *testing.T) {
	d := newDeployment(t)
	sid, _, err := d.b.RegisterSubject("s", attr.MustSet("position=staff"))
	if err != nil {
		t.Fatal(err)
	}
	oid, _, err := d.b.RegisterObject("o", L2, attr.MustSet("type=printer"), []string{"print"})
	if err != nil {
		t.Fatal(err)
	}
	sprov, err := d.b.ProvisionSubject(sid)
	if err != nil {
		t.Fatal(err)
	}
	oprov, err := d.b.ProvisionObject(oid)
	if err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	tr := obs.NewTracer()
	vc := cert.NewVerifyCache(0)
	rp := DefaultRetry()

	sep := d.net.NewEndpoint()
	s1 := NewSubject(sprov, wire.V30, Costs{},
		WithEndpoint(sep), WithRetry(rp), WithTelemetry(reg, tr), WithVerifyCache(vc))
	if s1.ep == nil || s1.ep.Addr() != sep.Addr() {
		t.Fatal("WithEndpoint did not bind the subject")
	}
	if s1.retry != rp {
		t.Fatalf("WithRetry not applied: %+v", s1.retry)
	}
	if s1.tel == nil {
		t.Fatal("WithTelemetry not applied to subject")
	}
	if s1.vcache != vc {
		t.Fatal("WithVerifyCache not applied")
	}

	oep := d.net.NewEndpoint()
	o1 := NewObject(oprov, wire.V30, Costs{},
		WithEndpoint(oep), WithRetry(rp), WithTelemetry(reg, nil), WithVerifyCache(vc))
	if o1.ep == nil || o1.ep.Addr() != oep.Addr() {
		t.Fatal("WithEndpoint did not bind the object")
	}
	if o1.retry != rp {
		t.Fatal("WithRetry not applied to object")
	}
	if o1.tel == nil {
		t.Fatal("WithTelemetry not applied to object")
	}
	if o1.vcache != vc {
		t.Fatal("WithVerifyCache not applied to object")
	}

	// Zero options leave the engine unbound in its default state.
	s3 := NewSubject(sprov, wire.V30, Costs{})
	if s3.ep != nil || s3.retry.Enabled() || s3.tel != nil || s3.vcache != nil {
		t.Fatal("optionless subject not in default state")
	}
}

// TestConcurrentResultsReaders enforces the core.go concurrency contract
// under -race: Results and PendingSessions may be polled from another
// goroutine (the telemetry HTTP handler) while the event loop mutates
// sessions and records discoveries.
func TestConcurrentResultsReaders(t *testing.T) {
	d := l2Fixture(t, nil)
	obj := d.objects["printer"]

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = d.subject.Results()
			_ = d.subject.PendingSessions()
			_ = obj.PendingSessions()
		}
	}()

	for i := 0; i < 50; i++ {
		if err := d.subject.Discover(1); err != nil {
			t.Fatal(err)
		}
		d.net.Run(0)
	}
	close(stop)
	wg.Wait()

	if got := len(d.subject.Results()); got != 50 {
		t.Fatalf("discoveries = %d, want 50", got)
	}
	if d.subject.PendingSessions() != 0 || obj.PendingSessions() != 0 {
		t.Fatalf("sessions leaked: subject=%d object=%d",
			d.subject.PendingSessions(), obj.PendingSessions())
	}
}

// TestDuplicateLevel1RES1PaysNoVerification: a probe-triggered duplicate of
// this round's plaintext RES1 is recognised before the PROF verification, not
// after it — on a cold cache that verification is a full ECDSA check whose
// result the dedupe then threw away.
func TestDuplicateLevel1RES1PaysNoVerification(t *testing.T) {
	d := newDeployment(t)
	air := &tap{}
	air.install(d.net)
	vc := cert.NewVerifyCache(1)
	d.addSubject("alice", attr.MustSet("position=visitor"), wire.V30, WithVerifyCache(vc))
	d.addObject("thermometer", L1, attr.MustSet("type=thermometer"), []string{"read"}, wire.V30)
	if got := len(d.run()); got != 1 {
		t.Fatalf("discoveries = %d, want 1", got)
	}
	lookups := func() int64 { h, m, _ := vc.Stats(); return h + m }
	if got := lookups(); got != 1 {
		t.Fatalf("first RES1 cost %d cache lookups, want 1", got)
	}
	res1 := air.byType(wire.TRES1)
	if len(res1) != 1 {
		t.Fatalf("captured %d RES1, want 1", len(res1))
	}
	for i := 0; i < 3; i++ {
		d.subject.Handle(netsim.AddrOf(res1[0].from), res1[0].payload)
	}
	d.net.Run(0)
	if got := lookups(); got != 1 {
		t.Errorf("three duplicate RES1s cost %d more cache lookups, want 0", got-1)
	}
	if got := len(d.subject.Results()); got != 1 {
		t.Errorf("duplicates recorded: %d discoveries, want 1", got)
	}
}
