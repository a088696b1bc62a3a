package main

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"time"

	"argus/internal/attr"
	"argus/internal/backend"
	"argus/internal/cert"
	"argus/internal/obs"
	"argus/internal/suite"
	"argus/internal/transport"
	"argus/internal/wire"
)

// Micro figures: medians of at least 1000 timed calls into a layer's exported
// functions, with inputs captured from the workload — the fleet's own
// certificates and profiles, and the first frame of each wire type that
// crossed an endpoint wrapper.

// microInputs is what the workload hands the micro-benchmarks.
type microInputs struct {
	subject *backend.SubjectProvision
	object  *backend.ObjectProvision // an L2 object: it holds a PROF variant
	frames  [msgKinds][]byte         // indexed by msg kind; nil if never seen
}

const microCalls = 1000

// timeCalls returns the median cost of one fn call in ns and the number of
// calls timed. Calls shorter than the clock can resolve are timed in batches,
// sized so that one batch takes at least 20 µs.
func timeCalls(fn func()) (ns float64, calls int) {
	batch := 1
	for ; batch < 1<<14; batch *= 4 {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		if time.Since(t0) >= 20*time.Microsecond {
			break
		}
	}
	batches := max(microCalls/batch, 25)
	per := make([]float64, batches)
	for b := range per {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		per[b] = float64(time.Since(t0)) / float64(batch)
	}
	return median(per), batches * batch
}

// allocsPerCall is the mean number of heap allocations of one fn call.
func allocsPerCall(fn func()) float64 {
	var a, b runtime.MemStats
	fn()
	runtime.ReadMemStats(&a)
	for i := 0; i < microCalls; i++ {
		fn()
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / microCalls
}

// pingPong measures one frame a → b through real endpoints: the median of
// half a round trip, which includes waking the receiver's event loop.
func pingPong(a, b transport.Endpoint, payload []byte) float64 {
	pong := make(chan struct{}, 1) // one frame is in flight at a time
	a.Bind(transport.HandlerFunc(func(transport.Addr, []byte) { pong <- struct{}{} }))
	b.Bind(transport.HandlerFunc(func(from transport.Addr, p []byte) { b.Send(from, p) }))
	rtt := make([]float64, microCalls)
	for i := range rtt {
		t0 := time.Now()
		a.Send(b.Addr(), payload)
		select {
		case <-pong:
		case <-time.After(time.Second):
			return 0 // loopback dropped the datagram; the figure is omitted
		}
		rtt[i] = float64(time.Since(t0)) / 2
	}
	return median(rtt)
}

func mustNot(err error) {
	if err != nil {
		panic(fmt.Sprintf("micro-benchmark fixture: %v", err))
	}
}

// runMicro returns the per-layer micro figures by metric name.
func runMicro(in microInputs) map[string]windowed {
	out := make(map[string]windowed)
	put := func(name, unit string, fn func()) {
		v, n := timeCalls(fn)
		if unit == "us" {
			v /= 1e3
		}
		out[name] = scalar(unit, v, n)
	}
	const s = suite.S128
	now := time.Now()

	// suite — the crypto floor.
	msg := in.frames[msgQUE2]
	key := in.subject.Key
	sig, err := key.Sign(msg)
	mustNot(err)
	pub := key.Public()
	put("suite.sign_ns", "ns", func() { _, _ = key.Sign(msg) })
	put("suite.verify_ns", "ns", func() { pub.Verify(msg, sig) })
	put("suite.kex_gen_ns", "ns", func() { _, _ = suite.NewKeyExchange(s, nil) })
	kexA, err := suite.NewKeyExchange(s, nil)
	mustNot(err)
	kexB, err := suite.NewKeyExchange(s, nil)
	mustNot(err)
	peer := kexB.Public()
	put("suite.kex_shared_ns", "ns", func() { _, _ = kexA.Shared(peer) })
	preK, err := kexA.Shared(peer)
	mustNot(err)
	rs, _ := suite.NewNonce(nil)
	ro, _ := suite.NewNonce(nil)
	put("suite.prf_ns", "ns", func() { suite.SessionKey2(preK, rs, ro) })
	k2 := suite.SessionKey2(preK, rs, ro)
	th := sha256.Sum256(msg)
	put("suite.mac_ns", "ns", func() { suite.FinishedMAC(k2, suite.LabelObjectFinished, th) })
	plain := in.object.Variants[0].Profile.Encode()
	put("suite.encrypt_profile_ns", "ns", func() { _, _ = suite.EncryptProfile(k2, plain, nil) })
	ct, err := suite.EncryptProfile(k2, plain, nil)
	mustNot(err)
	put("suite.decrypt_profile_ns", "ns", func() { _, _ = suite.DecryptProfile(k2, ct) })
	items := make([]suite.VerifyItem, 8)
	for i := range items {
		m := append([]byte{byte(i)}, msg...)
		sg, err := key.Sign(m)
		mustNot(err)
		items[i] = suite.VerifyItem{Key: pub, Msg: m, Sig: sg}
	}
	ns, n := timeCalls(func() { suite.BatchVerify(items) })
	out["suite.batch_verify_ns_per_sig"] = scalar("ns", ns/float64(len(items)), n*len(items))

	// cert — hit and miss through a real VerifyCache: a cache of one entry
	// alternating two credentials never hits, a default one always does.
	root := in.subject.CACert
	certs := [2][]byte{in.subject.CertDER, in.object.CertDER}
	profs := [2]*cert.Profile{in.subject.Profile, in.object.Variants[0].Profile}
	raws := [2][]byte{profs[0].Encode(), profs[1].Encode()}
	adminPub := in.subject.AdminPub
	i := 0
	missC, missP := cert.NewVerifyCache(1), cert.NewVerifyCache(1)
	hit := cert.NewVerifyCache(0)
	put("cert.verify_cert_miss_ns", "ns", func() { i++; _, _ = missC.VerifyCert(root, certs[i&1], s) })
	put("cert.verify_cert_hit_ns", "ns", func() { _, _ = hit.VerifyCert(root, certs[0], s) })
	put("cert.verify_prof_miss_ns", "ns", func() { i++; _ = missP.VerifyProfileAnchored(profs[i&1], raws[i&1], root, adminPub, now) })
	put("cert.verify_prof_hit_ns", "ns", func() { _ = hit.VerifyProfileAnchored(profs[0], raws[0], root, adminPub, now) })
	admin, err := cert.NewAdmin(s, "micro admin")
	mustNot(err)
	put("cert.issue_chain_ns", "ns", func() {
		_, _ = admin.IssueCertChain(in.subject.ID, in.subject.Name, cert.RoleSubject, pub)
	})

	// wire — each of the four messages as it crossed the fleet.
	for _, k := range wireKinds {
		raw, name := in.frames[k], msgNames[k]
		m, err := wire.Decode(raw)
		mustNot(err)
		put("wire.encode_ns."+name, "ns", func() { m.Encode() })
		put("wire.decode_ns."+name, "ns", func() { _, _ = wire.Decode(raw) })
		out["wire.decode_allocs."+name] = scalar("count", allocsPerCall(func() { _, _ = wire.Decode(raw) }), microCalls)
		out["wire.size_bytes."+name] = scalar("B", float64(len(raw)), 1)
	}

	// transport — one frame through a two-node Mesh, and through two UDP
	// sockets on the host's loopback interface (no frame crosses a real link).
	mesh := transport.NewMesh()
	out["transport.mesh_frame_ns"] = scalar("ns", pingPong(mesh.Join(), mesh.Join(), msg), microCalls)
	mesh.Close()
	out["transport.udp_frame_ns"] = scalar("ns", udpFrame(msg), microCalls)

	// obs.
	reg := obs.NewRegistry()
	ctr := reg.Counter("bench_counter_total", "micro")
	hist := reg.Histogram("bench_seconds", "micro", obs.LatencyBuckets())
	put("obs.counter_inc_ns", "ns", func() { ctr.Inc() })
	put("obs.histogram_observe_ns", "ns", func() { hist.Observe(0.0013) })

	// backend — on a scratch enterprise of the fleet's shape: one policy, one
	// covert group, an L3 object serving it.
	b, err := backend.New(s)
	mustNot(err)
	_, _, err = b.AddPolicy(attr.MustParse("position=='staff'"), attr.MustParse("type=='device'"), []string{"use"})
	mustNot(err)
	grp, err := b.Groups.CreateGroup("micro")
	mustNot(err)
	oid, _, err := b.RegisterObject("o", backend.L3, attr.MustSet("type=device"), []string{"use"})
	mustNot(err)
	mustNot(b.AddCovertService(oid, grp.ID(), []string{"use", "covert"}))
	var ids []cert.ID
	staff := attr.MustSet("position=staff")
	put("backend.register_subject_us", "us", func() {
		id, _, err := b.RegisterSubject(fmt.Sprintf("s-%d", len(ids)), staff)
		mustNot(err)
		ids = append(ids, id)
	})
	for _, id := range ids[:subjectsPerCell] {
		mustNot(b.AddSubjectToGroup(id, grp.ID()))
	}
	put("backend.provision_subject_us", "us", func() { i++; _, _ = b.ProvisionSubject(ids[i%subjectsPerCell]) })
	put("backend.provision_object_us", "us", func() { _, _ = b.ProvisionObject(oid) })
	return out
}

func udpFrame(payload []byte) float64 {
	a, err := transport.ListenUDP(transport.UDPConfig{Listen: "127.0.0.1:0"})
	if err != nil {
		return 0
	}
	defer a.Close()
	b, err := transport.ListenUDP(transport.UDPConfig{Listen: "127.0.0.1:0"})
	if err != nil {
		return 0
	}
	defer b.Close()
	return pingPong(a, b, payload)
}

// computeBudget is the per-layer account of one session's CPU: count per
// session × micro unit cost, summed over suite, cert, wire, transport and obs,
// to set beside the measured CPU per session of the same phase. What it
// leaves unexplained is what the layers' exported functions do not do:
// core's own bookkeeping, timers, the scheduler and the garbage collector.
// The counts c are those of `sessions` completed sessions.
func computeBudget(c counters, sessions float64, micro map[string]windowed) (rows map[string]float64, explainedUS float64) {
	u := func(name string) float64 { return micro[name].Value } // ns
	perSessionUS := func(ns float64) float64 { return ns / sessions / 1e3 }
	ops := func(op string) float64 { return c.family(obs.MCryptoOps, obs.L("op", op)) }
	cache := func(kind, result string) float64 {
		return c.family(obs.MVerifyCacheEvents, obs.L("kind", kind), obs.L("result", result))
	}
	rows = make(map[string]float64)
	// argus_crypto_ops_total counts the modelled verifications: credential
	// checks (which the cache may absorb) and per-session signature checks
	// alike. The caches' own counters say how many were credential lookups.
	rawVerifies := max(ops("verify")-float64(c.hits+c.misses), 0)
	rows["suite"] = perSessionUS(ops("sign")*u("suite.sign_ns") + rawVerifies*u("suite.verify_ns") +
		ops("kex_gen")*u("suite.kex_gen_ns") + ops("kex_shared")*u("suite.kex_shared_ns") +
		ops("hmac")*u("suite.mac_ns") +
		ops("cipher")*(u("suite.encrypt_profile_ns")+u("suite.decrypt_profile_ns"))/2)
	rows["cert"] = perSessionUS(cache("cert", "hit")*u("cert.verify_cert_hit_ns") + cache("cert", "miss")*u("cert.verify_cert_miss_ns") +
		cache("prof", "hit")*u("cert.verify_prof_hit_ns") + cache("prof", "miss")*u("cert.verify_prof_miss_ns"))
	for _, k := range wireKinds {
		rows["wire"] += perSessionUS(float64(c.tap.sent[k])*u("wire.encode_ns."+msgNames[k]) +
			float64(c.tap.delivered[k])*u("wire.decode_ns."+msgNames[k]))
	}
	rows["transport"] = perSessionUS(float64(c.tap.deliveries) * u("transport.mesh_frame_ns"))
	var counterAdds, observes float64
	for _, m := range c.reg.Metrics {
		switch m.Type {
		case "counter":
			counterAdds += m.Value // Add(n) counts as n updates: an upper estimate
		case "histogram":
			observes += float64(m.Count)
		}
	}
	rows["obs"] = perSessionUS(counterAdds*u("obs.counter_inc_ns") + observes*u("obs.histogram_observe_ns"))
	for _, v := range rows {
		explainedUS += v
	}
	return rows, explainedUS
}
