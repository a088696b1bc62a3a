package exp

import (
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	"fmt"
	"time"

	"argus/internal/attr"
	"argus/internal/backend"
	"argus/internal/core"
	"argus/internal/netsim"
	"argus/internal/suite"
	"argus/internal/update"
	"argus/internal/wire"
)

func init() {
	register("propagation", runPropagation)
	register("ablation-rsa", runAblationRSA)
	register("ablation-versions", runAblationVersions)
	register("ablation-groups", runAblationGroups)
}

// runPropagation measures how long a revocation takes to *effectuate* across
// N objects when pushed over the ground network as signed notifications —
// the "immediately propagated and effectuated" requirement of §IV-A/§VIII
// turned into a latency curve.
func runPropagation(quick bool) (*Result, error) {
	res := &Result{
		ID:      "propagation",
		Title:   "Revocation effectuation latency vs N (extension experiment)",
		Paper:   "§VIII defines updating overhead as the notification count; this measures the on-air latency of those N notifications",
		Columns: []string{"N objects", "notifications", "propagation time", "per object"},
	}
	sizes := []int{5, 10, 20, 50}
	if quick {
		sizes = []int{5, 20}
	}
	for _, n := range sizes {
		b, err := backend.New(suite.S128)
		if err != nil {
			return nil, err
		}
		b.AddPolicy(attr.MustParse("position=='staff'"), attr.MustParse("type=='lock'"), []string{"open"})
		sid, _, err := b.RegisterSubject("alice", attr.MustSet("position=staff"))
		if err != nil {
			return nil, err
		}

		net := netsim.New(netsim.DefaultWiFi(), int64(n))
		dep := net.NewEndpoint()
		dist := update.NewDistributor(b.Admin(), dep)
		hub := net.AddNode()
		net.Link(dep.Node(), hub)

		effectuated := 0
		for i := 0; i < n; i++ {
			oid, _, err := b.RegisterObject(fmt.Sprintf("lock-%03d", i), backend.L2,
				attr.MustSet("type=lock"), []string{"open"})
			if err != nil {
				return nil, err
			}
			prov, err := b.ProvisionObject(oid)
			if err != nil {
				return nil, err
			}
			eng := core.NewObject(prov, wire.V30, PiCosts())
			agent := update.NewAgent(b.AdminPublic(), nil, func(u *update.Notification) {
				if u.Kind == update.KindRevokeSubject {
					eng.Revoke(u.Subject)
					effectuated++
				}
			})
			ep := net.NewEndpoint()
			eng.Bind(agent.Wrap(ep))
			net.Link(hub, ep.Node())
			dist.Register(oid, ep.Addr())
		}

		rep, err := b.RevokeSubject(sid)
		if err != nil {
			return nil, err
		}
		start := net.Now()
		if err := dist.RevokeSubject(sid, rep.NotifiedObjects); err != nil {
			return nil, err
		}
		net.Run(0)
		elapsed := net.Now() - start
		if effectuated != n {
			return nil, fmt.Errorf("propagation: effectuated %d/%d", effectuated, n)
		}
		res.AddRow(n, dist.Sent(), fmtDur(elapsed), fmtDur(elapsed/time.Duration(n)))
	}
	res.Notes = append(res.Notes,
		"notifications are admin-signed and sequence-numbered; objects verify before applying (internal/update)")
	return res, nil
}

// runAblationRSA substantiates the paper's §IX-B design choice: "ECDSA is
// preferred to RSA because the latter costs much longer (e.g., 18x for
// 128-bit strength)". RSA-3072 is the 128-bit-strength RSA parameter.
func runAblationRSA(quick bool) (*Result, error) {
	res := &Result{
		ID:      "ablation-rsa",
		Title:   "Design ablation: ECDSA P-256 vs RSA-3072 at 128-bit strength (measured)",
		Paper:   "RSA costs ~18x ECDSA for signing at 128-bit strength (§IX-B)",
		Columns: []string{"algorithm", "sign", "verify"},
	}
	iters := 5
	if quick {
		iters = 2
	}

	ec, err := MeasuredCosts(suite.S128, iters*4)
	if err != nil {
		return nil, err
	}
	res.AddRow("ECDSA P-256", fmtDur(ec.Sign), fmtDur(ec.Verify))

	rsaKey, err := rsa.GenerateKey(rand.Reader, 3072)
	if err != nil {
		return nil, err
	}
	digest := sha256.Sum256([]byte("argus"))
	var sig []byte
	start := time.Now()
	for i := 0; i < iters; i++ {
		sig, err = rsa.SignPKCS1v15(rand.Reader, rsaKey, 5 /*crypto.SHA256*/, digest[:])
		if err != nil {
			return nil, err
		}
	}
	rsaSign := time.Since(start) / time.Duration(iters)
	start = time.Now()
	for i := 0; i < iters*4; i++ {
		if err := rsa.VerifyPKCS1v15(&rsaKey.PublicKey, 5, digest[:], sig); err != nil {
			return nil, err
		}
	}
	rsaVerify := time.Since(start) / time.Duration(iters*4)
	res.AddRow("RSA-3072", fmtDur(rsaSign), fmtDur(rsaVerify))
	res.Notes = append(res.Notes, fmt.Sprintf(
		"RSA/ECDSA signing ratio on this host: %.0fx (paper: ~18x on the phone); RSA verification is cheap but Argus signs on both sides every discovery, so signing dominates",
		float64(rsaSign)/float64(ec.Sign)))
	return res, nil
}

// runAblationVersions quantifies §VI's "Overhead of Extensions": what each
// protocol iteration adds on the wire and in computation, and what it buys.
func runAblationVersions(bool) (*Result, error) {
	res := &Result{
		ID:      "ablation-versions",
		Title:   "Design ablation: per-version wire overhead of one Level 2/3 discovery",
		Paper:   "v2.0 adds one 32 B HMAC to QUE2 during L3 discovery; v3.0 makes it mandatory — constant shapes at +32 B for everyone (§VI)",
		Columns: []string{"version", "subject", "QUE2 B", "RES2 B", "outcome"},
	}
	type scenario struct {
		version wire.Version
		fellow  bool
		label   string
	}
	cases := []scenario{
		{wire.V10, false, "any (no L3 support)"},
		{wire.V20, false, "plain subject"},
		{wire.V20, true, "fellow (L3 discovery)"},
		{wire.V30, false, "plain subject (cover-up)"},
		{wire.V30, true, "fellow"},
	}
	for _, c := range cases {
		d, err := Deploy(DeployConfig{
			Levels:  uniformLevels(backend.L3, 1),
			Version: c.version,
			Fellow:  c.fellow,
			Seed:    11,
		})
		if err != nil {
			return nil, err
		}
		var que2, res2 int
		d.Net.Snoop(func(_, _ netsim.NodeID, p []byte) {
			if m, err := wire.Decode(p); err == nil {
				switch m.Type() {
				case wire.TQUE2:
					que2 = len(p)
				case wire.TRES2:
					res2 = len(p)
				}
			}
		})
		results, err := d.Run(1)
		if err != nil {
			return nil, err
		}
		outcome := "no discovery"
		if len(results) > 0 {
			outcome = fmt.Sprintf("discovered as %v", results[0].Level)
		}
		res.AddRow(c.version.String(), c.label, que2, res2, outcome)
	}
	res.Notes = append(res.Notes,
		"v2.0 rows differ by one 32 B MAC in QUE2 — the distinguishability leak; v3.0 rows have identical composition and both succeed (double-faced object). ±1 B across rows is X.509 DER length variance of the subject CERT, which is public identity data either way")
	return res, nil
}

// runAblationGroups measures §VI-C key rotation: a subject in k secret groups
// runs k discovery rounds (one MAC_{S,3} per round); total time grows
// linearly in k.
func runAblationGroups(quick bool) (*Result, error) {
	res := &Result{
		ID:      "ablation-groups",
		Title:   "Multi-group rotation: DiscoverAll time vs held group keys (§VI-C)",
		Paper:   "a subject uses her group keys in turns, one round per key, until all covert services are found",
		Columns: []string{"groups", "rounds", "covert found", "total time"},
	}
	counts := []int{1, 2, 3, 5}
	if quick {
		counts = []int{1, 3}
	}
	for _, k := range counts {
		b, err := backend.New(suite.S128)
		if err != nil {
			return nil, err
		}
		sid, _, err := b.RegisterSubject("multi", attr.MustSet("position=staff"))
		if err != nil {
			return nil, err
		}
		net := netsim.New(netsim.DefaultWiFi(), int64(k))
		var sn netsim.NodeID
		for i := 0; i < k; i++ {
			g, err := b.Groups.CreateGroup(fmt.Sprintf("group-%d", i))
			if err != nil {
				return nil, err
			}
			if err := b.AddSubjectToGroup(sid, g.ID()); err != nil {
				return nil, err
			}
			oid, _, err := b.RegisterObject(fmt.Sprintf("covert-%d", i), backend.L3,
				attr.MustSet("type=kiosk"), []string{"use"})
			if err != nil {
				return nil, err
			}
			if err := b.AddCovertService(oid, g.ID(), []string{"use", fmt.Sprintf("covert-%d", i)}); err != nil {
				return nil, err
			}
		}
		sprov, err := b.ProvisionSubject(sid)
		if err != nil {
			return nil, err
		}
		sep := net.NewEndpoint()
		sn = sep.Node()
		subj := core.NewSubject(sprov, wire.V30, PhoneCosts(), core.WithEndpoint(sep))
		for _, oid := range b.Objects() {
			rec, err := b.Object(oid)
			if err != nil || rec.Level != backend.L3 {
				continue
			}
			prov, err := b.ProvisionObject(oid)
			if err != nil {
				return nil, err
			}
			oep := net.NewEndpoint()
			core.NewObject(prov, wire.V30, PiCosts(), core.WithEndpoint(oep))
			net.Link(sn, oep.Node())
		}
		if err := subj.DiscoverAll(1, func() { net.Run(0) }); err != nil {
			return nil, err
		}
		covert := 0
		for _, r := range subj.Results() {
			if r.Level == backend.L3 {
				covert++
			}
		}
		if covert != k {
			return nil, fmt.Errorf("ablation-groups: found %d/%d covert services", covert, k)
		}
		res.AddRow(k, k, covert, fmtDur(net.Now()))
	}
	res.Notes = append(res.Notes,
		"rounds (and thus time) scale linearly with held keys — the cost of one-key-per-QUE2; the paper accepts this because subjects rarely hold more than a few sensitive attributes")
	return res, nil
}
