package exp

import (
	"fmt"
	"time"

	"argus/internal/abe"
	"argus/internal/backend"
	"argus/internal/baseline"
	"argus/internal/netsim"
	"argus/internal/pbc"
)

func init() {
	register("comparison", runComparison)
}

// runComparison is the paper's headline end-to-end claim (§IX): discovering
// the same set of objects under Argus versus the ABE and PBC alternatives,
// all on the same simulated testbed. Argus runs with costs calibrated to the
// paper's phone/Pi; the baselines run their real pairing cryptography with
// measured cost charged to the virtual clock (our big.Int BN254 is
// comparable in speed to the paper's jPBC).
func runComparison(quick bool) (*Result, error) {
	n := 3
	if quick {
		n = 2
	}
	res := &Result{
		ID:      "comparison",
		Title:   fmt.Sprintf("End-to-end discovery of %d objects: Argus vs ABE (L2) vs PBC (L3)", n),
		Paper:   "Argus needs ~105 ms of computation per discovery while ABE and PBC cost at least 10x (§IX)",
		Columns: []string{"scheme", "level", "discovered", "completion"},
	}

	// --- Argus Level 2 and Level 3 (calibrated testbed costs) ---
	for _, level := range []backend.Level{backend.L2, backend.L3} {
		got, at, _, err := completionTime(DeployConfig{
			Levels:       uniformLevels(level, n),
			SubjectCosts: PhoneCosts(),
			ObjectCosts:  PiCosts(),
			Fellow:       true,
			Seed:         5,
		}, 1)
		if err != nil {
			return nil, err
		}
		res.AddRow("Argus", level.String(), fmt.Sprintf("%d/%d", got, n), fmtDur(at))
	}

	// --- ABE-based Level 2 discovery (real decryption, 2 attributes) ---
	pk, mk, err := abe.Setup()
	if err != nil {
		return nil, err
	}
	net := netsim.New(netsim.DefaultWiFi(), 5)
	sk, err := abe.KeyGen(pk, mk, []string{"position:staff", "department:X"})
	if err != nil {
		return nil, err
	}
	asubj := &baseline.ABESubject{PK: pk, SK: sk}
	sep := net.NewEndpoint()
	asubj.Bind(sep)
	policy := abe.And(abe.Leaf("position:staff"), abe.Leaf("department:X"))
	for i := 0; i < n; i++ {
		v, err := baseline.EncryptVariant(pk, policy, []byte(fmt.Sprintf("profile-%d", i)))
		if err != nil {
			return nil, err
		}
		oep := net.NewEndpoint()
		(&baseline.ABEObject{Variants: []baseline.ABEVariant{v}}).Bind(oep)
		net.Link(sep.Node(), oep.Node())
	}
	asubj.Discover(1)
	net.Run(0)
	var abeLast time.Duration
	for _, r := range asubj.Results {
		if r.At > abeLast {
			abeLast = r.At
		}
	}
	res.AddRow("ABE (BSW07)", "Level 2", fmt.Sprintf("%d/%d", len(asubj.Results), n), fmtDur(abeLast))

	// --- PBC-based Level 3 discovery (real pairings) ---
	auth, err := pbc.NewAuthority()
	if err != nil {
		return nil, err
	}
	pnet := netsim.New(netsim.DefaultWiFi(), 5)
	var candidates []string
	for i := 0; i < n; i++ {
		candidates = append(candidates, fmt.Sprintf("kiosk-%d", i))
	}
	psubj := &baseline.PBCSubject{Cred: auth.Issue("subject"), Candidates: candidates}
	pep := pnet.NewEndpoint()
	psubj.Bind(pep)
	for _, cand := range candidates {
		oep := pnet.NewEndpoint()
		(&baseline.PBCObject{Cred: auth.Issue(cand), Profile: []byte("covert-" + cand)}).Bind(oep)
		pnet.Link(pep.Node(), oep.Node())
	}
	if err := psubj.Discover(1); err != nil {
		return nil, err
	}
	pnet.Run(0)
	var pbcLast time.Duration
	for _, r := range psubj.Results {
		if r.At > pbcLast {
			pbcLast = r.At
		}
	}
	res.AddRow("PBC (SOK)", "Level 3", fmt.Sprintf("%d/%d", len(psubj.Results), n), fmtDur(pbcLast))

	if len(asubj.Results) != n || len(psubj.Results) != n {
		return nil, fmt.Errorf("comparison: baselines incomplete (%d, %d of %d)",
			len(asubj.Results), len(psubj.Results), n)
	}
	res.Notes = append(res.Notes,
		"Argus rows use calibrated 2019-testbed costs; baseline rows run real BN254 pairings with measured cost on the virtual clock — the ≥10x gap of §IX is structural and holds under either accounting")
	return res, nil
}
