package exp

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"argus/internal/backend"
	"argus/internal/core"
	"argus/internal/obs"
	"argus/internal/suite"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"ablation-crowd", "ablation-groups", "ablation-radio", "ablation-rsa",
		"ablation-strength", "ablation-versions", "comparison",
		"fig6a", "fig6b", "fig6c", "fig6d", "fig6e", "fig6f", "fig6g", "fig6h",
		"msgsize", "propagation", "table1",
	}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("registered experiments = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("registered experiments = %v, want %v", got, want)
		}
	}
}

func TestCalibratedCostsMatchPaper(t *testing.T) {
	// Fig 6b anchor points at 128-bit.
	phone, pi := PhoneCosts(), PiCosts()
	l1 := SubjectComputeLevel1(phone)
	if l1 != 5100*time.Microsecond {
		t.Errorf("L1 subject compute = %v, want 5.1 ms", l1)
	}
	l23s := SubjectComputeLevel23(phone)
	if l23s < 26*time.Millisecond || l23s > 29*time.Millisecond {
		t.Errorf("L2/3 subject compute = %v, want ≈27.4 ms", l23s)
	}
	l23o := ObjectComputeLevel23(pi)
	if l23o < 74*time.Millisecond || l23o > 83*time.Millisecond {
		t.Errorf("L2/3 object compute = %v, want ≈78.2 ms", l23o)
	}
}

// TestFig6FormulasPriceTheEngines pins the Fig 6 formulas to the engines: on
// one v3.0 first-contact discovery per level, the ops each role counts, priced
// at its cost table, are what SubjectComputeLevel1, SubjectComputeLevel23 and
// ObjectComputeLevel23 say a discovery costs it. A Level 2 object does the
// Level 3 object's work less one group trial (ObjectComputeLevel23).
func TestFig6FormulasPriceTheEngines(t *testing.T) {
	phone, pi := PhoneCosts(), PiCosts()
	rows := []struct {
		level           backend.Level
		subject, object time.Duration
	}{
		{backend.L1, SubjectComputeLevel1(phone), 0},
		{backend.L2, SubjectComputeLevel23(phone), ObjectComputeLevel23(pi) - 2*pi.HMAC},
		{backend.L3, SubjectComputeLevel23(phone), ObjectComputeLevel23(pi)},
	}
	for _, r := range rows {
		reg := obs.NewRegistry()
		d, err := Deploy(DeployConfig{
			Levels:       []backend.Level{r.level},
			SubjectCosts: phone,
			ObjectCosts:  pi,
			Fellow:       r.level == backend.L3,
			Seed:         1,
			Registry:     reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := d.Run(1)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 1 || res[0].Level != r.level {
			t.Fatalf("level %d cell: discoveries %+v, want one at its level", r.level, res)
		}
		snap := reg.Snapshot()
		price := func(role string, c core.Costs) time.Duration {
			var sum time.Duration
			for op, cost := range map[string]time.Duration{
				"sign": c.Sign, "verify": c.Verify, "kex_gen": c.KexGen,
				"kex_shared": c.KexShared, "hmac": c.HMAC, "cipher": c.Cipher,
			} {
				if m := snap.Get(obs.MCryptoOps, obs.L("role", role), obs.L("op", op)); m != nil {
					sum += time.Duration(m.Value) * cost
				}
			}
			return sum
		}
		if got := price("subject", phone); got != r.subject {
			t.Errorf("level %d: the subject's counted ops cost %v, the formula says %v", r.level, got, r.subject)
		}
		if got := price("object", pi); got != r.object {
			t.Errorf("level %d: the object's counted ops cost %v, the formula says %v", r.level, got, r.object)
		}
	}
}

func TestMeasuredCosts(t *testing.T) {
	c, err := MeasuredCosts(suite.S128, 20)
	if err != nil {
		t.Fatal(err)
	}
	if c.Sign <= 0 || c.Verify <= 0 || c.KexGen <= 0 || c.KexShared <= 0 || c.HMAC <= 0 || c.Cipher <= 0 {
		t.Fatalf("non-positive measured cost: %+v", c)
	}
	// Public-key operations cost more than symmetric ones (loose factor —
	// single-digit-µs measurements are noisy under CI scheduling).
	if c.Sign < 2*c.HMAC {
		t.Errorf("sign (%v) should be well above HMAC (%v)", c.Sign, c.HMAC)
	}
}

func TestDeployBuildsRequestedTopology(t *testing.T) {
	d, err := Deploy(DeployConfig{
		Levels: []backend.Level{backend.L1, backend.L2, backend.L3, backend.L2},
		HopOf:  []int{1, 2, 3, 1},
		Fellow: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	wantHops := []int{1, 2, 3, 1}
	for i, n := range d.ObjNode {
		if got := d.Net.HopDistance(d.SubjNode, n); got != wantHops[i] {
			t.Errorf("object %d at %d hops, want %d", i, got, wantHops[i])
		}
	}
	res, err := d.Run(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 {
		t.Fatalf("discovered %d, want 4", len(res))
	}
}

func TestTable1Experiment(t *testing.T) {
	r, err := runTable1(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// Argus add-subject cell must be 1, ID-ACL must be N.
	if !strings.Contains(r.Rows[2][3], "= 1") {
		t.Errorf("Argus add-subject = %q", r.Rows[2][3])
	}
	if !strings.Contains(r.Rows[0][3], "= 1000") {
		t.Errorf("ID-ACL add-subject = %q", r.Rows[0][3])
	}
}

func TestMsgSizeExperiment(t *testing.T) {
	r, err := runMsgSize(true)
	if err != nil {
		t.Fatal(err)
	}
	get := func(level, msg string) int {
		for _, row := range r.Rows {
			if row[0] == level && row[1] == msg {
				v, _ := strconv.Atoi(row[2])
				return v
			}
		}
		t.Fatalf("row %s/%s missing", level, msg)
		return 0
	}
	// §IX-A shape: measured sizes within 15% of the paper's accounting
	// (framing and CBC padding explain the delta).
	checks := []struct {
		level, msg string
		paper      int
	}{
		{"L1", "QUE1", 28}, {"L1", "RES1", 200},
		{"L2/3", "RES1", 772}, {"L2/3", "QUE2", 1008}, {"L2/3", "RES2", 280}, {"L2/3", "total", 2088},
	}
	for _, c := range checks {
		got := get(c.level, c.msg)
		lo, hi := c.paper*70/100, c.paper*140/100
		if got < lo || got > hi {
			t.Errorf("%s %s = %d B, paper %d B (outside [%d,%d])", c.level, c.msg, got, c.paper, lo, hi)
		}
	}
	// Level 2/3 exchange is an order of magnitude heavier than Level 1.
	if get("L2/3", "total") < 5*get("L1", "total") {
		t.Error("L2/3 total should far exceed L1 total")
	}
}

func TestFig6bExperiment(t *testing.T) {
	r, err := runFig6b(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
}

func parseDur(t *testing.T, s string) time.Duration {
	t.Helper()
	fields := strings.Fields(s)
	if len(fields) != 2 && s != "0" {
		t.Fatalf("bad duration cell %q", s)
	}
	if s == "0" {
		return 0
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		t.Fatalf("bad duration cell %q", s)
	}
	switch fields[1] {
	case "µs":
		return time.Duration(v * float64(time.Microsecond))
	case "ms":
		return time.Duration(v * float64(time.Millisecond))
	case "s":
		return time.Duration(v * float64(time.Second))
	}
	t.Fatalf("bad unit in %q", s)
	return 0
}

func TestFig6eShape(t *testing.T) {
	r, err := runFig6e(true)
	if err != nil {
		t.Fatal(err)
	}
	// Quick mode: rows for 5 and 20 objects.
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		l1 := parseDur(t, row[1])
		l2 := parseDur(t, row[2])
		l3 := parseDur(t, row[3])
		// L1 is the cheapest (2-way vs 4-way).
		if l1 >= l2 {
			t.Errorf("n=%s: L1 (%v) not cheaper than L2 (%v)", row[0], l1, l2)
		}
		// L2 and L3 overlap (indistinguishable cost): within 2%.
		diff := float64(absDur(l2 - l3))
		if diff/float64(l2) > 0.02 {
			t.Errorf("n=%s: L2/L3 curves diverge: %v vs %v", row[0], l2, l3)
		}
	}
	// Time grows with object count.
	if parseDur(t, r.Rows[0][2]) >= parseDur(t, r.Rows[1][2]) {
		t.Error("discovery time does not grow with object count")
	}
	// 20-object headline numbers within 2x of the paper.
	l1 := parseDur(t, r.Rows[1][1])
	l2 := parseDur(t, r.Rows[1][2])
	if l1 < 125*time.Millisecond || l1 > 500*time.Millisecond {
		t.Errorf("20-object L1 = %v, paper 0.25 s (want within 2x)", l1)
	}
	if l2 < 315*time.Millisecond || l2 > 1260*time.Millisecond {
		t.Errorf("20-object L2 = %v, paper 0.63 s (want within 2x)", l2)
	}
}

func TestFig6fShape(t *testing.T) {
	r, err := runFig6f(true)
	if err != nil {
		t.Fatal(err)
	}
	share := func(row []string) float64 {
		v, err := strconv.ParseFloat(strings.TrimSuffix(row[4], "%"), 64)
		if err != nil {
			t.Fatalf("bad share %q", row[4])
		}
		return v
	}
	// L1 is transmission-dominated; L2/3 much less so (Fig 6f: 89% vs 45%).
	if share(r.Rows[0]) <= share(r.Rows[1]) {
		t.Errorf("L1 transmission share (%v%%) should exceed L2's (%v%%)", share(r.Rows[0]), share(r.Rows[1]))
	}
	if share(r.Rows[0]) < 75 {
		t.Errorf("L1 transmission share = %v%%, paper ≈89%%", share(r.Rows[0]))
	}
	// One L2/3 discovery lands near the paper's 0.32 s.
	total := parseDur(t, r.Rows[1][1])
	if total < 160*time.Millisecond || total > 640*time.Millisecond {
		t.Errorf("single L2 discovery = %v, paper 0.32 s (want within 2x)", total)
	}
}

func TestFig6gShape(t *testing.T) {
	r, err := runFig6g(true)
	if err != nil {
		t.Fatal(err)
	}
	row := r.Rows[len(r.Rows)-1] // 20 objects
	l1 := parseDur(t, row[1])
	l2 := parseDur(t, row[2])
	if l1 >= l2 {
		t.Error("multi-hop L1 not cheaper than L2")
	}
	// Paper: 0.72 s and 1.15 s; accept within 2x.
	if l1 < 360*time.Millisecond/2 || l1 > 1440*time.Millisecond {
		t.Errorf("multi-hop L1 = %v, paper 0.72 s", l1)
	}
	if l2 < 575*time.Millisecond/2 || l2 > 2300*time.Millisecond {
		t.Errorf("multi-hop L2 = %v, paper 1.15 s", l2)
	}
}

func TestFig6hShape(t *testing.T) {
	r, err := runFig6h(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// Latency grows with hop count for every level.
	for col := 1; col <= 3; col++ {
		prev := time.Duration(0)
		for _, row := range r.Rows {
			cur := parseDur(t, row[col])
			if cur <= prev {
				t.Errorf("column %d not increasing with hops: %v after %v", col, cur, prev)
			}
			prev = cur
		}
	}
	// Roughly linear: 4-hop ≤ ~6x 1-hop for L1.
	h1 := parseDur(t, r.Rows[0][1])
	h4 := parseDur(t, r.Rows[3][1])
	if float64(h4)/float64(h1) > 6 {
		t.Errorf("L1 hop scaling %v → %v superlinear", h1, h4)
	}
}

func TestResultRendering(t *testing.T) {
	r := &Result{
		ID: "x", Title: "T", Paper: "P",
		Columns: []string{"a", "bb"},
		Notes:   []string{"n1"},
	}
	r.AddRow(1, "v")
	r.AddRow(2.5, core.L2.String())
	out := r.String()
	for _, want := range []string{"== x — T ==", "paper: P", "a", "bb", "2.50", "Level 2", "note: n1"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered result missing %q:\n%s", want, out)
		}
	}
}

func TestPropagationExperiment(t *testing.T) {
	r, err := runPropagation(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// Notifications equal N; propagation time grows with N.
	if r.Rows[0][1] != "5" || r.Rows[1][1] != "20" {
		t.Fatalf("notification counts = %v, %v", r.Rows[0][1], r.Rows[1][1])
	}
	if parseDur(t, r.Rows[0][2]) >= parseDur(t, r.Rows[1][2]) {
		t.Error("propagation time does not grow with N")
	}
}

func TestAblationVersionsExperiment(t *testing.T) {
	r, err := runAblationVersions(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 5 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	que2 := func(i int) int {
		v, err := strconv.Atoi(r.Rows[i][2])
		if err != nil {
			t.Fatalf("row %d QUE2 = %q", i, r.Rows[i][2])
		}
		return v
	}
	// v2.0: the fellow's QUE2 (row 2) is ~32 B longer than the plain
	// subject's (row 1) — the leak. Allow ±2 B for X.509 DER variance.
	delta := que2(2) - que2(1)
	if delta < 30 || delta > 36 {
		t.Errorf("v2.0 QUE2 delta = %d B, want ≈32+2 (MAC + length prefix)", delta)
	}
	// v3.0 rows (3 and 4) agree within DER variance.
	d30 := que2(4) - que2(3)
	if d30 < -2 || d30 > 2 {
		t.Errorf("v3.0 QUE2 lengths differ by %d B", d30)
	}
	// Outcomes: v2.0 plain subject fails, v3.0 plain subject succeeds as L2.
	if r.Rows[1][4] != "no discovery" {
		t.Errorf("v2.0 plain outcome = %q", r.Rows[1][4])
	}
	if r.Rows[3][4] != "discovered as Level 2" {
		t.Errorf("v3.0 plain outcome = %q", r.Rows[3][4])
	}
	if r.Rows[4][4] != "discovered as Level 3" {
		t.Errorf("v3.0 fellow outcome = %q", r.Rows[4][4])
	}
}

func TestAblationGroupsExperiment(t *testing.T) {
	r, err := runAblationGroups(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// Time grows with group count (linear rotation).
	if parseDur(t, r.Rows[0][3]) >= parseDur(t, r.Rows[1][3]) {
		t.Error("DiscoverAll time does not grow with group count")
	}
}

func TestResultMarkdown(t *testing.T) {
	r := &Result{ID: "x", Title: "T", Paper: "P", Columns: []string{"a", "b"}, Notes: []string{"n"}}
	r.AddRow(1, "v")
	md := r.Markdown()
	for _, want := range []string{"### x — T", "*paper: P*", "| a | b |", "| --- | --- |", "| 1 | v |", "> n"} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q:\n%s", want, md)
		}
	}
}

// TestMeasuredExperimentsQuick runs the experiments that execute real
// pairing cryptography, in quick mode. Skipped under -short.
func TestMeasuredExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("pairing-heavy experiments skipped in -short mode")
	}
	// Fig 6a: measured ECDSA/ECDH sweep.
	r, err := runFig6a(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("fig6a rows = %d", len(r.Rows))
	}

	// Fig 6c: ABE decryption, 2 attribute counts; time grows with attributes.
	r, err = runFig6c(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("fig6c rows = %d", len(r.Rows))
	}
	if parseDur(t, r.Rows[0][1]) >= parseDur(t, r.Rows[1][1]) {
		t.Error("ABE decryption not increasing with attribute count")
	}

	// Fig 6d: PBC pairing ≫ Argus's two HMACs.
	r, err = runFig6d(true)
	if err != nil {
		t.Fatal(err)
	}
	pairTime := parseDur(t, r.Rows[0][2])
	argusTime := parseDur(t, r.Rows[2][2])
	if pairTime < 100*argusTime {
		t.Errorf("pairing (%v) not ≫ Argus increment (%v)", pairTime, argusTime)
	}

	// RSA ablation: signing slower than ECDSA.
	r, err = runAblationRSA(true)
	if err != nil {
		t.Fatal(err)
	}
	if parseDur(t, r.Rows[1][1]) <= parseDur(t, r.Rows[0][1]) {
		t.Error("RSA signing not slower than ECDSA")
	}

	// Comparison: Argus beats both baselines end to end.
	r, err = runComparison(true)
	if err != nil {
		t.Fatal(err)
	}
	argusL2 := parseDur(t, r.Rows[0][3])
	abeT := parseDur(t, r.Rows[2][3])
	pbcT := parseDur(t, r.Rows[3][3])
	if abeT <= argusL2 {
		t.Errorf("ABE (%v) not slower than Argus (%v)", abeT, argusL2)
	}
	if pbcT <= argusL2 {
		t.Errorf("PBC (%v) not slower than Argus (%v)", pbcT, argusL2)
	}
}

func TestAblationCrowdExperiment(t *testing.T) {
	r, err := runAblationCrowd(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// More subjects → later completion, but sub-linear growth.
	t1 := parseDur(t, r.Rows[0][2])
	t4 := parseDur(t, r.Rows[1][2])
	if t4 <= t1 {
		t.Error("crowding does not increase completion time")
	}
	if t4 > 4*t1 {
		t.Errorf("crowding superlinear: 1 subject %v, 4 subjects %v", t1, t4)
	}
}

func TestAblationRadioExperiment(t *testing.T) {
	r, err := runAblationRadio(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	wifi := parseDur(t, r.Rows[0][2])
	ble := parseDur(t, r.Rows[1][2])
	bridged := parseDur(t, r.Rows[2][2])
	if ble <= wifi {
		t.Error("BLE not slower than WiFi")
	}
	if bridged <= wifi {
		t.Error("bridged path not slower than direct WiFi")
	}
}

func TestAblationStrengthExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("measured sweep skipped in -short mode")
	}
	r, err := runAblationStrength(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// 256-bit strength costs more end to end than 128-bit.
	if parseDur(t, r.Rows[1][2]) <= parseDur(t, r.Rows[0][2]) {
		t.Error("discovery at 256-bit not slower than at 128-bit")
	}
}
