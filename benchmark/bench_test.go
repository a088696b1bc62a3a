package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"argus/internal/transport"
)

func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{0, 0}, {19, 0}, {20, 50}, {100, 90}, {160, 93}, {200, 95}, {1000, 99}, {1 << 20, 99},
	} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %d, want %d", c.n, got, c.want)
		}
	}
	// The rule itself: at the returned percentile at least ten samples lie
	// beyond, one percentile higher fewer than ten (below the p99 cap).
	for n := 20; n < 900; n += 7 {
		p := highestPercentile(n)
		beyond := func(p int) int { return n - int(math.Ceil(float64(p)/100*float64(n))) }
		if beyond(p) < minBeyond || beyond(p+1) >= minBeyond {
			t.Errorf("n=%d: p%d leaves %d beyond, p%d leaves %d", n, p, beyond(p), p+1, beyond(p+1))
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {95, 10}, {1, 1}, {99.9, 10}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if percentile(nil, 50) != 0 {
		t.Error("empty sample should give 0")
	}
}

func TestMedianAndSpread(t *testing.T) {
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := median([]float64{3.1, 3.0, 540, 3.2, 2.9}); got != 3.1 {
		t.Errorf("odd median = %v, want 3.1", got)
	}
	// Five set-ups of which one met a stall: the first quartile is the second
	// fastest, and the stall shows in the spread, not in the value.
	w := windowQuiet("s", []float64{0.81, 0.80, 5.4, 0.82, 0.79}, quietLower, 5)
	if w.Value != 0.80 {
		t.Errorf("first quartile = %v, want 0.80", w.Value)
	}
	if got, want := w.spread(), (5.4-0.79)/0.80; math.Abs(got-want) > 1e-9 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if got, want := w.resolution(), (0.81-0.79)/0.80; math.Abs(got-want) > 1e-9 {
		t.Errorf("resolution = %v, want %v", got, want)
	}
	if s := scalar("ms", 7, 1); s.spread() != 0 || s.resolution() != 0 || s.band() != nil {
		t.Errorf("a figure without windows has spread %v, resolution %v", s.spread(), s.resolution())
	}
}

func TestQuantileAndWindowQuiet(t *testing.T) {
	v := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.125, 1.5}, {-1, 1}, {2, 5}} {
		if got := quantile(v, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("empty sample should give 0")
	}
	// Forty windows of which a third were disturbed by the host, each by a
	// different amount: the good quartile stays with the undisturbed ones,
	// whichever direction is better.
	var lat, rate []float64
	for i := 0; i < 40; i++ {
		slow := 1.0
		if i%3 == 0 {
			slow = 1.5 + float64(i)
		}
		lat = append(lat, (1.60+0.001*float64(i%7))*slow)
		rate = append(rate, (4000+float64(i%7))/slow)
	}
	if got := windowQuiet("ms", lat, quietLower, 0); got.Value < 1.60 || got.Value > 1.607 || got.Quantile != quietLower {
		t.Errorf("quiet latency = %+v, want a value of the undisturbed windows", got.Value)
	}
	if got := windowQuiet("1/s", rate, quietUpper, 0).Value; got < 4000 || got > 4007 {
		t.Errorf("quiet rate = %v, want a value of the undisturbed windows", got)
	}
	// The band -compare looks at lies around the reported quartile and is
	// not widened by the disturbed windows.
	w := windowQuiet("ms", lat, quietLower, 0)
	if b := w.band(); b[0] > w.Value || b[len(b)-1] < w.Value || len(b) > len(lat)/3+2 {
		t.Errorf("band %v does not bracket %v tightly", b, w.Value)
	}
	if r := w.resolution(); r <= 0 || r > 0.01 {
		t.Errorf("resolution %v, want the width of the undisturbed band", r)
	}
}

func TestLatencyWindows(t *testing.T) {
	rec := newPhaseRec(2 * tailWindows)
	for w := 0; w < 2*tailWindows; w++ {
		if w == 3 {
			continue // a window without a round is left out, not reported as 0
		}
		for i := 0; i < 100; i++ {
			rec.add(w, 1+float64(w)+float64(i)/100, "")
		}
	}
	// Window 0: four rounds between the prompt line and the objective, one
	// beyond the objective, one failed; and two churn ops, one of them late.
	for _, ms := range []float64{150, 300, 600, 900, 1500} {
		rec.add(0, ms, "")
	}
	rec.add(0, 12, failTimeout)
	rec.opsDue[0], rec.opsLate[0] = 2, 1
	f := latencyWindows(rec)
	if len(f.p50) != 2*tailWindows-1 || len(f.p95) != 2 || f.rounds != 706 {
		t.Fatalf("%d p50 windows, %d p95 groups, %d rounds", len(f.p50), len(f.p95), f.rounds)
	}
	if want := 100.0 / 106; math.Abs(f.prompt[0]-want) > 1e-12 {
		t.Errorf("prompt share of window 0 = %v, want %v", f.prompt[0], want)
	}
	if want := (104.0 + 1) / (106 + 2); math.Abs(f.ok[0]-want) > 1e-12 {
		t.Errorf("ok share of window 0 = %v, want %v", f.ok[0], want)
	}
	if f.ok[1] != 1 || f.prompt[1] != 1 {
		t.Errorf("undisturbed window: ok %v prompt %v, want 1 1", f.ok[1], f.prompt[1])
	}
	if rec.attempts != 706 || rec.failed[failTimeout] != 1 {
		t.Errorf("attempts %d, timeouts %d", rec.attempts, rec.failed[failTimeout])
	}
	// A window index outside the phase is clamped, never dropped.
	rec.add(99, 1, "")
	rec.add(-1, 1, "")
	if n := len(rec.lat[0]) + len(rec.lat[2*tailWindows-1]); n != 106+100+2 {
		t.Errorf("clamped rounds went missing: %d", n)
	}
}

func TestHostSpeedAndRestating(t *testing.T) {
	t0 := time.Unix(1000, 0)
	c := &calibrator{}
	// Twenty bursts, one every 100 ms: the first ten on a slow host, of which
	// every third was interrupted; the last ten on a fast one.
	for i := 0; i < 20; i++ {
		speed := 6000.0
		if i >= 10 {
			speed = 8000
		}
		if i%3 == 0 {
			speed /= 4
		}
		c.bursts = append(c.bursts, burst{at: t0.Add(time.Duration(i) * 100 * time.Millisecond), speed: speed})
	}
	if got := c.speed(t0, t0.Add(time.Second)); got.Value != 6000 || got.N != 10 {
		t.Errorf("slow span: speed %v from %d bursts, want 6000 from 10", got.Value, got.N)
	}
	if got := c.speed(t0.Add(time.Second), t0.Add(2*time.Second)); got.Value != 8000 {
		t.Errorf("fast span: speed %v, want 8000", got.Value)
	}
	// A span with fewer than minBursts bursts is given the whole run's speed.
	if got := c.speed(t0, t0.Add(250*time.Millisecond)); got.N != 20 {
		t.Errorf("short span used %d bursts, want all 20", got.N)
	}

	lat := windowQuiet("ms", []float64{2, 2.2, 2.1, 9}, quietLower, 400)
	slow := restated(lat, referenceSpeed/2, false) // measured on a host half as fast
	if math.Abs(slow.Value-lat.Value/2) > 1e-12 || math.Abs(slow.Windows[3]-4.5) > 1e-12 || slow.Quantile != quietLower || slow.N != 400 {
		t.Errorf("a time from a half-speed host: %+v, want half of %+v", slow, lat)
	}
	if lat.Windows[3] != 9 {
		t.Error("restating changed the figure it was given")
	}
	rate := restated(scalar("1/s", 2000, 1), referenceSpeed/2, true)
	if math.Abs(rate.Value-4000) > 1e-9 {
		t.Errorf("a rate from a half-speed host: %v, want 4000", rate.Value)
	}
	if got := restated(lat, 0, false); got.Value != lat.Value {
		t.Errorf("no calibration: %v, want the figure as measured", got.Value)
	}
}

func TestCalibratorRuns(t *testing.T) {
	c, err := startCalibrator()
	if err != nil {
		t.Fatal(err)
	}
	from := time.Now()
	time.Sleep(5*calEvery + calEvery/2)
	c.stop()
	c.stop() // a second stop returns at once
	got := c.speed(from, time.Now())
	if got.N < minBursts || got.Value <= 0 {
		t.Errorf("%d bursts, speed %v", got.N, got.Value)
	}
}

func TestArrivalScheduleIsAFunctionOfTheSeed(t *testing.T) {
	a := arrivalSchedule(7, openRate, 4*time.Second)
	b := arrivalSchedule(7, openRate, 4*time.Second)
	c := arrivalSchedule(8, openRate, 4*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed gave different schedules")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds gave the same schedule")
	}
	if n := float64(len(a)); math.Abs(n-4*openRate) > 4*math.Sqrt(4*openRate) {
		t.Errorf("%v arrivals in 4 s at %v/s", n, openRate)
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatalf("schedule not ascending at %d", i)
		}
	}
}

func TestChurnScheduleIsAFunctionOfTheSeed(t *testing.T) {
	a, b, c := churnSchedule(7, 300), churnSchedule(7, 300), churnSchedule(8, 300)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed gave different victims")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds gave the same victims")
	}
	seen := make(map[int]bool)
	for i, p := range a {
		if p.cell < 0 || p.cell >= nCells || p.pick < 0 || p.pick >= subjectsPerCell-1 {
			t.Fatalf("pick %d out of range: %+v", i, p)
		}
		if i < nCells {
			if seen[p.cell] {
				t.Fatalf("cell %d hit twice within the first lap", p.cell)
			}
			seen[p.cell] = true
		}
	}
}

// nullEndpoint is the least an endpoint wrapper needs beneath it.
type nullEndpoint struct{ transport.Endpoint }

func (nullEndpoint) Send(transport.Addr, []byte) {}
func (nullEndpoint) Broadcast([]byte, int)       {}

// lossDecisions feeds n frames through a wrapper's inbound half and returns
// which of them reached the handler.
func lossDecisions(seed int64, endpoint, n int, gap time.Duration) []bool {
	tp := &tap{trace: &traceLog{}, start: time.Now(), lossGap: gap}
	tp.lossOn.Store(true)
	e := tp.wrap(nullEndpoint{}, roleObject, &cell{}, 0.03, lossSeed(seed, endpoint))
	out := make([]bool, n)
	i := 0
	h := transport.HandlerFunc(func(transport.Addr, []byte) { out[i] = true })
	frame := []byte{byte(msgQUE1), 3, 0}
	for i = 0; i < n; i++ {
		e.inbound(h, "mem-0", frame)
	}
	return out
}

func TestLossWrapper(t *testing.T) {
	const n = 200000
	a := lossDecisions(7, 1, n, 0)
	if !reflect.DeepEqual(a, lossDecisions(7, 1, n, 0)) {
		t.Error("same seed and endpoint gave different loss decisions")
	}
	if reflect.DeepEqual(a, lossDecisions(8, 1, n, 0)) {
		t.Error("different seeds gave the same loss decisions")
	}
	if reflect.DeepEqual(a, lossDecisions(7, 2, n, 0)) {
		t.Error("two endpoints of one run share a loss stream")
	}
	dropped := 0
	for _, ok := range a {
		if !ok {
			dropped++
		}
	}
	// 3 % of 200 000, give or take five standard deviations.
	if rate := float64(dropped) / n; math.Abs(rate-0.03) > 5*math.Sqrt(0.03*0.97/n) {
		t.Errorf("long-run drop rate %.4f, want 0.03", rate)
	}
	// An endpoint that has dropped a frame delivers everything for lossGap:
	// with a gap longer than the test, the first drop is the only one, and it
	// is the one the unguarded stream makes first.
	first := func(v []bool) int {
		for i, ok := range v {
			if !ok {
				return i
			}
		}
		return -1
	}
	guarded := lossDecisions(7, 1, 5000, time.Hour)
	dropped = 0
	for _, ok := range guarded {
		if !ok {
			dropped++
		}
	}
	if dropped != 1 || first(guarded) != first(a) {
		t.Errorf("guarded stream dropped %d frames, the first at %d; want 1 at %d", dropped, first(guarded), first(a))
	}
}

func TestStopGateAndCounters(t *testing.T) {
	tp := &tap{trace: &traceLog{}, start: time.Now()}
	e := tp.wrap(nullEndpoint{}, roleSubject, &cell{}, 0, 1)
	e.Send("mem-1", []byte{byte(msgQUE2), 3, 9, 9})
	e.Broadcast([]byte{byte(msgQUE1), 3}, 1)
	if tp.frames.Load() != 2 || tp.bytes.Load() != 6 || tp.sent[msgQUE1].Load() != 1 {
		t.Errorf("frames %d bytes %d que1 %d, want 2 6 1", tp.frames.Load(), tp.bytes.Load(), tp.sent[msgQUE1].Load())
	}
	tp.stopped.Store(true)
	e.Broadcast([]byte{byte(msgQUE1), 3}, 1)
	if tp.frames.Load() != 2 {
		t.Error("a send after stop was not swallowed")
	}
}

func TestTraceHeaderRoundTrip(t *testing.T) {
	tp := &tap{trace: &traceLog{}, start: time.Now().Add(-time.Second)}
	c := &cell{byAddr: map[transport.Addr]*slot{}}
	e := tp.wrap(nullEndpoint{}, roleObject, c, 0, 1)
	tp.tracing.Store(true)
	payload := []byte{byte(msgQUE1), 3, 1, 2, 3}
	stamped, ok := e.outbound(payload)
	if !ok || len(stamped) != len(payload)+traceHeader || stamped[0] != traceTag {
		t.Fatalf("stamped frame %x", stamped)
	}
	// A stamped frame is unwrapped whether or not tracing is still on, and an
	// unstamped one passes through untouched.
	for _, on := range []bool{true, false} {
		tp.tracing.Store(on)
		for _, in := range [][]byte{stamped, payload} {
			var got []byte
			e.inbound(transport.HandlerFunc(func(_ transport.Addr, p []byte) { got = p }), "mem-0", in)
			if !bytes.Equal(got, payload) {
				t.Errorf("tracing=%t: handler got %x, want %x", on, got, payload)
			}
		}
	}
	frames, _ := tp.trace.collect()
	if len(frames) != 2 || frames[0].sent == 0 || frames[1].sent != 0 {
		t.Errorf("recorded frames %+v: want the stamped one with a send time, the plain one without", frames)
	}
}

func TestJudge(t *testing.T) {
	lower := metricSpec{Name: "lat_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "sat_sessions_s", Better: "higher", Bound: 0.08}
	// Five windows, as setup_s has: the first quartile is the second lowest.
	tight := func(v float64) windowed {
		return windowQuiet("x", []float64{v * 0.99, v, v * 1.01, v * 1.01, v * 1.02}, quietLower, 100)
	}
	wide := func(v float64) windowed {
		return windowQuiet("x", []float64{v * 0.8, v, v * 1.2, v * 1.25, v * 1.3}, quietLower, 100)
	}
	// quiet builds forty windows whose undisturbed two thirds step by `step`
	// (as a share of v) around v and whose disturbed third is far off on the
	// bad side.
	quiet := func(v, step, q float64) windowed {
		var w []float64
		for i := 0; i < 40; i++ {
			x := v * (1 + step*float64(i%9-4))
			if i%3 == 0 {
				if q == quietLower {
					x *= 5
				} else {
					x /= 5
				}
			}
			w = append(w, x)
		}
		return windowQuiet("x", w, q, 100)
	}
	stalled := func(v float64) windowed {
		return windowQuiet("x", []float64{v * 0.99, v, v * 9, v * 1.01, v * 1.01}, quietLower, 100)
	}
	for _, c := range []struct {
		name      string
		base, cur windowed
		spec      metricSpec
		want      string
	}{
		{"within bound", tight(1.30), tight(1.36), lower, verdictSame},
		{"slower beyond bound", tight(1.30), tight(1.50), lower, verdictWorse},
		{"faster beyond bound", tight(1.30), tight(1.10), lower, verdictBetter},
		{"throughput down beyond bound", tight(4400), tight(3900), higher, verdictWorse},
		{"throughput up beyond bound", tight(4400), tight(4900), higher, verdictBetter},
		{"noisy side, overlapping windows", wide(1.30), tight(1.50), lower, verdictUnresolved},
		{"noisy but every window slower", wide(1.30), wide(2.60), lower, verdictWorse},
		{"noisy but every window faster", wide(2.60), wide(1.30), lower, verdictBetter},
		{"one stalled window does not unresolve", stalled(1.30), tight(1.32), lower, verdictSame},
		{"scalars use the bound alone", scalar("x", 1, 1), scalar("x", 1.2, 1), lower, verdictWorse},
		{"quiet figure, disturbed windows do not unresolve", quiet(1.30, 0.01, quietLower), quiet(1.32, 0.01, quietLower), lower, verdictSame},
		{"quiet figure slower beyond bound", quiet(1.30, 0.01, quietLower), quiet(1.50, 0.01, quietLower), lower, verdictWorse},
		{"quiet rate up beyond bound", quiet(4400, 0.01, quietUpper), quiet(4900, 0.01, quietUpper), higher, verdictBetter},
		{"quiet figure with a wide band, bands overlap", quiet(1.30, 0.2, quietLower), quiet(0.90, 0.01, quietLower), lower, verdictUnresolved},
		{"quiet figure with a wide band, bands apart", quiet(1.30, 0.2, quietLower), quiet(6.0, 0.2, quietLower), lower, verdictWorse},
	} {
		if got := judge(c.base, c.cur, c.spec); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareCountsAndPrints(t *testing.T) {
	spec := &benchmarkSpec{EndToEnd: []metricSpec{
		{Name: "lat_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10},
		{Name: "sat_sessions_s", Unit: "1/s", Better: "higher", Bound: 0.08},
	}}
	file := func(lat, sat float64) *resultFile {
		return &resultFile{Schema: resultSchema, Workloads: map[string]*workloadResult{
			"warm": {EndToEnd: map[string]windowed{"lat_p50_ms": scalar("ms", lat, 1), "sat_sessions_s": scalar("1/s", sat, 1)}},
			"cold": {EndToEnd: map[string]windowed{"lat_p50_ms": scalar("ms", 2*lat, 1)}},
		}}
	}
	var out bytes.Buffer
	worse, unresolved := compare(&out, file(1.3, 4400), file(1.6, 4450), spec)
	if worse != 2 || unresolved != 0 {
		t.Errorf("worse %d unresolved %d, want 2 0\n%s", worse, unresolved, out.String())
	}
	for _, want := range []string{"lat_p50_ms", "warm", "cold", "worse", "same", "1.231"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
	if worse, _ := compare(&out, file(1.3, 4400), file(1.3, 4400), spec); worse != 0 {
		t.Errorf("identical results: %d worse", worse)
	}
}

func TestCheckMetrics(t *testing.T) {
	got := make(map[string]windowed)
	for _, d := range endToEndMetrics {
		got[d.Name] = scalar(d.Unit, 1, 1)
	}
	if err := checkMetrics(got, endToEndMetrics); err != nil {
		t.Errorf("complete set rejected: %v", err)
	}
	delete(got, "lat_p50_ms")
	if checkMetrics(got, endToEndMetrics) == nil {
		t.Error("missing metric accepted")
	}
	got["lat_p50_ms"] = scalar("s", 1, 1)
	if checkMetrics(got, endToEndMetrics) == nil {
		t.Error("wrong unit accepted")
	}
}

// BENCHMARK.json is the contract; the tables in metrics.go and fleet.go are
// what the program prints. They must say the same.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name, Why string
		} `json:"workloads"`
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d in the program", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: declared %q, program %q", i, doc.Workloads[i].Name, w.Name)
		}
	}
	same := func(kind string, declared []metricSpec, printed []metricDef) {
		if len(declared) != len(printed) {
			t.Fatalf("%s: %d declared, %d printed", kind, len(declared), len(printed))
		}
		for i, d := range printed {
			if s := declared[i]; s.Name != d.Name || s.Unit != d.Unit || s.Better != d.Better {
				t.Errorf("%s %d: declared %+v, printed %+v", kind, i, s, d)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEndMetrics)
	same("per_layer", doc.PerLayer, perLayerMetrics)
	for _, m := range doc.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}
