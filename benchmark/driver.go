package main

import (
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"argus/internal/backend"
	"argus/internal/cert"
	"argus/internal/core"
)

// The run shape shared by every workload.
const (
	openRate = 500.0 // rounds/s offered in the open phase
	// roundLimit is when a round, or a churn op, has failed: the engines'
	// session lifetime, past which a round cannot complete any more. A round
	// that is merely slow — it waited for a retransmission, or the host took
	// the processor away for a second — has not failed; it has missed the
	// objective below.
	roundLimit = 8 * time.Second
	// roundObjective is the latency objective of the open phase: ok_share is
	// the share of rounds complete and correct within it.
	roundObjective = time.Second
	// windowLen is the length of one window of either phase. A figure the
	// host's speed moves is taken per window and reported as the quartile on
	// the good side (windowQuiet).
	windowLen = 250 * time.Millisecond
	// tailWindows is how many windows one value of lat_p95_ms is taken over:
	// p95 of 125 rounds would have six samples beyond it, of 500 it has 25.
	tailWindows = 4
	// closedRounds is the closed phase's concurrency: this many rounds are in
	// flight at any time, each on the next idle subject in ring order.
	closedRounds = 100
	warmupRate   = 1000.0 // rounds/s of the untimed warm-up wave
	sweepEvery   = 5 * time.Millisecond
)

// Slot states.
const (
	stIdle int32 = iota
	stBusy
	stRetired // revoked: out of the idle pool for good
)

// Round modes: what happens when the round ends.
const (
	modeOpen   = iota // back to the idle pool
	modeClosed        // back to the idle pool, and the next idle subject fires
	modeSingle        // back to the idle pool, not counted in any phase
)

// Failure kinds, counted in `failed` and listed in the result. Only timeout,
// noIdle and churnLate can be caused by load; any other is an oracle
// violation and fails the run.
const (
	failTimeout     = "timeout"          // not complete within the limit
	failNoIdle      = "no_idle"          // arrival found every subject busy
	failWrongLevel  = "wrong_level"      // Discovery.Level differs from ground truth
	failUnexpected  = "unexpected"       // discovery of an object outside the cell
	failDuplicate   = "duplicate"        // an object reported twice in one round
	failSuperseded  = "after_superseded" // discovery for a round already complete
	failRevokedSaw  = "revoked_saw_l2l3" // a revoked subject discovered an L2/L3 service
	failReplacement = "replacement_first_round"
	failChurnLate   = "churn_not_applied" // op not applied at all N objects within the limit
)

func loadCaused(kind string) bool {
	return kind == failTimeout || kind == failNoIdle || kind == failChurnLate
}

// slot is the benchmark's view of one subject engine and of its round in
// flight. mu guards the round fields: they are written by the generator
// (fire), by the engine's event loop (onDiscovery) and by the sweeper.
type slot struct {
	f       *fleet
	id      cert.ID
	name    string
	cell    *cell
	eng     *core.Subject
	ep      *benchEndpoint
	addrN   uint16
	ringPos int

	state    atomic.Int32
	deadline atomic.Int64 // tap clock; 0 when no round is in flight
	roundN   atomic.Int64 // mirrors the engine's round counter

	mu       sync.Mutex
	mode     int
	window   int
	due      int64 // tap clock: when the round was due
	fired    int64 // tap clock: when Discover was handed to the event loop
	epoch    uint32
	got      [objectsPerCell]bool
	bad      string // first oracle violation of the round, if any
	live     bool   // a round is in flight
	lastDone bool   // the round that ended last had every object reported
	prevDone bool   // lastDone as it stood when the round in flight began
	revoked  bool
	after    func(fail string) // called once, when the next round ends
}

// phaseRec collects one phase's samples per window.
type phaseRec struct {
	mu       sync.Mutex
	lat      [][]float64 // ms per window, completed and failed rounds (failed = limit)
	opsDue   []int       // churn ops due per window (open phase of `churn`)
	opsLate  []int       // … of which not applied everywhere within the objective
	attempts int
	failed   map[string]int
	sessions atomic.Int64 // completed sessions, for the rate metrics
	from, to time.Time    // the span the windows cover
	// per-level session time, Discover → OnDiscovery, ms
	sessionMS [4][]float64
}

func newPhaseRec(windows int) *phaseRec {
	return &phaseRec{lat: make([][]float64, windows), opsDue: make([]int, windows), opsLate: make([]int, windows), failed: make(map[string]int)}
}

// windowsIn is how many whole windows fit into a phase of the given length.
func windowsIn(length time.Duration) int { return max(int(length/windowLen), 1) }

func (p *phaseRec) add(window int, ms float64, fail string) {
	window = min(max(window, 0), len(p.lat)-1)
	p.mu.Lock()
	p.attempts++
	if fail != "" {
		p.failed[fail]++
		ms = float64(roundLimit) / 1e6
	}
	p.lat[window] = append(p.lat[window], ms)
	p.mu.Unlock()
}

// total sums a tally by kind.
func total(byKind map[string]int) int {
	n := 0
	for _, v := range byKind {
		n += v
	}
	return n
}

// driver owns the generator, the sweeper and the phase bookkeeping.
type driver struct {
	f   *fleet
	rec atomic.Pointer[phaseRec] // the phase being recorded; nil between phases

	openBase   atomic.Int64 // tap clock at the start of the open phase being recorded
	closedOn   atomic.Bool  // a finished closed-phase round starts the next while set
	closedBase atomic.Int64 // tap clock at the closed phase's start
	cursor     atomic.Int64 // round-robin position in the ring

	violMu     sync.Mutex
	violations map[string]int // oracle violations by kind, whenever they happened

	lateMS []float64 // generator lateness per arrival, ms

	sweepStop chan struct{}
	sweepDone chan struct{}
}

func newDriver(f *fleet) *driver {
	d := &driver{f: f, violations: make(map[string]int), sweepStop: make(chan struct{}), sweepDone: make(chan struct{})}
	f.drv = d
	go d.sweep()
	return d
}

func (d *driver) stop() {
	close(d.sweepStop)
	<-d.sweepDone
}

// noteOp counts a churn op due in the open phase being recorded towards its
// window's ok_share: late is whether it missed the objective.
func (d *driver) noteOp(due int64, late bool) {
	rec := d.rec.Load()
	base := d.openBase.Load()
	if rec == nil || base == 0 || due < base {
		return
	}
	w := int((due - base) / int64(windowLen))
	if w >= len(rec.opsDue) {
		return
	}
	rec.mu.Lock()
	rec.opsDue[w]++
	if late {
		rec.opsLate[w]++
	}
	rec.mu.Unlock()
}

// expectedLevel is the oracle's ground truth for one discovery.
func (s *slot) expectedLevel(o *objectSlot) (want backend.Level, alsoOK backend.Level) {
	if o.level == backend.L3 {
		// L3 at L3 for current fellows; while the cell's key is rotating
		// (now, or at any time since the round began) the L2 face is right too.
		if now := s.cell.rekey.Load(); now%2 == 1 || now != s.epoch {
			return backend.L3, backend.L2
		}
	}
	return o.level, o.level
}

// fire starts one round. The caller has already claimed the slot (stBusy).
func (s *slot) fire(mode, window int, due int64) {
	t := s.f.tap
	s.mu.Lock()
	s.prevDone = s.lastDone
	s.mode, s.window, s.due, s.fired = mode, window, due, t.now()
	s.epoch = s.cell.rekey.Load()
	s.got = [objectsPerCell]bool{}
	s.bad = ""
	s.live = true
	s.roundN.Add(1)
	s.deadline.Store(due + int64(roundLimit))
	s.mu.Unlock()
	s.ep.Do(func() { _ = s.eng.Discover(1) }) // Discover fails only unbound
}

// onDiscovery is the output oracle; it runs on the engine's event loop.
func (s *slot) onDiscovery(d core.Discovery) {
	now := s.f.tap.now()
	drv := s.f.drv
	s.mu.Lock()
	if s.revoked {
		s.mu.Unlock()
		if d.Level != backend.L1 {
			drv.violation(failRevokedSaw)
		}
		return
	}
	if cur := s.roundN.Load(); int64(d.Round) != cur || !s.live {
		// A discovery for a round that is over. After a timeout it is a late
		// answer, already counted; after a round that had every object
		// reported it is one discovery too many.
		tooMany := (int64(d.Round) == cur && s.lastDone) || (int64(d.Round) == cur-1 && s.live && s.prevDone)
		s.mu.Unlock()
		if tooMany {
			drv.violation(failSuperseded)
		}
		return
	}
	k, known := s.cell.objIdx[d.Object]
	switch {
	case !known:
		s.bad = failUnexpected
	case s.got[k]:
		s.bad = failDuplicate
	default:
		s.got[k] = true
		if want, also := s.expectedLevel(s.cell.objects[k]); d.Level != want && d.Level != also {
			s.bad = failWrongLevel
		}
		// core.session_ms.* is a per-layer figure: an untraced run does not
		// take the recorder's lock for it.
		if rec := drv.rec.Load(); rec != nil && s.mode != modeSingle && s.f.tap.tracing.Load() {
			rec.mu.Lock()
			rec.sessionMS[d.Level] = append(rec.sessionMS[d.Level], float64(now-s.fired)/1e6)
			rec.mu.Unlock()
		}
	}
	for _, g := range s.got {
		if !g {
			s.mu.Unlock()
			return
		}
	}
	s.finish(now, s.bad)
}

// finish ends the round in flight; s.mu is held and is released here.
func (s *slot) finish(now int64, fail string) {
	drv := s.f.drv
	mode, window, due := s.mode, s.window, s.due
	round := int(s.roundN.Load())
	s.live = false
	s.lastDone = fail != failTimeout
	s.deadline.Store(0)
	after := s.after
	s.after = nil
	s.mu.Unlock()
	if after != nil {
		after(fail)
	}

	if fail != "" && !loadCaused(fail) {
		drv.violation(fail)
	}
	if rec := drv.rec.Load(); rec != nil && mode != modeSingle {
		rec.add(window, float64(now-due)/1e6, fail)
		if fail == "" {
			rec.sessions.Add(objectsPerCell)
		}
	}
	if t := s.f.tap; t.tracing.Load() {
		t.trace.round(s, round, due, now, fail == "")
	}
	s.state.CompareAndSwap(stBusy, stIdle)
	if mode == modeClosed && drv.closedOn.Load() {
		// The closed loop: the round that ended starts the next one, on the
		// next idle subject of the ring, due this instant. (This runs on an
		// engine's event loop, or on the sweeper after a timeout.)
		if next := drv.nextIdle(); next != nil {
			next.fire(modeClosed, drv.closedWindow(now), now)
		}
	}
}

func (d *driver) violation(kind string) {
	d.violMu.Lock()
	d.violations[kind]++
	d.violMu.Unlock()
}

// sweep fails rounds that pass their deadline.
func (d *driver) sweep() {
	defer close(d.sweepDone)
	tick := time.NewTicker(sweepEvery)
	defer tick.Stop()
	for {
		select {
		case <-d.sweepStop:
			return
		case <-tick.C:
		}
		now := d.f.tap.now()
		for i := range d.f.ring {
			s := d.f.ring[i].Load()
			if dl := s.deadline.Load(); dl == 0 || dl > now {
				continue
			}
			s.mu.Lock()
			if !s.live || s.deadline.Load() > now {
				s.mu.Unlock()
				continue
			}
			s.finish(now, failTimeout)
		}
	}
}

// nextIdle claims the next idle subject in ring order, or nil after one lap.
func (d *driver) nextIdle() *slot {
	for n := 0; n < nSubjects; n++ {
		s := d.f.ring[int((d.cursor.Add(1)-1)%nSubjects)].Load()
		if s.state.CompareAndSwap(stIdle, stBusy) {
			return s
		}
	}
	return nil
}

// arrivalSchedule is the open phase's Poisson process: offsets from the
// phase start, a pure function of the seed.
func arrivalSchedule(seed int64, rate float64, length time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		if off := time.Duration(t * float64(time.Second)); off < length {
			out = append(out, off)
		} else {
			return out
		}
	}
}

// sample is one reading of everything the rate metrics are deltas of.
type sample struct {
	at       time.Time
	sessions int64
	frames   int64
	bytes    int64
	cpu      time.Duration // process user+sys
	mallocs  uint64
}

func (d *driver) sample(rec *phaseRec, withMem bool) sample {
	s := sample{at: time.Now(), sessions: rec.sessions.Load(), frames: d.f.tap.frames.Load(), bytes: d.f.tap.bytes.Load(), cpu: processCPU()}
	if withMem {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		s.mallocs = m.Mallocs
	}
	return s
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// drain waits until no round is in flight (they all end by their deadline).
func (d *driver) drain() {
	for {
		busy := false
		for i := range d.f.ring {
			if d.f.ring[i].Load().deadline.Load() != 0 {
				busy = true
				break
			}
		}
		if !busy {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// warmup fires one paced round on every subject and waits for them, filling
// the verify caches. It is not recorded.
func (d *driver) warmup() {
	gap := time.Duration(float64(time.Second) / warmupRate)
	next := time.Now()
	for i := range d.f.ring {
		time.Sleep(time.Until(next))
		next = next.Add(gap)
		if s := d.f.ring[i].Load(); s.state.CompareAndSwap(stIdle, stBusy) {
			s.fire(modeSingle, 0, d.f.tap.now())
		}
	}
	d.drain()
}

// openPhase offers the arrival schedule at its due times from the one
// generator goroutine (the caller) and returns the recorder plus the readings
// taken at the window boundaries.
func (d *driver) openPhase(arrivals []time.Duration, length time.Duration) (*phaseRec, []sample) {
	nW := windowsIn(length)
	rec := newPhaseRec(nW)
	start := time.Now()
	base := d.f.tap.now()
	d.openBase.Store(base)
	d.rec.Store(rec)
	samples := []sample{d.sample(rec, false)}
	boundary := func() {
		time.Sleep(time.Until(start.Add(time.Duration(len(samples)) * windowLen)))
		samples = append(samples, d.sample(rec, false))
	}
	for _, off := range arrivals {
		w := min(int(off/windowLen), nW-1)
		for len(samples) <= w {
			boundary()
		}
		time.Sleep(time.Until(start.Add(off)))
		due := base + int64(off)
		d.lateMS = append(d.lateMS, float64(d.f.tap.now()-due)/1e6)
		if s := d.nextIdle(); s != nil {
			s.fire(modeOpen, w, due)
		} else {
			rec.add(w, 0, failNoIdle)
		}
	}
	for len(samples) <= nW {
		boundary()
	}
	rec.from, rec.to = start, time.Now()
	d.drain()
	d.rec.Store(nil)
	d.openBase.Store(0)
	return rec, samples
}

// closedPhase keeps closedRounds rounds in flight for length — each round
// that ends starts the next on the next idle subject of the ring — and
// returns the recorder plus the window-boundary readings.
func (d *driver) closedPhase(length time.Duration) (*phaseRec, []sample) {
	nW := windowsIn(length)
	rec := newPhaseRec(nW)
	d.rec.Store(rec)
	start := time.Now()
	d.closedBase.Store(d.f.tap.now())
	d.closedOn.Store(true)
	for i := 0; i < closedRounds; i++ {
		if s := d.nextIdle(); s != nil {
			s.fire(modeClosed, 0, d.f.tap.now())
		}
	}
	// Mallocs is read at the two ends only: reading it stops the world.
	samples := []sample{d.sample(rec, true)}
	for len(samples) <= nW {
		time.Sleep(time.Until(start.Add(time.Duration(len(samples)) * windowLen)))
		samples = append(samples, d.sample(rec, len(samples) == nW))
	}
	d.closedOn.Store(false)
	rec.from, rec.to = start, time.Now()
	d.rec.Store(nil) // rounds still in flight end outside the windows
	d.drain()
	return rec, samples
}

func (d *driver) closedWindow(now int64) int {
	return int((now - d.closedBase.Load()) / int64(windowLen))
}

// samplePending records the fleet-wide PendingSessions peak at 10 Hz until the
// returned function is called; that returns once the sampler has ended.
func (d *driver) samplePending(peak *atomic.Int64) (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
				if n := int64(d.f.pendingSessions()); n > peak.Load() {
					peak.Store(n)
				}
			}
		}
	}()
	return func() { close(quit); <-done }
}

// promptMS is the line between a round on the fast path and one that waited
// for a retransmission or sat out a stall: well above any fast-path latency,
// well below the first retransmission timeout.
const promptMS = 100.0

// openFigures are the per-window figures of an open phase.
type openFigures struct {
	p50, prompt, ok []float64 // one value per window
	p95             []float64 // one value per tailWindows windows
	rounds          int
}

// latencyWindows turns a phase's per-window samples into the windowed p50,
// the share of rounds within promptMS, the share of rounds (and churn ops)
// within the objective, and p95 over groups of tailWindows windows. A window
// without a round is left out.
func latencyWindows(rec *phaseRec) openFigures {
	var f openFigures
	var group []float64
	objective := float64(roundObjective) / 1e6
	for w := range rec.lat {
		s := sortedCopy(rec.lat[w])
		group = append(group, s...)
		if (w+1)%tailWindows == 0 {
			if g := sortedCopy(group); len(g) > 0 {
				f.p95 = append(f.p95, percentile(g, math.Min(95, float64(highestPercentile(len(g))))))
			}
			group = group[:0]
		}
		if len(s) == 0 {
			continue
		}
		f.rounds += len(s)
		f.p50 = append(f.p50, percentile(s, 50))
		// Failed rounds sit at the limit, beyond either line.
		within := sort.SearchFloat64s(s, promptMS)
		f.prompt = append(f.prompt, float64(within)/float64(len(s)))
		met := sort.Search(len(s), func(i int) bool { return s[i] > objective })
		due := len(s) + rec.opsDue[w]
		f.ok = append(f.ok, float64(met+rec.opsDue[w]-rec.opsLate[w])/float64(due))
	}
	return f
}
