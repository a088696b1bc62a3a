package load

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"argus/internal/adversary"
	"argus/internal/attr"
	"argus/internal/backend"
	"argus/internal/cert"
	"argus/internal/core"
	"argus/internal/obs"
	"argus/internal/slo"
	"argus/internal/suite"
	"argus/internal/transport"
)

// runner executes one profile: it owns the fleet and the profile's business
// — churn, roaming, the adversary phase, the judgement of each discovery
// against ground truth, wave stats — and drives the fleet through the Driver.
// All orchestration happens on the Run goroutine; completions arrive on
// engine event loops through onDiscovery.
type runner struct {
	p       Profile
	reg     *obs.Registry
	before  *obs.Snapshot // the registry when the run began; the report is the diff
	drv     *Driver
	fleet   *fleet
	levelOf map[cert.ID]backend.Level
	rng     *rand.Rand

	peakOpen      atomic.Int64 // sampled Σ PendingSessions high-water mark
	levelMismatch atomic.Int64

	// Ledger the SLO checks compare telemetry against.
	predictedSubjExpiries int64
	revokedCount          int
	addedCount            int
	crashedCount          int
	redeliveredCount      int
	roamedCount           int

	roamsC    *obs.Counter
	observer  *adversary.Observer
	advReport *slo.AdversaryReport
	covert    *slo.Covertness

	waves []slo.WaveStats

	samplerStop chan struct{}
	samplerDone chan struct{}
}

// Run builds the profile's fleet, drives it, and returns the report. err is
// non-nil only for harness-level failures (invalid profile, provisioning or
// transport setup errors); SLO violations are reported in Report.SLO so the
// caller still gets the full numbers.
func Run(p Profile) (*slo.Report, error) {
	start := time.Now()
	r, err := newRunner(p)
	if err != nil {
		return nil, err
	}
	p = r.p
	observer := r.observer
	defer r.fleet.close()

	r.startSampler()
	if p.Rate > 0 {
		r.drv.OpenLoop(r.slots(), r.rng, p.Rate, p.Duration, p.DrainTimeout)
	} else {
		if err := r.runClosedLoop(); err != nil {
			r.stopSampler()
			return nil, err
		}
		if p.ReplayTargets > 0 || p.SybilRounds > 0 {
			if err := r.adversaryPhase(); err != nil {
				r.stopSampler()
				return nil, err
			}
		}
	}
	// Wait out the session TTL so both engines' session tables empty
	// (answered object sessions and dark-wave subject sessions age out at
	// TTL); what remains is leaked.
	leaked := r.drv.Quiesce(p.quiesceDeadline())
	r.stopSampler()
	if observer != nil {
		v := observer.Verdict()
		r.covert = &v
		p.logf("load: %s", v)
	}

	rep := r.buildReport(time.Since(start), int64(leaked))
	rep.SLO = p.SLO.Check(rep)
	r.publish("report", rep)
	r.publishSnapshot()
	return rep, nil
}

// newRunner validates the profile and builds the driver and the fleet. The
// caller owns r.fleet.close(). Factored out of Run so the capacity search
// can hold one fleet across many open-loop trials.
func newRunner(p Profile) (*runner, error) {
	p = p.withDefaults()
	if err := p.validate(); err != nil {
		return nil, err
	}
	reg := p.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	r := &runner{
		p:      p,
		reg:    reg,
		before: reg.Snapshot(),
		rng:    rand.New(rand.NewSource(p.Seed)),
	}
	r.drv = NewDriver(reg, func() int { return r.fleet.pendingSessions() })
	r.roamsC = r.reg.Counter(obs.MLoadRoams, "subjects migrated between cells at wave boundaries")

	if p.Observer {
		r.observer = adversary.NewObserver(reg, p.ObserverMinSamples, p.ObserverMaxSamples)
	}

	start := time.Now()
	fl, err := buildFleet(p, r.reg, r.observer, r.onDiscovery)
	if err != nil {
		return nil, err
	}
	r.fleet = fl
	r.levelOf = fl.levelOf()
	p.logf("load: fleet up in %.1fs — %d cells × (%d subj + %d obj) over %s",
		time.Since(start).Seconds(), p.Cells, p.SubjectsPerCell, p.ObjectsPerCell, p.Transport)
	return r, nil
}

// publish emits one progress frame to the profile's live event hub, if any.
func (r *runner) publish(kind string, v any) {
	if r.p.Events != nil {
		_ = r.p.Events.PublishData(kind, v)
	}
}

func (r *runner) publishSnapshot() {
	if r.p.Events != nil {
		r.p.Events.PublishSnapshot()
	}
}

// onDiscovery is the completion hook, invoked on subject event loops. The
// runner judges the discovery against ground truth — a revoked subject may
// see nothing above Level 1, a live one must see each object at its level —
// and the driver judges it against the round.
func (r *runner) onDiscovery(s *subjectSlot, d core.Discovery) {
	revoked := s.revoked.Load()
	if r.drv.Complete(s.Slot, d, !revoked || d.Level == backend.L1) &&
		!revoked && d.Level != r.wantLevel(s, d.Object) {
		r.levelMismatch.Add(1)
	}
}

// wantLevel is the ground-truth visibility level a live subject must see a
// given object at. A fellow provisioned after a revocation rotated the
// covert group key holds a newer key than the objects, so its L3 visibility
// degrades to L2 — exactly what the deployed system would do until the
// objects are reprovisioned.
func (r *runner) wantLevel(s *subjectSlot, obj cert.ID) backend.Level {
	switch r.levelOf[obj] {
	case backend.L1:
		return backend.L1
	case backend.L3:
		if r.p.Fellow && !s.staleGroup {
			return backend.L3
		}
		return backend.L2
	default:
		return backend.L2
	}
}

// slots snapshots the current subject population's ledgers.
func (r *runner) slots() []*Slot {
	r.fleet.mu.RLock()
	defer r.fleet.mu.RUnlock()
	var out []*Slot
	for _, c := range r.fleet.cells {
		for _, s := range c.subjects {
			out = append(out, s.Slot)
		}
	}
	return out
}

// runClosedLoop drives synchronized waves with churn before the final wave.
func (r *runner) runClosedLoop() error {
	p := r.p
	churnWave := -1
	if (p.RevokeFrac > 0 || p.AddFrac > 0) && p.Waves >= 2 {
		churnWave = p.Waves - 1 // churn right before the last wave
	}
	for w := 0; w < p.Waves; w++ {
		if w > 0 && p.RoamFrac > 0 {
			if err := r.roam(w); err != nil {
				return err
			}
		}
		if w == churnWave {
			if err := r.churn(); err != nil {
				return err
			}
		}
		slots := r.slots()
		wave := slo.WaveStats{Index: w, Subjects: len(slots)}
		snapBefore := r.counterTotals()
		waveStart := time.Now()
		wave.Armed, wave.Lost = r.drv.Wave(slots, p.ArmWindow, p.DrainTimeout)
		wave.Seconds = time.Since(waveStart).Seconds()
		snapAfter := r.counterTotals()
		wave.VCacheHits = snapAfter.vcacheHits - snapBefore.vcacheHits
		wave.VCacheMisses = snapAfter.vcacheMisses - snapBefore.vcacheMisses
		wave.Retransmissions = snapAfter.retrans - snapBefore.retrans
		r.waves = append(r.waves, wave)
		r.publish("wave", wave)
		r.publishSnapshot()
		p.logf("load: wave %d — %d sessions in %.2fs (lost %d, vcache %d hit / %d miss, %d retrans)",
			w, wave.Armed, wave.Seconds, wave.Lost, wave.VCacheHits, wave.VCacheMisses, wave.Retransmissions)
		if p.ThinkTime > 0 && w < p.Waves-1 {
			time.Sleep(p.ThinkTime)
		}
	}
	return nil
}

// ChurnEvent is the live progress frame published after the churn window.
type ChurnEvent struct {
	Revoked     int `json:"revoked"`
	Added       int `json:"added"`
	Crashed     int `json:"crashed"`
	Parked      int `json:"parked"`
	Redelivered int `json:"redelivered"`
}

// churn revokes RevokeFrac of each cell's subjects (pushing signed
// notifications through the cell distributor and waiting for on-device
// effectuation) and registers AddFrac new subjects per cell, which join the
// following wave with cold credentials. With CrashFrac set it also opens a
// crash window: a fraction of each cell's objects drop offline at the
// distributor before the pushes, so their notifications park in the
// dead-letter queue; once the live population has effectuated, the crashed
// nodes reattach and the whole backlog must redeliver in order before the
// final wave fires.
func (r *runner) churn() error {
	p := r.p
	var pushed, parked int
	base := r.snapshotCounter(obs.MUpdateApplied)
	baseEvict := r.snapshotCounter(obs.MUpdateDLQEvictions)

	// Crash window opens before any push. Only the update plane goes dark —
	// the crashed objects keep answering discovery, and every revocation is
	// fully effectuated (live + redelivered) before the next wave, so the
	// expectation arithmetic is unchanged.
	crashed := make([][]*objectSlot, len(r.fleet.cells))
	if p.CrashFrac > 0 {
		for ci, c := range r.fleet.cells {
			k := int(p.CrashFrac * float64(len(c.objects)))
			if k > len(c.objects) {
				k = len(c.objects)
			}
			for _, idx := range r.rng.Perm(len(c.objects))[:k] {
				o := c.objects[idx]
				c.dist.MarkOffline(o.id)
				crashed[ci] = append(crashed[ci], o)
				r.crashedCount++
			}
		}
	}

	for _, c := range r.fleet.cells {
		k := int(p.RevokeFrac * float64(p.SubjectsPerCell))
		if k > len(c.subjects) {
			k = len(c.subjects)
		}
		if k == 0 {
			continue
		}
		// Deterministic victim choice from the harness seed.
		perm := r.rng.Perm(len(c.subjects))[:k]
		for _, idx := range perm {
			s := c.subjects[idx]
			if s.revoked.Load() {
				continue
			}
			if _, err := r.fleet.svc.RevokeSubject(context.Background(), s.id); err != nil {
				return fmt.Errorf("revoke %s: %w", s.name, err)
			}
			if err := c.dist.RevokeSubject(s.id, c.objIDs); err != nil {
				return fmt.Errorf("push revocation %s: %w", s.name, err)
			}
			pushed += len(c.objIDs)
			r.revokedCount++
			// Each future round of this subject leaves one silently refused
			// session per secure object to expire on the subject side.
			secure := len(c.objects) - c.l1Count
			wavesLeft := 1 // churn happens before exactly one final wave
			r.predictedSubjExpiries += int64(secure * wavesLeft)
			// From here on only the cell's L1 objects may answer this subject.
			s.revoked.Store(true)
			s.Fanout = c.l1Count
		}
	}
	if pushed > 0 {
		// The crashed nodes' copies are parked (minus any bound evictions),
		// not on the wire; the live population must effectuate the rest.
		parked = r.fleetDLQDepth()
		evicted := r.snapshotCounter(obs.MUpdateDLQEvictions) - baseEvict
		wantLive := base + int64(pushed-parked) - evicted
		ok := transport.Poll(p.DrainTimeout, transport.DefaultPollStep, func() bool {
			return r.snapshotCounter(obs.MUpdateApplied) >= wantLive
		})
		if !ok {
			return fmt.Errorf("revocations not effectuated: applied %d, want %d",
				r.snapshotCounter(obs.MUpdateApplied), wantLive)
		}

		// Crash window closes: reattach every crashed node. Reattach drains
		// its queue in push order and the agents' replay checks reject any
		// duplicate, so waiting for exact effectuation with the fleet-wide
		// DLQ back at depth zero asserts exactly-once in-order redelivery
		// end to end.
		if r.crashedCount > 0 {
			for ci, c := range r.fleet.cells {
				for _, o := range crashed[ci] {
					r.redeliveredCount += c.dist.Reattach(o.id, o.addr)
				}
			}
			wantAll := base + int64(pushed) - evicted
			ok := transport.Poll(p.DrainTimeout, transport.DefaultPollStep, func() bool {
				return r.snapshotCounter(obs.MUpdateApplied) >= wantAll && r.fleetDLQDepth() == 0
			})
			if !ok {
				return fmt.Errorf("redelivery incomplete: applied %d (want %d), DLQ depth %d",
					r.snapshotCounter(obs.MUpdateApplied), wantAll, r.fleetDLQDepth())
			}
		}
	}

	if p.AddFrac > 0 {
		// Revoking a fellow rotates the covert group key
		// (backend.RevokeSubject), and the object engines keep the key they
		// were provisioned with. Fellows provisioned from here on therefore
		// see L3 services at L2 until the fleet reprovisions — the
		// expectation model tracks that per slot.
		rotated := p.Fellow && r.revokedCount > 0
		add := int(p.AddFrac * float64(p.SubjectsPerCell))
		for ci, c := range r.fleet.cells {
			for k := 0; k < add; k++ {
				name := fmt.Sprintf("s-add-%d-%d", ci, k)
				id, _, err := r.fleet.svc.RegisterSubject(context.Background(), name, attr.MustSet("position=staff"))
				if err != nil {
					return err
				}
				if p.Fellow {
					if err := r.fleet.svc.AddSubjectToGroup(context.Background(), id, r.fleet.group); err != nil {
						return err
					}
				}
				if err := r.fleet.addSubject(c, id, name, rotated, r.onDiscovery); err != nil {
					return err
				}
				r.addedCount++
			}
		}
	}
	p.logf("load: churn — revoked %d subjects (%d notifications), added %d subjects, crashed %d objects (%d parked, %d redelivered)",
		r.revokedCount, pushed, r.addedCount, r.crashedCount, parked, r.redeliveredCount)
	r.publish("churn", ChurnEvent{
		Revoked: r.revokedCount, Added: r.addedCount,
		Crashed: r.crashedCount, Parked: parked, Redelivered: r.redeliveredCount,
	})
	r.publishSnapshot()
	return nil
}

// fleetDLQDepth sums parked letters across every cell distributor.
func (r *runner) fleetDLQDepth() int {
	n := 0
	for _, c := range r.fleet.cells {
		n += c.dist.DLQDepth()
	}
	return n
}

// RoamEvent is the live progress frame published after a roam boundary.
type RoamEvent struct {
	Wave  int `json:"wave"`
	Moved int `json:"moved"`
}

// roam migrates RoamFrac of each cell's subjects to the next cell before
// wave w fires: the old radio powers down (pending retry timers die with
// it), and a fresh engine joins the destination segment with re-issued
// credentials. The destination cell has never verified the roamer, so its
// first round there must repopulate the cell-local verify cache — the
// re-discovery cost the roam counters and per-wave miss deltas expose.
func (r *runner) roam(wave int) error {
	p := r.p
	k := int(p.RoamFrac * float64(p.SubjectsPerCell))
	if k == 0 {
		return nil
	}
	type mover struct {
		slot *subjectSlot
		dst  *cell
	}
	var movers []mover
	f := r.fleet
	f.mu.Lock()
	for ci, c := range f.cells {
		dst := f.cells[(ci+1)%len(f.cells)]
		n := min(k, len(c.subjects))
		pick := make(map[int]bool, n)
		for _, idx := range r.rng.Perm(len(c.subjects))[:n] {
			pick[idx] = true
		}
		kept := c.subjects[:0:0]
		for idx, s := range c.subjects {
			if pick[idx] {
				movers = append(movers, mover{s, dst})
			} else {
				kept = append(kept, s)
			}
		}
		c.subjects = kept
	}
	f.mu.Unlock()
	for _, m := range movers {
		m.slot.ep.Close()
		if err := f.addSubject(m.dst, m.slot.id, m.slot.name, m.slot.staleGroup, r.onDiscovery); err != nil {
			return fmt.Errorf("roam %s: %w", m.slot.name, err)
		}
		r.roamedCount++
		r.roamsC.Inc()
	}
	p.logf("load: roam — %d subjects migrated to their next cell before wave %d", len(movers), wave)
	r.publish("roam", RoamEvent{Wave: wave, Moved: len(movers)})
	return nil
}

// advCounters is the trio of object-side outcome counters the adversary
// phase holds to exact deltas. rejected is every QUE2 an object judged and
// declined to serve: failed authentication, or — a replayed short QUE2, whose
// ticket is spent or filed under the honest subject's address — a refused
// resumption.
type advCounters struct{ orphan, duplicate, rejected int64 }

func (r *runner) advCountersNow() advCounters {
	snap := r.reg.Snapshot()
	return advCounters{
		orphan:    slo.SumFamily(snap, obs.MObjectQue2, obs.L("result", "orphan")),
		duplicate: slo.SumFamily(snap, obs.MObjectQue1, obs.L("result", "duplicate")),
		rejected: slo.SumFamily(snap, obs.MObjectQue2, obs.L("result", "rejected")) +
			slo.SumFamily(snap, obs.MResumptions, obs.L("side", "object"), obs.L("result", "refused")),
	}
}

// adversaryTimeout bounds each persona's wait for a response.
const adversaryTimeout = 5 * time.Second

// adversaryPhase drives the replay and Sybil personas against every cell
// after the honest waves drain, and ledgers the object-side counter deltas
// they produced. StrictAdversaryAccounting holds these deltas to exactly
// the injected amounts.
func (r *runner) adversaryPhase() error {
	p := r.p
	// A round the ledger declared complete (or wrote off) arms no further
	// probe, but one armed just before the declaration may still be in a
	// mailbox. Sleep out the silent-probe tail (the schedule is computable)
	// so no duplicate lands at an object after the baseline below and the
	// personas' deltas stay exact.
	sch := p.Retry.Schedule(p.Retry.Que1Retries)
	time.Sleep(sch[len(sch)-1] + 250*time.Millisecond)
	r.fleet.wakeAll()

	base := r.advCountersNow()
	ad := &slo.AdversaryReport{}
	var wantOrphan, wantDup, wantRejected int64

	if p.ReplayTargets > 0 {
		var total slo.ReplayStats
		for _, c := range r.fleet.cells {
			ep, err := c.join()
			if err != nil {
				return err
			}
			stats, err := adversary.ExecuteReplay(ep, c.replays, adversaryTimeout, r.reg)
			total.Merge(stats)
			ep.Close()
			if err != nil {
				return fmt.Errorf("load: replay persona, cell %d: %w", c.index, err)
			}
		}
		ad.Replay = &total
		wantOrphan += total.OrphanQue2
		wantDup += total.DupQue1
		wantRejected += total.StaleQue2
	}
	if p.SybilRounds > 0 {
		prov, err := adversary.RogueProvision(suite.S128)
		if err != nil {
			return err
		}
		var total slo.SybilStats
		for _, c := range r.fleet.cells {
			stats, err := adversary.ExecuteSybil(c.join, prov, p.SybilRounds, adversaryTimeout, r.reg)
			total.Merge(stats)
			if err != nil {
				return fmt.Errorf("load: sybil persona, cell %d: %w", c.index, err)
			}
		}
		ad.Sybil = &total
		wantRejected += total.Forged
	}

	// The personas' last frames (stale and forged QUE2s) are fire-and-forget;
	// give the fleet time to finish judging them before taking the deltas.
	transport.Poll(p.DrainTimeout, transport.DefaultPollStep, func() bool {
		cur := r.advCountersNow()
		return cur.orphan-base.orphan >= wantOrphan &&
			cur.duplicate-base.duplicate >= wantDup &&
			cur.rejected-base.rejected >= wantRejected
	})
	cur := r.advCountersNow()
	ad.OrphanDelta = cur.orphan - base.orphan
	ad.DuplicateDelta = cur.duplicate - base.duplicate
	ad.RejectedDelta = cur.rejected - base.rejected
	r.advReport = ad
	p.logf("load: adversary phase — deltas orphan %d, duplicate %d, rejected %d", ad.OrphanDelta, ad.DuplicateDelta, ad.RejectedDelta)
	r.publish("adversary", ad)
	r.publishSnapshot()
	return nil
}

// startSampler launches the concurrency sampler: every 25 ms it records the
// high-water mark of actually open handshakes (Σ PendingSessions over every
// engine). Each sample walks every engine in the fleet — at 11k+ engines a
// 10 ms cadence showed up as ~8% of run CPU on a single-core profile — so
// the cadence stays just fine enough to catch a wave's concurrency plateau.
func (r *runner) startSampler() {
	r.samplerStop = make(chan struct{})
	r.samplerDone = make(chan struct{})
	go func() {
		defer close(r.samplerDone)
		tick := time.NewTicker(25 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-r.samplerStop:
				return
			case <-tick.C:
				if open := int64(r.fleet.pendingSessions()); open > r.peakOpen.Load() {
					r.peakOpen.Store(open)
				}
			}
		}
	}()
}

func (r *runner) stopSampler() {
	close(r.samplerStop)
	<-r.samplerDone
}

// counterTotals gathers the counter families whose per-wave deltas the wave
// stats report.
type counterTotals struct {
	vcacheHits, vcacheMisses int64
	retrans                  int64
}

func (r *runner) counterTotals() counterTotals {
	snap := r.reg.Snapshot()
	return counterTotals{
		vcacheHits:   slo.SumFamily(snap, obs.MVerifyCacheEvents, obs.L("result", "hit")),
		vcacheMisses: slo.SumFamily(snap, obs.MVerifyCacheEvents, obs.L("result", "miss")),
		retrans:      slo.SumFamily(snap, obs.MRetransmissions, obs.L("cause", obs.CauseTimeout)),
	}
}

// snapshotCounter sums one counter family across all label sets.
func (r *runner) snapshotCounter(name string) int64 {
	return slo.SumFamily(r.reg.Snapshot(), name)
}
