package main

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"argus/internal/attr"
	"argus/internal/cert"
)

// Churn: writes beside the reads. One op revokes a live subject at the
// backend, pushes the signed revocation through each cell's gateway to every
// object in UpdateReport.NotifiedObjects (all 300 L2/L3 objects, Table I's
// "Rmv a subject": overhead N), re-keys the victim's covert group (the γ−1
// fellows and the cell's L3 object re-provision and Refresh) and attaches one
// replacement subject with cold credentials in the same cell, so the
// population stays at 1000.
//
// The other workloads apply ops back to back to the idle fleet in bursts around
// the phases, so that the churn metrics exist — and mean "apply latency with
// discovery idle" — on every workload.
const (
	churnRate = 4.0 // ops/s through both phases of the churn workload
	// churnGroup is how many consecutive ops make one window of
	// churn_apply_p50_ms.
	churnGroup = 4
)

// churnPick is one scheduled op: the cell and which of its subjects 1–4 goes.
// (subjects[0] is never a victim, so every cell keeps one founding fellow.)
type churnPick struct{ cell, pick int }

// churnSchedule is a pure function of the seed: cells in a seeded
// permutation, repeated as often as needed, so victims spread over the fleet.
func churnSchedule(seed int64, n int) []churnPick {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed_c4a1))
	out := make([]churnPick, 0, n)
	for len(out) < n {
		for _, c := range rng.Perm(nCells) {
			if len(out) == n {
				break
			}
			out = append(out, churnPick{cell: c, pick: rng.Intn(subjectsPerCell - 1)})
		}
	}
	return out
}

// churnOp is one revocation in flight; the objects' agents report into it.
type churnOp struct {
	tap       *tap
	due       int64 // tap clock
	pushStart int64
	remaining atomic.Int32
	done      chan struct{}

	mu      sync.Mutex
	lagMS   []float64 // push → apply, per notification
	applyMS float64   // due → last object applied
}

// applied runs on an object's event loop, after Object.Revoke.
func (op *churnOp) applied() {
	now := op.tap.now()
	op.mu.Lock()
	op.lagMS = append(op.lagMS, float64(now-op.pushStart)/1e6)
	op.mu.Unlock()
	if op.remaining.Add(-1) == 0 {
		op.mu.Lock()
		op.applyMS = float64(now-op.due) / 1e6
		op.mu.Unlock()
		close(op.done)
	}
}

// churnStats accumulates over the ops of one run.
type churnStats struct {
	applyMS  []float64 // per counted op, due → applied at all N objects
	lagMS    []float64 // per notification
	revokeUS []float64 // Backend.RevokeSubject, per op
	pushUS   []float64 // Distributor push, per notification (op mean)
	notified []float64 // len(NotifiedObjects), per op
	rekeyed  []float64 // re-keyed subject fellows, per op
	churnTally
	// uncounted tallies the ops outside the counted span (the closed phase
	// of the churn workload): run and checked, but not in ok_share.
	uncounted churnTally
}

// churnTally counts ops and replacements' first rounds, and those that failed.
type churnTally struct {
	attempted int
	failed    map[string]int
}

func newChurnStats() *churnStats {
	st := &churnStats{}
	st.failed = make(map[string]int)
	st.uncounted.failed = make(map[string]int)
	return st
}

// churnOnce performs one op, due at the given tap-clock instant, and blocks
// until every object applied it or the limit passed. A counted op goes into
// the apply-latency sample and the counted tally.
func (f *fleet) churnOnce(k int, p churnPick, due int64, counted bool, st *churnStats) error {
	tally := &st.uncounted
	if counted {
		tally = &st.churnTally
	}
	c := f.cells[p.cell]
	c.mu.RLock()
	victim := c.subjects[1+p.pick]
	c.mu.RUnlock()
	// The victim leaves the idle pool first; if a round is in flight it ends
	// within the limit.
	for !victim.state.CompareAndSwap(stIdle, stRetired) {
		time.Sleep(200 * time.Microsecond)
	}
	op := &churnOp{tap: f.tap, due: due, done: make(chan struct{})}
	f.churnOps.Store(victim.id, op)
	tally.attempted++

	c.rekey.Add(1)
	t0 := time.Now()
	rep, err := f.b.RevokeSubject(victim.id)
	if err != nil {
		return fmt.Errorf("revoke %s: %w", victim.name, err)
	}
	st.revokeUS = append(st.revokeUS, float64(time.Since(t0))/1e3)
	st.notified = append(st.notified, float64(len(rep.NotifiedObjects)))

	byCell := make(map[int][]cert.ID)
	for _, oid := range rep.NotifiedObjects {
		ci := f.objCell[oid]
		byCell[ci] = append(byCell[ci], oid)
	}
	op.remaining.Store(int32(len(rep.NotifiedObjects)))
	t1 := time.Now()
	op.pushStart = f.tap.now()
	for ci, ids := range byCell {
		if err := f.cells[ci].dist.RevokeSubject(victim.id, ids); err != nil {
			return err
		}
	}
	st.pushUS = append(st.pushUS, float64(time.Since(t1))/1e3/float64(len(rep.NotifiedObjects)))

	// Re-key: NotifiedSubjects lists the surviving fellows of the victim's
	// group — the cell's other subjects and, where it has one, its L3 object.
	var refreshed sync.WaitGroup
	fellows := 0
	for _, id := range rep.NotifiedSubjects {
		if oi, isObject := c.objIdx[id]; isObject {
			prov, err := f.b.ProvisionObject(id)
			if err != nil {
				return err
			}
			o := c.objects[oi]
			refreshed.Add(1)
			o.ep.Do(func() { o.eng.Refresh(prov); refreshed.Done() })
			continue
		}
		prov, err := f.b.ProvisionSubject(id)
		if err != nil {
			return err
		}
		fellows++
		c.mu.RLock()
		var s *slot
		for _, cand := range c.subjects {
			if cand.id == id {
				s = cand
			}
		}
		c.mu.RUnlock()
		if s == nil {
			return fmt.Errorf("re-keyed subject %v is not in cell %d", id, c.idx)
		}
		refreshed.Add(1)
		s.ep.Do(func() { s.eng.Refresh(prov); refreshed.Done() })
	}
	st.rekeyed = append(st.rekeyed, float64(fellows))
	refreshed.Wait()
	c.rekey.Add(1)
	victim.mu.Lock()
	victim.revoked = true
	victim.mu.Unlock()

	// Replacement, with cold credentials, in the victim's ring position.
	name := fmt.Sprintf("%s-r%d", victim.name, k)
	id, _, err := f.b.RegisterSubject(name, attr.MustSet("position=staff"))
	if err != nil {
		return err
	}
	if err := f.b.AddSubjectToGroup(id, c.group); err != nil {
		return err
	}
	prov, err := f.b.ProvisionSubject(id)
	if err != nil {
		return err
	}
	repl := f.newSubject(c, prov, name)
	repl.ringPos = victim.ringPos
	repl.state.Store(stBusy)
	first := make(chan string, 1) // one send: the first round's outcome
	repl.after = func(fail string) { first <- fail }
	c.mu.Lock()
	c.subjects[1+p.pick] = repl
	c.mu.Unlock()
	f.ring[repl.ringPos].Store(repl)
	f.retired = append(f.retired, victim)
	repl.fire(modeSingle, 0, f.tap.now())

	limit := time.NewTimer(time.Duration(due + int64(roundLimit) - f.tap.now()))
	defer limit.Stop()
	select {
	case <-op.done:
		op.mu.Lock()
		if counted {
			st.applyMS = append(st.applyMS, op.applyMS)
		}
		st.lagMS = append(st.lagMS, op.lagMS...)
		f.drv.noteOp(due, op.applyMS > float64(roundObjective)/1e6)
		op.mu.Unlock()
	case <-limit.C:
		tally.failed[failChurnLate]++
		f.drv.noteOp(due, true)
	}
	tally.attempted++
	if fail := <-first; fail != "" {
		tally.failed[failReplacement]++
	}
	return nil
}

// runChurn applies picks on the fixed schedule — op k is due k gaps after the
// start — until stop closes or the schedule ends; the first `counted` ops are
// the counted ones. The rest fall into the closed phase, where the saturated
// process cannot hold a schedule: there an op is due as scheduled or when the
// one before it ended, whichever is later. It owns the backend for as long as
// it runs.
func (f *fleet) runChurn(picks []churnPick, gap time.Duration, counted int, stop <-chan struct{}, st *churnStats) error {
	start := time.Now()
	base := f.tap.now()
	for k, p := range picks {
		off := time.Duration(k) * gap
		select {
		case <-stop:
			return nil
		case <-time.After(time.Until(start.Add(off))):
		}
		due := base + int64(off)
		if k >= counted {
			due = max(due, f.tap.now())
		}
		if err := f.churnOnce(k, p, due, k < counted, st); err != nil {
			return err
		}
	}
	return nil
}

// churnBurst applies picks back to back for length — each op is due the
// instant the one before it has been applied everywhere — and returns how
// many it got through.
func (f *fleet) churnBurst(picks []churnPick, length time.Duration, st *churnStats) (int, error) {
	end := time.Now().Add(length)
	for k, p := range picks {
		if !time.Now().Before(end) {
			return k, nil
		}
		if err := f.churnOnce(k, p, f.tap.now(), true, st); err != nil {
			return k, err
		}
	}
	return len(picks), nil
}

// finalRounds fires one last round on every revoked subject; the oracle in
// onDiscovery fails the run if any of them still discovers an L2/L3 service.
func (f *fleet) finalRounds() {
	for _, s := range f.retired {
		s.ep.Do(func() { _ = s.eng.Discover(1) })
	}
	// A refused QUE2 is answered with silence, so there is nothing to wait
	// for but time; every answer that does come arrives within milliseconds.
	time.Sleep(150 * time.Millisecond)
}
