package load

import (
	"runtime"
	"time"

	"argus/internal/obs"
	"argus/internal/slo"
)

// buildReport starts from the snapshot-computable report over the run's own
// window of the registry — the same figures argus-ops and fleetcoord read —
// and adds what only the ledger knows.
func (r *runner) buildReport(wall time.Duration, leaked int64) *slo.Report {
	p := r.p
	rep := slo.SnapshotReport(obs.DiffSnapshots(r.reg.Snapshot(), r.before))
	rep.Profile = p.Name
	rep.Description = p.Description
	rep.Transport = string(p.Transport)
	rep.Seed = p.Seed
	rep.Fleet = slo.FleetStats{
		Cells:           p.Cells,
		SubjectsPerCell: p.SubjectsPerCell,
		ObjectsPerCell:  p.ObjectsPerCell,
		Subjects:        p.Subjects() + r.addedCount,
		Objects:         p.Objects(),
		Revoked:         r.revokedCount,
		Added:           r.addedCount,
		Crashed:         r.crashedCount,
		Roamed:          r.roamedCount,
		Sleepy:          r.fleet.sleepy,
	}
	rep.Waves = r.waves
	rep.PredictedSubjectExpiries = r.predictedSubjExpiries
	rep.Adversary = r.advReport
	rep.Covertness = r.covert

	// Collect before sampling so HeapAlloc reports live heap rather than an
	// arbitrary point in the GC cycle — raw samples on identical runs swung
	// ~2x depending on where the last collection landed.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rep.Totals.Late = r.drv.Late()
	rep.Totals.LevelMismatch = r.levelMismatch.Load()
	rep.Totals.PeakOpenHandshake = r.peakOpen.Load()
	rep.Totals.LeakedSessions = leaked
	rep.Totals.WallSeconds = wall.Seconds()
	rep.Totals.HeapAllocMB = float64(ms.HeapAlloc) / (1 << 20)
	if wall > 0 {
		rep.Totals.SessionsPerSecond = float64(rep.Totals.Completed) / wall.Seconds()
	}
	return rep
}
