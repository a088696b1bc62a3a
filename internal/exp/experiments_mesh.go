package exp

import (
	"fmt"
	"time"

	"argus/internal/attr"
	"argus/internal/backend"
	"argus/internal/core"
	"argus/internal/suite"
	"argus/internal/transport"
	"argus/internal/wire"
)

func init() {
	register("mesh-throughput", runMeshThroughput)
}

// runMeshThroughput measures discovery throughput on the wall clock: the
// concurrent in-memory Mesh transport, one actor goroutine per node, real
// crypto, no virtual-time modeling. Where the simulator experiments (fig6e–h)
// answer "how long would discovery take on the paper's radios", this one
// answers "how many verified discoveries per second does the engine itself
// sustain" — the number that bounds a gateway-class deployment
// (§II-C's thousands-of-devices estimates).
func runMeshThroughput(quick bool) (*Result, error) {
	res := &Result{
		ID:      "mesh-throughput",
		Title:   "Wall-clock discovery throughput on the concurrent Mesh transport",
		Paper:   "extension experiment: the paper reports per-discovery latency on simulated radios (Fig 6e); this measures engine-bound throughput with transport cost removed",
		Columns: []string{"objects", "rounds", "wall time", "discoveries/s"},
	}
	counts := []int{4, 16, 32}
	rounds := 5
	if quick {
		counts = []int{8}
		rounds = 2
	}
	retry := core.RetryPolicy{Que1Retries: 3, Que2Retries: 3,
		Timeout: 100 * time.Millisecond, SessionTTL: 5 * time.Second}

	for _, n := range counts {
		b, err := backend.New(suite.S128)
		if err != nil {
			return nil, err
		}
		if _, _, err := b.AddPolicy(mustPred("position=='staff'"),
			mustPred("type=='device'"), []string{"use"}); err != nil {
			return nil, err
		}
		sid, _, err := b.RegisterSubject("alice", attr.MustSet("position=staff"))
		if err != nil {
			return nil, err
		}
		mesh := transport.NewMesh()
		sprov, err := b.ProvisionSubject(sid)
		if err != nil {
			return nil, err
		}
		sep := mesh.Join()
		subj := core.NewSubject(sprov, wire.V30, core.Costs{},
			core.WithEndpoint(sep), core.WithRetry(retry))
		for i := 0; i < n; i++ {
			oid, _, err := b.RegisterObject(fmt.Sprintf("device-%02d", i), backend.L2,
				attr.MustSet("type=device"), []string{"use"})
			if err != nil {
				return nil, err
			}
			prov, err := b.ProvisionObject(oid)
			if err != nil {
				return nil, err
			}
			core.NewObject(prov, wire.V30, core.Costs{},
				core.WithEndpoint(mesh.Join()), core.WithRetry(retry))
		}

		start := time.Now()
		for r := 0; r < rounds; r++ {
			want := (r + 1) * n
			sep.Do(func() { subj.Discover(1) })
			deadline := time.Now().Add(30 * time.Second)
			for len(subj.Results()) < want {
				if time.Now().After(deadline) {
					mesh.Close()
					return nil, fmt.Errorf("mesh-throughput: round %d stalled at %d/%d discoveries",
						r, len(subj.Results()), want)
				}
				time.Sleep(time.Millisecond)
			}
		}
		elapsed := time.Since(start)
		total := rounds * n
		rate := float64(total) / elapsed.Seconds()
		res.AddRow(n, rounds, fmtDur(elapsed), fmt.Sprintf("%.0f", rate))
		mesh.Close()
	}
	res.Notes = append(res.Notes,
		"every discovery is a full 4-way handshake with real ECDSA/ECDH at 128-bit strength; throughput is crypto-bound, and objects answer a round's interleaved handshakes in parallel (one goroutine each), so discoveries/s grows with the cell size until cores saturate")
	return res, nil
}
