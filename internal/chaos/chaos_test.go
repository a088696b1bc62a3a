package chaos

import (
	"fmt"
	"testing"
	"time"

	"argus/internal/attr"
	"argus/internal/backend"
	"argus/internal/core"
	"argus/internal/exp"
	"argus/internal/netsim"
	"argus/internal/obs"
	"argus/internal/suite"
	"argus/internal/wire"
)

// mixedLevels is the canonical deployment shape: all three visibility levels
// present at once (the 3-in-1 protocol's whole point).
var mixedLevels = []backend.Level{
	backend.L1, backend.L2, backend.L3, backend.L3, backend.L2, backend.L1,
}

// TestCompletenessUnderLoss is the headline property: below the loss
// threshold the retransmission machinery makes discovery complete — every
// object found at its provisioned level — and repeating a run with identical
// seeds reproduces identical results.
func TestCompletenessUnderLoss(t *testing.T) {
	for _, loss := range []float64{0.1, 0.2} {
		for _, seed := range []int64{1, 2, 3} {
			t.Run(fmt.Sprintf("loss=%.1f/seed=%d", loss, seed), func(t *testing.T) {
				sc := Scenario{
					Seed:   seed,
					Levels: mixedLevels,
					Faults: netsim.FaultModel{Loss: loss},
					Retry:  core.DefaultRetry(),
					Fellow: true,
				}
				out, err := Run(sc)
				if err != nil {
					t.Fatal(err)
				}
				if missing := out.Missing(mixedLevels); len(missing) > 0 {
					t.Fatalf("incomplete discovery (FaultLost=%d, retries should cover %v loss):\n%v",
						out.Stats.FaultLost, loss, missing)
				}
				if dups := out.Duplicates(); len(dups) > 0 {
					t.Fatalf("duplicate discovery records:\n%v", dups)
				}
				if out.Stats.FaultLost == 0 {
					t.Fatal("fault injection inactive: no frames were lost at 10%+ loss")
				}
				again, err := Run(sc)
				if err != nil {
					t.Fatal(err)
				}
				if out.Fingerprint() != again.Fingerprint() {
					t.Fatalf("identical seeds diverged:\nrun1:\n%srun2:\n%s",
						out.Fingerprint(), again.Fingerprint())
				}
				if out.VirtualTime != again.VirtualTime {
					t.Fatalf("virtual end times diverged: %v vs %v", out.VirtualTime, again.VirtualTime)
				}
			})
		}
	}
}

// TestCompletenessUnderLossWithResumption: the headline property again, for
// the sweeps after the first — when the subject holds a ticket for every
// Level 2/3 object and every handshake starts out resumed. A short QUE2 or
// its RES2 can be lost like any other frame, and the object ratchets when it
// answers, not when the answer arrives — so the retransmitted short QUE2 must
// be served the cached RES2 of a ticket already spent. Each later sweep alone
// finds every object at its level, exactly once a round, and nothing leaks.
// (A ticket stranded for good — the session expired unanswered — is
// core.TestDesyncAndEvictionCostOneFullHandshake; five QUE2 retries make it
// rarer than these seeds at 20 %.)
func TestCompletenessUnderLossWithResumption(t *testing.T) {
	const sweeps = 4
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			reg := obs.NewRegistry()
			out, err := Run(Scenario{
				Seed:     seed,
				Levels:   mixedLevels,
				Faults:   netsim.FaultModel{Loss: 0.2},
				Retry:    core.DefaultRetry(),
				Fellow:   true,
				Sweeps:   sweeps,
				Registry: reg,
				// Churn between the visits: one object is re-provisioned after
				// the first sweep and the subject after the second, so the next
				// sweep meets hints that match nothing and short RES1s nobody
				// holds a ticket for — under the same loss.
				Between: func(d *exp.Deployment, sweep int) {
					switch sweep {
					case 0:
						o := d.Objects[2] // a Level 3 one
						prov, err := d.Backend.ProvisionObject(o.ID())
						if err != nil {
							t.Fatal(err)
						}
						o.Refresh(prov)
					case 1:
						prov, err := d.Backend.ProvisionSubject(d.Subject.ID())
						if err != nil {
							t.Fatal(err)
						}
						d.Subject.Refresh(prov)
					}
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			all := out.Discoveries
			perSweep := all[len(all)-1].Round / sweeps
			for sweep := 1; sweep < sweeps; sweep++ {
				out.Discoveries = nil
				for _, d := range all {
					if (d.Round-1)/perSweep == sweep {
						out.Discoveries = append(out.Discoveries, d)
					}
				}
				if missing := out.Missing(mixedLevels); len(missing) > 0 {
					t.Fatalf("sweep %d incomplete (FaultLost=%d):\n%v", sweep+1, out.Stats.FaultLost, missing)
				}
				if dups := out.Duplicates(); len(dups) > 0 {
					t.Fatalf("sweep %d: duplicate discovery records:\n%v", sweep+1, dups)
				}
			}
			if out.SubjectPending != 0 || out.ObjectPending != 0 {
				t.Fatalf("leaked sessions: subject %d, objects %d", out.SubjectPending, out.ObjectPending)
			}
			resumed := resumptions(reg, "subject", "resumed")
			if resumed == 0 || resumptions(reg, "subject", "refused") == 0 {
				t.Fatal("no session of the run was resumed, or none refused: the property was not exercised")
			}
			t.Logf("resumed %d, refused %d, minted %d (subject side), %d frames lost",
				resumed, resumptions(reg, "subject", "refused"), resumptions(reg, "subject", "minted"), out.Stats.FaultLost)
		})
	}
}

// TestMidRoundChurnUnderLoss: the refusal that upgrades a short RES1 in place
// is three more frames that can each be lost. Every Level 2/3 object is
// re-provisioned the moment its first short RES1 of the second sweep is on the
// air — the ticket goes between RES1 and QUE2 — at 20 % loss; the sweep still
// finds everything, once, and no session leaks.
func TestMidRoundChurnUnderLoss(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			reg := obs.NewRegistry()
			churned, rounds := map[netsim.NodeID]bool{}, map[string]bool{}
			out, err := Run(Scenario{
				Seed:     seed,
				Levels:   mixedLevels,
				Faults:   netsim.FaultModel{Loss: 0.2},
				Retry:    core.DefaultRetry(),
				Fellow:   true,
				Sweeps:   2,
				Registry: reg,
				Snoop: func(d *exp.Deployment, from, _ netsim.NodeID, p []byte) {
					m, err := wire.Decode(p)
					if q, ok := m.(*wire.QUE1); ok {
						rounds[string(q.RS)] = true // a sweep is one round per group key
					}
					if r, ok := m.(*wire.RES1); err != nil || !ok || r.Mode != wire.ModeResume ||
						len(rounds) <= d.Subject.GroupCount() || churned[from] {
						return
					}
					churned[from] = true
					for i, node := range d.ObjNode {
						if node == from {
							prov, err := d.Backend.ProvisionObject(d.Objects[i].ID())
							if err != nil {
								t.Fatal(err)
							}
							d.Objects[i].Refresh(prov)
						}
					}
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(churned) != 4 {
				t.Fatalf("%d objects sent a short RES1 in the second sweep, want the 4 at Level 2/3", len(churned))
			}
			all := out.Discoveries
			half := all[len(all)-1].Round / 2
			out.Discoveries = nil
			for _, disc := range all {
				if disc.Round > half {
					out.Discoveries = append(out.Discoveries, disc)
				}
			}
			if missing := out.Missing(mixedLevels); len(missing) > 0 {
				t.Fatalf("churned sweep incomplete (FaultLost=%d):\n%v", out.Stats.FaultLost, missing)
			}
			if dups := out.Duplicates(); len(dups) > 0 {
				t.Fatalf("duplicate discovery records:\n%v", dups)
			}
			if out.SubjectPending != 0 || out.ObjectPending != 0 {
				t.Fatalf("leaked sessions: subject %d, objects %d", out.SubjectPending, out.ObjectPending)
			}
			if got := resumptions(reg, "object", "refused"); got < 4 {
				t.Fatalf("objects refused %d tickets, want one per churned object", got)
			}
		})
	}
}

// resumptions reads one argus_resumptions_total series.
func resumptions(reg *obs.Registry, side, result string) int64 {
	for _, m := range reg.Snapshot().Metrics {
		if m.Name == obs.MResumptions && m.Labels["side"] == side && m.Labels["result"] == result {
			return int64(m.Value)
		}
	}
	return 0
}

// TestGracefulDegradationAtExtremeLoss: at 50% and 100% loss — with
// corruption, duplication and reordering layered on top — the run must
// terminate in bounded virtual time with zero leaked sessions on either
// side; at total loss it must find exactly nothing.
func TestGracefulDegradationAtExtremeLoss(t *testing.T) {
	for _, loss := range []float64{0.5, 1.0} {
		t.Run(fmt.Sprintf("loss=%.1f", loss), func(t *testing.T) {
			out, err := Run(Scenario{
				Seed:   7,
				Levels: mixedLevels,
				Faults: netsim.FaultModel{
					Loss:          loss,
					Corrupt:       0.2,
					Duplicate:     0.2,
					ReorderJitter: 25 * time.Millisecond,
				},
				Retry:  core.DefaultRetry(),
				Fellow: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if out.SubjectPending != 0 {
				t.Fatalf("subject leaked %d sessions", out.SubjectPending)
			}
			if out.ObjectPending != 0 {
				t.Fatalf("objects leaked %d sessions", out.ObjectPending)
			}
			// Bounded virtual clock: rounds × (retry tail + SessionTTL) with
			// slack — a stuck retransmission loop would blow far past this.
			const clockBudget = 60 * time.Second
			if out.VirtualTime > clockBudget {
				t.Fatalf("virtual clock ran to %v (budget %v) — retransmission not terminating",
					out.VirtualTime, clockBudget)
			}
			if loss == 1.0 && len(out.Discoveries) != 0 {
				t.Fatalf("discovered %d services across a totally lossy network", len(out.Discoveries))
			}
		})
	}
}

// TestCrashRecoveryDuringRound: an object that crashes through the initial
// QUE1 is still discovered in the same round — a later QUE1 rebroadcast
// reaches it after recovery.
func TestCrashRecoveryDuringRound(t *testing.T) {
	levels := []backend.Level{backend.L2, backend.L2, backend.L2}
	out, err := Run(Scenario{
		Seed:   11,
		Levels: levels,
		Retry:  core.DefaultRetry(),
		// Crash object 0 from the start through the first QUE1 and its first
		// rebroadcast (350 ms); the 1050 ms rebroadcast finds it recovered.
		Crashes: []Crash{{Object: 0, At: 0, For: 600 * time.Millisecond}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if missing := out.Missing(levels); len(missing) > 0 {
		t.Fatalf("crashed-then-recovered object not rediscovered:\n%v", missing)
	}
	if out.Stats.CrashDrops == 0 {
		t.Fatal("crash window never dropped a frame — schedule ineffective")
	}
}

// TestCase7IndistinguishabilityUnderLoss re-runs the attack-test Case 7
// property with 20% loss and retransmission live: every QUE2 on the air
// (original or resend) must have one shape net of CERT_S whether the subject
// holds a real or a cover-up key, and every RES2 from the double-faced L3
// object must have one length whether it answers a fellow or not.
func TestCase7IndistinguishabilityUnderLoss(t *testing.T) {
	shapes := func(fellow bool) (que2 map[int]bool, res2 map[int]bool) {
		que2, res2 = make(map[int]bool), make(map[int]bool)
		_, err := Run(Scenario{
			Seed:   5,
			Levels: []backend.Level{backend.L3},
			Faults: netsim.FaultModel{Loss: 0.2},
			Retry:  core.DefaultRetry(),
			Fellow: fellow,
			Snoop: func(_ *exp.Deployment, _, _ netsim.NodeID, p []byte) {
				m, err := wire.Decode(p)
				if err != nil {
					return
				}
				switch v := m.(type) {
				case *wire.QUE2:
					if len(v.MACS3) != suite.MACSize {
						t.Error("v3.0 QUE2 on the air without MAC_{S,3}")
					}
					que2[len(p)-len(v.CertS)] = true
				case *wire.RES2:
					res2[len(p)] = true
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(que2) == 0 || len(res2) == 0 {
			t.Fatalf("no QUE2/RES2 captured (fellow=%v)", fellow)
		}
		return que2, res2
	}
	eq := func(a, b map[int]bool) bool {
		if len(a) != len(b) {
			return false
		}
		for k := range a {
			if !b[k] {
				return false
			}
		}
		return true
	}
	fq, fr := shapes(true)
	cq, cr := shapes(false)
	if len(fq) != 1 || len(fr) != 1 {
		t.Errorf("retransmitted copies changed shape: que2 lengths %v, res2 lengths %v", fq, fr)
	}
	if !eq(fq, cq) {
		t.Errorf("QUE2 shapes differ under loss: fellow %v vs cover-up %v (net of CERT)", fq, cq)
	}
	if !eq(fr, cr) {
		t.Errorf("RES2 lengths differ under loss: fellow %v vs non-fellow %v — length leaks Level 3", fr, cr)
	}
}

// TestDuplicationLeavesResultsExactlyOnce: heavy link-layer duplication plus
// loss must not double-record discoveries — handler idempotency, not luck.
func TestDuplicationLeavesResultsExactlyOnce(t *testing.T) {
	out, err := Run(Scenario{
		Seed:   13,
		Levels: mixedLevels,
		Faults: netsim.FaultModel{Loss: 0.1, Duplicate: 0.4},
		Retry:  core.DefaultRetry(),
		Fellow: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Stats.FaultDuplicated == 0 {
		t.Fatal("duplication never fired")
	}
	if dups := out.Duplicates(); len(dups) > 0 {
		t.Fatalf("duplicate discovery records:\n%v", dups)
	}
	if missing := out.Missing(mixedLevels); len(missing) > 0 {
		t.Fatalf("incomplete under duplication+loss:\n%v", missing)
	}
}

// TestNewcomerUnderLoss: the completeness claim for what a subject's answer
// ledger cannot show. The rebroadcast chain runs for peers that answered
// lately and, every eighth round, for anyone; so at 20 % loss an object that
// joins a known cell after the first sweep is found within eight sweeps —
// by a round's first QUE1, by a chain some other peer's lost frame set off,
// or at the latest by a blind round's — and an object that leaves costs the
// chain for eight rounds and then nothing: once it has dropped out of the
// ledger, a round that has found everyone still there sends no more QUE1.
func TestNewcomerUnderLoss(t *testing.T) {
	const within = 8 // core's blindEvery
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		t.Run(fmt.Sprintf("newcomer/seed=%d", seed), func(t *testing.T) {
			reg := obs.NewRegistry()
			var joined netsim.NodeID
			out, err := Run(Scenario{
				Seed: seed, Levels: mixedLevels, Faults: netsim.FaultModel{Loss: 0.2},
				Retry: core.DefaultRetry(), Fellow: true, Registry: reg,
				Sweeps: 1 + within,
				Between: func(d *exp.Deployment, sweep int) {
					if sweep != 0 {
						return
					}
					id, _, err := d.Backend.RegisterObject("newcomer", backend.L2, attr.MustSet("type=device,room=R1"), []string{"use"})
					if err != nil {
						t.Fatal(err)
					}
					prov, err := d.Backend.ProvisionObject(id)
					if err != nil {
						t.Fatal(err)
					}
					ep := d.Net.NewEndpoint()
					joined = ep.Node()
					core.NewObject(prov, wire.V30, core.Costs{}, core.WithEndpoint(ep),
						core.WithRetry(core.DefaultRetry()), core.WithTelemetry(reg, nil))
					d.Net.Link(d.SubjNode, joined)
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			found := 0
			for _, disc := range out.Discoveries {
				if disc.Node == netsim.AddrOf(joined) && disc.Level == core.L2 {
					found++
				}
			}
			if found == 0 {
				t.Fatalf("the newcomer was not found in %d sweeps (FaultLost=%d)", within, out.Stats.FaultLost)
			}
			if dups := out.Duplicates(); len(dups) > 0 {
				t.Fatalf("duplicate discovery records:\n%v", dups)
			}
			if out.SubjectPending != 0 || out.ObjectPending != 0 {
				t.Fatalf("leaked sessions: subject %d, objects %d", out.SubjectPending, out.ObjectPending)
			}
			t.Logf("found in %d of %d sweeps, %d frames lost", found, within, out.Stats.FaultLost)
		})

		t.Run(fmt.Sprintf("leaver/seed=%d", seed), func(t *testing.T) {
			const leaver, sweeps = 1, 1 + within + 4 // a Level 2 object; it answers the first sweep only
			// Per round, in order of first QUE1: when its last QUE1 was heard.
			var lastQUE1 []time.Duration
			rounds := map[string]int{}
			out, err := Run(Scenario{
				Seed: seed, Levels: mixedLevels, Faults: netsim.FaultModel{Loss: 0.2},
				Retry: core.DefaultRetry(), Fellow: true, Sweeps: sweeps,
				Between: func(d *exp.Deployment, sweep int) {
					if sweep == 0 {
						d.Net.Unlink(d.SubjNode, d.ObjNode[leaver])
					}
				},
				Snoop: func(d *exp.Deployment, _, _ netsim.NodeID, p []byte) {
					if m, err := wire.Decode(p); err == nil {
						if q, ok := m.(*wire.QUE1); ok {
							r, seen := rounds[string(q.RS)]
							if !seen {
								r = len(lastQUE1)
								rounds[string(q.RS)] = r
								lastQUE1 = append(lastQUE1, 0)
							}
							lastQUE1[r] = d.Net.Now()
						}
					}
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(lastQUE1) != sweeps {
				t.Fatalf("%d rounds on the air, want one per sweep (%d)", len(lastQUE1), sweeps)
			}
			if out.SubjectPending != 0 || out.ObjectPending != 0 {
				t.Fatalf("leaked sessions: subject %d, objects %d", out.SubjectPending, out.ObjectPending)
			}
			lastFound, found := make([]time.Duration, sweeps+1), make([]int, sweeps+1)
			for _, disc := range out.Discoveries {
				found[disc.Round]++
				lastFound[disc.Round] = max(lastFound[disc.Round], disc.At)
			}
			// A rebroadcast in flight when the last answer lands is heard up
			// to one QUE1 airtime (≈ 55 ms on these links) after it; one
			// decided after it would wait a light horizon (≥ 50 ms) more.
			const inFlight = 80 * time.Millisecond
			id := out.Deployment.Subject.ID()
			phase, quiet := int(id[len(id)-1])%within, 0 // blind when round%8 == phase
			for round := 2; round <= sweeps; round++ {
				chained := lastQUE1[round-1] > lastFound[round]+inFlight
				switch {
				case found[round] != len(mixedLevels)-1:
					// Loss kept a peer still there out of this round: the
					// chain ran for it, whatever the ledger says of the leaver.
				case round <= 1+within && !chained:
					t.Errorf("round %d: no QUE1 after the last discovery while the leaver is expected", round)
				case round > 1+within && round%within != phase:
					if quiet++; chained {
						t.Errorf("round %d: QUE1 at %v, %v after the round's last discovery: still asking for the leaver",
							round, lastQUE1[round-1], lastQUE1[round-1]-lastFound[round])
					}
				}
			}
			if quiet < 2 {
				t.Fatalf("only %d complete rounds after the leaver aged out: the property was not exercised", quiet)
			}
		})
	}
}
