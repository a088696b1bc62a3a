package backendclient

import (
	"context"
	"fmt"
	"testing"

	"argus/internal/attr"
	"argus/internal/backend"
	"argus/internal/cert"
	"argus/internal/scale"
)

// TestTable1OverheadOverService holds the backend service to §VIII's updating
// overhead (Table I): each churn operation, driven through backend.Service on
// a tenant with two worker shards, touches exactly as many entities as
// scale.Of(SchemeArgus, …) says — in process and over /v1 alike.
func TestTable1OverheadOverService(t *testing.T) {
	const n, beta, gamma = 12, 5, 4
	want := scale.Of(scale.SchemeArgus, scale.Params{N: n, Alpha: 1, Beta: beta, Gamma: gamma, XiO: 1, XiS: 1})
	staff := attr.MustSet("position=staff")

	for _, remote := range []bool{false, true} {
		placement := "in-process"
		if remote {
			placement = "over-v1"
		}
		t.Run(placement, func(t *testing.T) {
			c, tn := harness(t, 2)
			var svc backend.Service = tn
			if remote {
				svc = c
			}
			ctx := context.Background()

			// One staff→device policy makes every staff subject's accessible
			// set exactly the n devices; the β sensors back the policy ops.
			if _, _, err := svc.AddPolicy(ctx, attr.MustParse("position=='staff'"),
				attr.MustParse("type=='device'"), []string{"use"}); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				if _, _, err := svc.RegisterObject(ctx, fmt.Sprintf("dev-%d", i), backend.L2,
					attr.MustSet("type=device"), []string{"use"}); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < beta; i++ {
				if _, _, err := svc.RegisterObject(ctx, fmt.Sprintf("sensor-%d", i), backend.L2,
					attr.MustSet("type=sensor"), []string{"read"}); err != nil {
					t.Fatal(err)
				}
			}

			var pid uint64
			ops := []struct {
				name string
				want int
				// contact is the one backend contact Table I counts for adding
				// a subject, which touches no ground entity.
				contact int
				run     func() (backend.UpdateReport, error)
			}{
				{"add subject", want.AddSubject, 1, func() (backend.UpdateReport, error) {
					_, r, err := svc.RegisterSubject(ctx, "newcomer", staff)
					return r, err
				}},
				{"remove subject", want.RemoveSubject, 0, func() (backend.UpdateReport, error) {
					id, _, err := svc.RegisterSubject(ctx, "leaver", staff)
					if err != nil {
						return backend.UpdateReport{}, err
					}
					return svc.RevokeSubject(ctx, id)
				}},
				{"add object", want.AddObject, 0, func() (backend.UpdateReport, error) {
					_, r, err := svc.RegisterObject(ctx, "isolated", backend.L2,
						attr.MustSet("type=isolated"), []string{"use"})
					return r, err
				}},
				{"add policy", want.AddPolicy, 0, func() (backend.UpdateReport, error) {
					var r backend.UpdateReport
					var err error
					pid, r, err = svc.AddPolicy(ctx, attr.MustParse("position=='auditor'"),
						attr.MustParse("type=='sensor'"), []string{"read"})
					return r, err
				}},
				{"remove policy", want.RemovePolicy, 0, func() (backend.UpdateReport, error) {
					return svc.RemovePolicy(ctx, pid)
				}},
				// The fellows match no policy, so revoking one isolates the γ−1
				// re-keyed fellows from object notifications.
				{"remove group member", want.RemoveGroupMember, 0, func() (backend.UpdateReport, error) {
					gid, err := svc.CreateGroup(ctx, "fellows")
					if err != nil {
						return backend.UpdateReport{}, err
					}
					var victim cert.ID
					for k := 0; k < gamma; k++ {
						id, _, err := svc.RegisterSubject(ctx, fmt.Sprintf("fellow-%d", k), attr.MustSet("position=fellow"))
						if err != nil {
							return backend.UpdateReport{}, err
						}
						if err := svc.AddSubjectToGroup(ctx, id, gid); err != nil {
							return backend.UpdateReport{}, err
						}
						if k == 0 {
							victim = id
						}
					}
					return svc.RevokeSubject(ctx, victim)
				}},
			}
			for _, op := range ops {
				r, err := op.run()
				if err != nil {
					t.Fatalf("%s: %v", op.name, err)
				}
				if got := op.contact + r.Total(); got != op.want {
					t.Errorf("%s: overhead %d, Table I says %d (%+v)", op.name, got, op.want, r)
				}
			}
		})
	}
}
