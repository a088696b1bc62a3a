package core

// The op ledger (ledger.go): what an engine counts in argus_crypto_ops_total
// is what it charges its clock, on every path a discovery can take.

import (
	"testing"
	"time"

	"argus/internal/attr"
	"argus/internal/backend"
	"argus/internal/cert"
	"argus/internal/netsim"
	"argus/internal/obs"
	"argus/internal/suite"
	"argus/internal/transport"
	"argus/internal/wire"
)

// meter is an engine's simulator endpoint that sums the modeled time the
// engine hands Compute.
type meter struct {
	transport.Endpoint
	charged time.Duration
}

func (m *meter) Compute(cost time.Duration, t transport.Task) {
	m.charged += cost
	m.Endpoint.Compute(cost, t)
}

// Nonzero costs, distinct per op kind and role: an op counted and not
// charged, or charged and not counted, moves one sum and not the other.
var (
	ledgerSubjectCosts = Costs{Sign: 1100 * time.Microsecond, Verify: 1300 * time.Microsecond,
		KexGen: 700 * time.Microsecond, KexShared: 900 * time.Microsecond, HMAC: 3 * time.Microsecond, Cipher: 5 * time.Microsecond}
	ledgerObjectCosts = Costs{Sign: 1700 * time.Microsecond, Verify: 1900 * time.Microsecond,
		KexGen: 1100 * time.Microsecond, KexShared: 1300 * time.Microsecond, HMAC: 7 * time.Microsecond, Cipher: 11 * time.Microsecond}
)

// ledgerCell is one subject and one object under the default retry policy,
// each on a meter, sharing one registry.
type ledgerCell struct {
	t       *testing.T
	reg     *obs.Registry
	net     *netsim.Network
	subject *Subject
	object  *Object
	oprov   *backend.ObjectProvision
	sid     cert.ID
	sm, om  *meter
}

func newLedgerCell(t *testing.T, level Level, subjectAttrs string) *ledgerCell {
	t.Helper()
	b, err := backend.New(suite.S128)
	if err != nil {
		t.Fatal(err)
	}
	b.AddPolicy(attr.MustParse("position=='staff'"), attr.MustParse("type=='device'"), []string{"use"})
	c := &ledgerCell{t: t, reg: obs.NewRegistry(), net: netsim.New(netsim.DefaultWiFi(), 1)}
	if c.sid, _, err = b.RegisterSubject("alice", attr.MustSet(subjectAttrs)); err != nil {
		t.Fatal(err)
	}
	oid, _, err := b.RegisterObject("device", level, attr.MustSet("type=device"), []string{"use"})
	if err != nil {
		t.Fatal(err)
	}
	sprov, err := b.ProvisionSubject(c.sid)
	if err != nil {
		t.Fatal(err)
	}
	if c.oprov, err = b.ProvisionObject(oid); err != nil {
		t.Fatal(err)
	}
	opts := []Option{WithRetry(DefaultRetry()), WithTelemetry(c.reg, nil)}
	sep, oep := c.net.NewEndpoint(), c.net.NewEndpoint()
	c.net.Link(sep.Node(), oep.Node())
	c.sm, c.om = &meter{Endpoint: sep}, &meter{Endpoint: oep}
	c.subject = NewSubject(sprov, wire.V30, ledgerSubjectCosts, append(opts, WithEndpoint(c.sm))...)
	c.object = NewObject(c.oprov, wire.V30, ledgerObjectCosts, append(opts, WithEndpoint(c.om))...)
	c.subject.OnDiscovery = func(Discovery) { c.subject.CompleteRound() }
	return c
}

// round runs one discovery round to the end.
func (c *ledgerCell) round() {
	c.t.Helper()
	if err := c.subject.Discover(1); err != nil {
		c.t.Fatal(err)
	}
	c.net.Run(0)
}

// counted reads the ops a role's argus_crypto_ops_total series hold.
func (c *ledgerCell) counted(role string) ops {
	var o ops
	for k, op := range opLabels {
		o[k] = int(counterValue(c.t, c.reg, obs.MCryptoOps, obs.L("role", role), obs.L("op", op)))
	}
	return o
}

// TestLedgerChargesWhatItCounts walks every path a discovery can take, each
// on a fresh cell, and holds both engines to their ledger: the modeled time
// handed to Compute is the price of the ops counted, hint blocks and
// silences included.
func TestLedgerChargesWhatItCounts(t *testing.T) {
	const staff = "position=staff"
	// shown fails the row unless the path moved the outcome counter.
	shown := func(c *ledgerCell, name string, labels ...obs.Label) {
		c.t.Helper()
		if counterValue(c.t, c.reg, name, labels...) == 0 {
			c.t.Fatalf("the path was not taken: %s%v is 0", name, labels)
		}
	}
	rows := []struct {
		name  string
		level Level
		attrs string
		walk  func(c *ledgerCell)
	}{
		{"first contact", L2, staff, func(c *ledgerCell) {
			c.round()
			shown(c, obs.MResumptions, obs.L("side", "object"), obs.L("result", resultMinted))
		}},
		{"resumed", L2, staff, func(c *ledgerCell) {
			c.round()
			c.round()
			shown(c, obs.MResumptions, obs.L("side", "object"), obs.L("result", resultResumed))
		}},
		{"Level 1 public", L1, staff, func(c *ledgerCell) {
			c.round()
			shown(c, obs.MObjectQue1, obs.L("result", resultPublic))
		}},
		{"known answer", L1, staff, func(c *ledgerCell) {
			c.round()
			c.round()
			shown(c, obs.MObjectQue1, obs.L("result", resultKnown))
		}},
		{"refused ticket", L2, staff, func(c *ledgerCell) {
			c.round()
			c.object.Refresh(c.oprov) // flushes the object's tickets
			c.round()
			shown(c, obs.MResumptions, obs.L("side", "object"), obs.L("result", resultRefused))
		}},
		{"revoked hint", L2, staff, func(c *ledgerCell) {
			c.round()
			c.object.Revoke(c.sid)
			c.round()
			shown(c, obs.MObjectQue1, obs.L("result", resultRejected))
		}},
		{"policy silence", L2, "position=visitor", func(c *ledgerCell) {
			c.round()
			shown(c, obs.MObjectQue2, obs.L("result", resultSilent))
		}},
		{"hint block", L2, staff, func(c *ledgerCell) {
			c.round()
			before := c.counted("subject")[hmac]
			if err := c.subject.Discover(1); err != nil { // the block's step, and nothing run after it
				c.t.Fatal(err)
			}
			if got := c.counted("subject")[hmac] - before; got != 1 {
				c.t.Fatalf("a one-ticket hint block counted %d HMACs, want 1", got)
			}
		}},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			c := newLedgerCell(t, r.level, r.attrs)
			r.walk(c)
			for _, e := range []struct {
				role  string
				m     *meter
				costs Costs
			}{{"subject", c.sm, ledgerSubjectCosts}, {"object", c.om, ledgerObjectCosts}} {
				counted := c.counted(e.role)
				if want := e.costs.Of(counted); e.m.charged != want {
					t.Errorf("%s charged %v for the ops it counted %v, which cost %v", e.role, e.m.charged, counted, want)
				}
			}
		})
	}
}

// TestIdleStepAllocatesNothing: a step nothing follows that costs nothing —
// a hint block or a silence under zero Costs, as in the benchmark — is counted
// and puts no event on the simulator, so spending it allocates nothing.
func TestIdleStepAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under -race measure the detector")
	}
	reg := obs.NewRegistry()
	tally := newCryptoOps(reg, "subject")
	l := &ledger{ep: netsim.New(netsim.DefaultWiFi(), 1).NewEndpoint(), tally: &tally}
	if n := testing.AllocsPerRun(100, func() { l.spend(ops{hmac: 8}, nop{}) }); n != 0 {
		t.Errorf("an idle step allocates %v times", n)
	}
	if got := counterValue(t, reg, obs.MCryptoOps, obs.L("op", opLabels[hmac])); got != 8*101 {
		t.Errorf("idle steps counted %d HMACs, want %d", got, 8*101)
	}
}
