package core

import (
	"time"

	"argus/internal/obs"
	"argus/internal/transport"
)

// Op kinds: the indices of ops and cryptoOps.
const (
	sign = iota
	verify
	kexGen
	kexShared
	hmac
	cipher
	nOpKinds
)

// ops is the op ledger of one compute step: how many operations of each kind
// it performs, or waits out to keep its response time constant. It is written
// down once, and its engine's spend both counts it into argus_crypto_ops_total
// and charges Costs.Of it to the clock, so what is counted is what is charged.
type ops [nOpKinds]int

// Of returns the modeled compute time of o on the device class c.
func (c Costs) Of(o ops) time.Duration {
	per := [nOpKinds]time.Duration{c.Sign, c.Verify, c.KexGen, c.KexShared, c.HMAC, c.Cipher}
	var d time.Duration
	for k, n := range o {
		d += time.Duration(n) * per[k]
	}
	return d
}

// opLabels are the op label values of obs.MCryptoOps, by op kind.
var opLabels = [nOpKinds]string{"sign", "verify", "kex_gen", "kex_shared", "hmac", "cipher"}

// cryptoOps is a role's argus_crypto_ops_total series, by op kind.
type cryptoOps [nOpKinds]*obs.Counter

func newCryptoOps(reg *obs.Registry, role string) cryptoOps {
	var c cryptoOps
	for k, op := range opLabels {
		c[k] = reg.Counter(obs.MCryptoOps, "Cryptographic operations charged, by operation and role: performed, or waited out to keep response time constant.",
			obs.L("op", op), obs.L("role", role))
	}
	return c
}

// add counts o, touching only the series of the kinds it performs.
func (c *cryptoOps) add(o ops) {
	for k, n := range o {
		if n != 0 {
			c[k].Add(int64(n))
		}
	}
}

// nop is the task of a step no continuation follows — a hint block built, a
// query answered with silence — so that its ops are charged all the same.
type nop struct{}

func (nop) Run() {}

// ledger is an engine's hold on its endpoint: where it spends compute — the
// endpoint its steps are charged to, its device class's costs and, when
// instrumented, its role's argus_crypto_ops_total series (tally) — and what
// time it is. Each engine embeds one.
type ledger struct {
	ep    transport.Endpoint
	costs Costs
	tally *cryptoOps
}

// now is the validity clock, the endpoint's time of day (transport.Date):
// every window an engine checks (tickets, bound and known profiles, PROF)
// closes on it, on the simulator in virtual time, on Mesh and UDP on the wall
// clock read at the check. x509 checks CERT chains on the wall.
func (l *ledger) now() time.Time { return transport.Date(l.ep) }

// spend counts o and runs t once its modeled time, which it returns, has
// passed; a session task has one more step pending until then. A step nothing
// follows that costs nothing is not handed to Compute: on the simulator it
// would be an event that does nothing.
func (l *ledger) spend(o ops, t transport.Task) time.Duration {
	if l.tally != nil {
		l.tally.add(o)
	}
	cost := l.costs.Of(o)
	switch sess := t.(type) {
	case *subjSession:
		sess.pending++
	case *objSession:
		sess.pending++
	case nop:
		if cost == 0 {
			return 0
		}
	}
	l.ep.Compute(cost, t)
	return cost
}
