package adversary

import (
	"fmt"
	"time"

	"argus/internal/attr"
	"argus/internal/backend"
	"argus/internal/obs"
	"argus/internal/slo"
	"argus/internal/suite"
	"argus/internal/transport"
	"argus/internal/wire"
)

// RogueProvision mints a subject credential bundle from a rogue backend —
// Wu et al.'s unprovisioned adversary: the certificate chain and the
// attribute profile are internally consistent but anchor to the wrong CA,
// so every honest object must reject it at certificate verification,
// before any session crypto is spent.
func RogueProvision(strength suite.Strength) (*backend.SubjectProvision, error) {
	rogue, err := backend.New(strength)
	if err != nil {
		return nil, err
	}
	id, _, err := rogue.RegisterSubject("sybil", attr.MustSet("position=staff"))
	if err != nil {
		return nil, err
	}
	return rogue.ProvisionSubject(id)
}

// ExecuteSybil floods one cell with rounds of unprovisioned discovery
// traffic. Each round joins the segment as a fresh identity (so straggling
// RES1s are always attributable to that identity's single R_S), broadcasts
// a QUE1, waits for the responders to settle, and answers every secure
// RES1 with a forged QUE2 carrying the rogue credentials. join must return
// unbound endpoints on the target cell's segment.
func ExecuteSybil(join func() (transport.Endpoint, error), prov *backend.SubjectProvision,
	rounds int, timeout time.Duration, reg *obs.Registry) (slo.SybilStats, error) {

	injQue1 := reg.Counter(obs.MAdversaryInjected,
		"Frames injected by adversarial personas.",
		obs.L("persona", PersonaSybil), obs.L("msg", "que1"))
	injQue2 := reg.Counter(obs.MAdversaryInjected,
		"Frames injected by adversarial personas.",
		obs.L("persona", PersonaSybil), obs.L("msg", "que2"))

	// Garbage key-exchange material, signature and MACs: rejection happens
	// at certificate verification, before any of these are inspected. Fixed
	// bytes keep fixed-seed runs deterministic.
	junk := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = 0x5b
		}
		return b
	}

	var stats slo.SybilStats
	for r := 0; r < rounds; r++ {
		ep, err := join()
		if err != nil {
			return stats, fmt.Errorf("sybil: join: %w", err)
		}
		rec := newRecorder()
		ep.Bind(rec)
		stats.Identities++

		rs, err := suite.NewNonce(nil)
		if err != nil {
			ep.Close()
			return stats, err
		}
		que1 := (&wire.QUE1{Version: wire.V30, RS: rs}).Encode()
		ep.Do(func() { ep.Broadcast(que1, 1) })
		injQue1.Inc()
		stats.Broadcasts++

		// Wait for the cell's objects to answer; under honest load the
		// responder count is unknowable a priori, so settle on quiescence.
		rec.settle(30*time.Millisecond, timeout)

		rec.mu.Lock()
		responders := make(map[transport.Addr]wire.ResponseMode)
		for from, frames := range rec.frames {
			for _, f := range frames {
				msg, err := wire.Decode(f)
				if err != nil {
					continue
				}
				if m, ok := msg.(*wire.RES1); ok {
					responders[from] = m.Mode
				}
			}
		}
		rec.mu.Unlock()

		for from, mode := range responders {
			if mode == wire.ModePublic {
				stats.PublicRes1++
				continue
			}
			stats.SecureRes1++
			que2 := &wire.QUE2{
				Version: wire.V30,
				RS:      rs,
				ProfS:   prov.Profile.Encode(),
				CertS:   prov.CertDER,
				KEXMS:   junk(65),
				Sig:     junk(70),
				MACS2:   junk(suite.MACSize),
				MACS3:   junk(suite.MACSize),
			}
			enc := que2.Encode()
			target := from
			ep.Do(func() { ep.Send(target, enc) })
			injQue2.Inc()
			stats.Forged++
		}

		// Barrier: wait until every queued Send has executed on our event
		// loop (the frames are then in the targets' mailboxes) before the
		// identity disappears, as a hit-and-run attacker would.
		done := make(chan struct{})
		ep.Do(func() { close(done) })
		select {
		case <-done:
		case <-time.After(timeout):
		}
		ep.Close()
	}
	return stats, nil
}
