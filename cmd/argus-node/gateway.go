package main

import (
	"fmt"
	"strings"
	"time"

	"argus/internal/backendsvc"
	"argus/internal/cert"
	"argus/internal/transport"
	"argus/internal/update"
)

// gwTarget is one update destination the gateway pushes to.
type gwTarget struct {
	name string
	id   cert.ID
	addr transport.Addr
}

// runGateway hosts the update plane's distribution side as a daemon: a
// Distributor over UDP pushing signed notifications to a fixed target set.
// -reprovision-every drives a periodic push; -offline parks the named
// targets' copies in the per-destination dead-letter queue, and
// -reattach-after (or graceful shutdown) reattaches them so the backlog
// redelivers in order. SIGTERM/SIGINT stops the pushes, drains every queue,
// flushes the obs plane, and exits 0 — the DLQ depth gauge reads zero in the
// final snapshot or the exit is an error.
//
// -dlq-log makes the dead-letter queue durable: every park, eviction and
// drain is journaled (fsynced) to the named file, and on startup the journal
// is folded back — restored destinations start offline with their backlog
// intact, and the usual reattach paths redeliver it.
func runGateway(snapshot, targets, offline, dlqLog string, every, reattachAfter, duration time.Duration, op *obsPlane) error {
	if targets == "" {
		return fmt.Errorf("-role gateway needs -targets")
	}
	b, err := restore(snapshot)
	if err != nil {
		return err
	}
	var tgts []gwTarget
	var peerAddrs []string
	for _, pair := range strings.Split(targets, ",") {
		name, addr, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok || addr == "" {
			return fmt.Errorf("bad -targets entry %q (want name=host:port)", pair)
		}
		tgts = append(tgts, gwTarget{name: name, id: cert.IDFromName(name), addr: transport.Addr(addr)})
		peerAddrs = append(peerAddrs, addr)
	}
	ep, err := transport.ListenUDP(transport.UDPConfig{
		Listen: "127.0.0.1:0", Peers: peerAddrs, Registry: op.Registry,
	})
	if err != nil {
		return err
	}
	defer ep.Close()
	ep.Bind(transport.HandlerFunc(func(transport.Addr, []byte) {})) // drain strays

	var distOpts []update.DistributorOption
	var restored map[cert.ID][]*update.Notification
	if dlqLog != "" {
		jl, parked, err := backendsvc.OpenDLQLog(dlqLog)
		if err != nil {
			return fmt.Errorf("-dlq-log: %w", err)
		}
		defer jl.Close()
		distOpts = append(distOpts, update.WithDLQJournal(jl))
		restored = parked
	}
	dist := update.NewDistributor(b.Admin(), ep, distOpts...)
	dist.Instrument(op.Registry)
	ids := make([]cert.ID, 0, len(tgts))
	for _, t := range tgts {
		dist.Register(t.id, t.addr)
		ids = append(ids, t.id)
	}
	down := map[string]bool{}
	for _, n := range strings.Split(offline, ",") {
		if n = strings.TrimSpace(n); n != "" {
			down[n] = true
		}
	}
	if len(restored) > 0 {
		if err := dist.RestoreParked(restored); err != nil {
			return fmt.Errorf("-dlq-log: %w", err)
		}
		// Restored destinations are offline until reattached; fold them into
		// the -offline set so the reattach paths drain their backlog too.
		n := 0
		for _, t := range tgts {
			if q := restored[t.id]; len(q) > 0 {
				down[t.name] = true
				n += len(q)
			}
		}
		fmt.Printf("dlq-log restored=%d depth=%d\n", n, dist.DLQDepth())
	}
	for _, t := range tgts {
		if down[t.name] {
			dist.MarkOffline(t.id)
		}
	}
	// Trap before announcing readiness: a harness that synchronizes on the
	// line below may signal immediately (see trapStop in main.go).
	stop, release := trapStop()
	defer release()
	fmt.Printf("gateway targets=%d offline=%d\n", len(tgts), len(down))
	var tick <-chan time.Time
	if every > 0 {
		tk := time.NewTicker(every)
		defer tk.Stop()
		tick = tk.C
	}
	var reattach <-chan time.Time
	if reattachAfter > 0 && len(down) > 0 {
		reattach = time.After(reattachAfter)
	}
	var timeUp <-chan time.Time
	if duration > 0 {
		timeUp = time.After(duration)
	}

	doReattach := func() {
		for _, t := range tgts {
			if !down[t.name] {
				continue
			}
			n := dist.Reattach(t.id, t.addr)
			down[t.name] = false
			fmt.Printf("reattached name=%s redelivered=%d\n", t.name, n)
		}
	}

loop:
	for {
		select {
		case <-tick:
			if err := dist.Reprovision(ids); err != nil {
				return err
			}
			fmt.Printf("pushed kind=reprovision targets=%d parked=%d\n", len(ids), dist.DLQDepth())
		case <-reattach:
			doReattach()
		case <-timeUp:
			break loop
		case <-stop:
			break loop
		}
	}

	// Graceful drain: reattach anything still offline so its backlog
	// redelivers, then hold the exit until the queues report empty.
	doReattach()
	if !transport.Poll(10*time.Second, transport.DefaultPollStep, func() bool {
		return dist.DLQDepth() == 0
	}) {
		op.flush()
		return fmt.Errorf("dead-letter queue not drained: depth %d", dist.DLQDepth())
	}
	fmt.Printf("drained depth=0 redelivered=%d\n", dist.Redelivered())
	return op.flush()
}
