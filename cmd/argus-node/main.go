// Command argus-node runs one Argus entity — a subject or one or more
// objects — as a real OS process speaking the discovery protocol over UDP.
// It is the transport abstraction's proof of life: the same engines that
// replay deterministically inside the simulator complete L1/L2/L3 discovery
// between processes on a real network. It is the daemon and nothing else: it
// links the engines, their transports and their credential sources, none of
// the load harness (scripts/check_deps.sh holds it to that).
//
// Enterprise state comes from one of two sources. The default is a backend
// snapshot file (internal/backend persistence): -init provisions a small demo
// enterprise and writes the snapshot; node processes restore it to obtain
// their credentials, so every process chains to the same trust anchor without
// a live backend server. Alternatively -backend points at a running
// argus-backend service: the subject and object roles then fetch their trust
// anchor and provisioning bundles over the versioned /v1 HTTP API
// (-tenant/-auth-key select and unlock the namespace), byte-identical to the
// snapshot path. The gateway role always needs -snapshot — it signs update
// notifications, and the admin private key never leaves the backend.
//
// Usage:
//
//	argus-node -init -snapshot enterprise.snap
//	argus-node -role object -names thermometer,printer,kiosk \
//	    -snapshot enterprise.snap -listen 127.0.0.1:0
//	argus-node -role subject -name alice -snapshot enterprise.snap \
//	    -listen 127.0.0.1:0 -peers 127.0.0.1:7101,127.0.0.1:7102 \
//	    -ttl 1 -expect thermometer=L1,printer=L2,kiosk=L3 -timeout 30s
//
// The object daemon prints one "listening name=<name> addr=<host:port>" line
// per engine and serves until killed (or -duration elapses). The subject runs
// discovery rounds until every -expect entry is met (exit 0) or -timeout
// passes (exit 1), printing one "discovered name=... level=..." line per
// verified service.
//
// Every role carries a streaming ops plane: -obs serves /metrics, /trace.json
// and a live /events stream (NDJSON or SSE; tail it with argus-ops), and
// -obs-out flushes a final registry snapshot on exit. Shutdown is graceful on
// SIGTERM/SIGINT: daemons stop taking work, the gateway reattaches and drains
// its dead-letter queues, the final snapshot is published and written, and
// the process exits 0.
//
//	argus-node -role gateway -snapshot enterprise.snap \
//	    -targets printer=127.0.0.1:7102,kiosk=127.0.0.1:7103 \
//	    -reprovision-every 1s -offline printer -reattach-after 5s
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"argus/internal/attr"
	"argus/internal/backend"
	"argus/internal/backendclient"
	"argus/internal/cert"
	"argus/internal/core"
	"argus/internal/suite"
	"argus/internal/transport"
	"argus/internal/update"
	"argus/internal/wire"
)

func main() {
	var (
		doInit   = flag.Bool("init", false, "create the demo enterprise and write -snapshot")
		snapshot = flag.String("snapshot", "enterprise.snap", "backend snapshot file")
		backendU = flag.String("backend", "", "argus-backend base URL; subject/object source credentials over HTTP instead of -snapshot")
		tenant   = flag.String("tenant", "demo", "tenant namespace on -backend")
		authKey  = flag.String("auth-key", "", "tenant auth key for -backend")
		role     = flag.String("role", "", "subject | object | gateway")
		name     = flag.String("name", "alice", "subject entity name")
		names    = flag.String("names", "", "comma-separated object entity names")
		listen   = flag.String("listen", "127.0.0.1:0", "UDP listen address (\":0\" picks a port)")
		peers    = flag.String("peers", "", "comma-separated peer addresses (the subject's radio range)")
		ttl      = flag.Int("ttl", 1, "discovery broadcast TTL")
		expect   = flag.String("expect", "", "name=level pairs the subject must discover, e.g. printer=L2,kiosk=L3")
		timeout  = flag.Duration("timeout", 30*time.Second, "subject: give up after this long")
		duration = flag.Duration("duration", 0, "object/gateway: serve for this long then exit (0 = forever)")
		obsAddr  = flag.String("obs", "", "serve /metrics, /trace.json and /events on this address (\":0\" picks a port)")
		obsOut   = flag.String("obs-out", "", "write the final obs snapshot JSON here on exit")
		linger   = flag.Duration("linger", 0, "subject: keep serving the obs plane this long after expectations are met")

		targets       = flag.String("targets", "", "gateway: comma-separated name=host:port update destinations")
		reprovEvery   = flag.Duration("reprovision-every", 0, "gateway: push a reprovision notification to every target at this interval")
		offline       = flag.String("offline", "", "gateway: target names initially offline — their pushes park in the dead-letter queue")
		reattachAfter = flag.Duration("reattach-after", 0, "gateway: reattach the -offline targets after this delay")
		dlqLog        = flag.String("dlq-log", "", "gateway: journal the dead-letter queue to this file so parked notifications survive a crash")
	)
	flag.Parse()

	var err error
	switch {
	case *doInit:
		err = initEnterprise(*snapshot)
	case *role == "object" || *role == "subject" || *role == "gateway":
		var op *obsPlane
		op, err = newObsPlane(*obsAddr, *obsOut)
		if err != nil {
			break
		}
		switch *role {
		case "object":
			err = runObjects(nodeService(*backendU, *tenant, *authKey, *snapshot), *names, *listen, *duration, op)
		case "subject":
			err = runSubject(nodeService(*backendU, *tenant, *authKey, *snapshot), *name, *listen, *peers, *ttl, *expect, *timeout, *linger, op)
		case "gateway":
			err = runGateway(*snapshot, *targets, *offline, *dlqLog, *reprovEvery, *reattachAfter, *duration, op)
		}
	default:
		err = fmt.Errorf("need -init or -role subject|object|gateway (got %q)", *role)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "argus-node: %v\n", err)
		os.Exit(1)
	}
}

// trapStop subscribes to SIGTERM/SIGINT and returns the channel plus its
// release. Call it BEFORE announcing readiness (the "listening" lines a
// harness synchronizes on): a signal that lands between the announcement
// and the subscription would otherwise kill the process with the default
// disposition instead of the graceful path.
func trapStop() (<-chan os.Signal, func()) {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	return sig, func() { signal.Stop(sig) }
}

// awaitStop blocks until a trapped signal arrives, or until d elapses when
// d > 0 — the graceful-shutdown door every daemon role exits through.
func awaitStop(sig <-chan os.Signal, d time.Duration) {
	if d > 0 {
		select {
		case <-sig:
		case <-time.After(d):
		}
		return
	}
	<-sig
}

// initEnterprise provisions the demo deployment the quickstart and the e2e
// test speak to: one staff subject, one object per visibility level, and a
// secret group making the subject a fellow of the kiosk's covert service.
func initEnterprise(path string) error {
	b, err := backend.New(suite.S128)
	if err != nil {
		return err
	}
	if _, _, err := b.AddPolicy(attr.MustParse("position=='staff'"),
		attr.MustParse("type=='printer'"), []string{"print"}); err != nil {
		return err
	}
	sid, _, err := b.RegisterSubject("alice", attr.MustSet("position=staff"))
	if err != nil {
		return err
	}
	if _, _, err := b.RegisterObject("thermometer", backend.L1,
		attr.MustSet("type=thermometer"), []string{"read-temperature"}); err != nil {
		return err
	}
	if _, _, err := b.RegisterObject("printer", backend.L2,
		attr.MustSet("type=printer"), []string{"print"}); err != nil {
		return err
	}
	kid, _, err := b.RegisterObject("kiosk", backend.L3,
		attr.MustSet("type=kiosk"), []string{"use"})
	if err != nil {
		return err
	}
	g, err := b.Groups.CreateGroup("fellows")
	if err != nil {
		return err
	}
	if err := b.AddCovertService(kid, g.ID(), []string{"use", "covert-bulletin"}); err != nil {
		return err
	}
	if err := b.AddSubjectToGroup(sid, g.ID()); err != nil {
		return err
	}
	if err := os.WriteFile(path, b.Snapshot(), 0o600); err != nil {
		return err
	}
	fmt.Printf("snapshot %s: subject alice; objects thermometer (L1), printer (L2), kiosk (L3, covert group %q)\n",
		path, "fellows")
	return nil
}

func restore(path string) (*backend.Backend, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return backend.Restore(blob)
}

// nodeService picks the credential source for the subject and object roles:
// a live argus-backend over HTTP when -backend is set, the snapshot file
// otherwise. Deferred behind a thunk so flag validation errors surface from
// the role that needs them.
func nodeService(backendURL, tenant, authKey, snapshot string) func() (backend.Service, error) {
	return func() (backend.Service, error) {
		if backendURL != "" {
			return backendclient.New(backendURL, tenant, authKey), nil
		}
		b, err := restore(snapshot)
		if err != nil {
			return nil, err
		}
		return backend.NewLocal(b), nil
	}
}

// objHolder lets the update agent's apply callback (wired before the engine
// exists) reach the engine built one statement later; the write happens
// before any notification can be enqueued.
type objHolder struct{ obj *core.Object }

// runObjects hosts one engine per name, each on its own UDP socket (one
// socket = one node identity) with an update agent in front, and serves
// until SIGTERM/SIGINT (or -duration), then flushes the obs plane.
func runObjects(src func() (backend.Service, error), names, listen string, duration time.Duration, op *obsPlane) error {
	if names == "" {
		return fmt.Errorf("-role object needs -names")
	}
	svc, err := src()
	if err != nil {
		return err
	}
	sig, release := trapStop()
	defer release()
	ctx := context.Background()
	anchor, err := svc.TrustAnchor(ctx)
	if err != nil {
		return fmt.Errorf("trust anchor: %w", err)
	}
	adminPub, err := anchor.PublicKey()
	if err != nil {
		return fmt.Errorf("trust anchor: %w", err)
	}
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		prov, err := svc.ProvisionObject(ctx, cert.IDFromName(n))
		if err != nil {
			return fmt.Errorf("provision %q: %w", n, err)
		}
		ep, err := transport.ListenUDP(transport.UDPConfig{Listen: listen, Registry: op.Registry})
		if err != nil {
			return err
		}
		defer ep.Close()
		hold := &objHolder{}
		agent := update.NewAgent(adminPub, nil, func(nt *update.Notification) {
			// Runs on the object's event loop, where Revoke is legal.
			if nt.Kind == update.KindRevokeSubject && hold.obj != nil {
				hold.obj.Revoke(nt.Subject)
			}
		})
		agent.Instrument(op.Registry, nil)
		hold.obj = core.NewObject(prov, wire.V30, core.Costs{},
			core.WithEndpoint(agent.Wrap(ep)),
			core.WithRetry(core.DefaultRetry()),
			core.WithTelemetry(op.Registry, nil))
		fmt.Printf("listening name=%s addr=%s\n", n, ep.Addr())
	}
	awaitStop(sig, duration)
	return op.flush()
}

// runSubject discovers over UDP until the -expect set is satisfied, then
// lingers on the obs plane (streaming its spans live) for -linger.
func runSubject(src func() (backend.Service, error), name, listen, peers string, ttl int, expect string, timeout, linger time.Duration, op *obsPlane) error {
	svc, err := src()
	if err != nil {
		return err
	}
	prov, err := svc.ProvisionSubject(context.Background(), cert.IDFromName(name))
	if err != nil {
		return fmt.Errorf("provision %q: %w", name, err)
	}
	var peerList []string
	for _, p := range strings.Split(peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peerList = append(peerList, p)
		}
	}
	if len(peerList) == 0 {
		return fmt.Errorf("-role subject needs -peers")
	}
	ep, err := transport.ListenUDP(transport.UDPConfig{Listen: listen, Peers: peerList, Registry: op.Registry})
	if err != nil {
		return err
	}
	defer ep.Close()
	subj := core.NewSubject(prov, wire.V30, core.Costs{},
		core.WithEndpoint(ep), core.WithRetry(core.DefaultRetry()),
		core.WithTelemetry(op.Registry, op.Tracer))

	want, err := parseExpect(expect)
	if err != nil {
		return err
	}

	bestOf := func() map[cert.ID]core.Discovery {
		best := map[cert.ID]core.Discovery{}
		for _, r := range subj.Results() {
			if prev, ok := best[r.Object]; !ok || r.Level > prev.Level {
				best[r.Object] = r
			}
		}
		return best
	}

	reported := map[cert.ID]core.Level{}
	deadline := time.Now().Add(timeout)
	for {
		ep.Do(func() {
			if err := subj.Discover(ttl); err != nil {
				fmt.Fprintf(os.Stderr, "argus-node: discover: %v\n", err)
			}
		})
		// Poll for this round's results instead of sleeping a fixed
		// interval: the subject reacts the moment its expectations are met,
		// and a slow machine just polls into the next round. Step and
		// tolerance policy live in internal/transport (poll.go).
		transport.Poll(500*time.Millisecond, transport.DefaultPollStep, func() bool {
			return satisfied(want, bestOf())
		})

		best := bestOf()
		for id, r := range best {
			if reported[id] >= r.Level {
				continue
			}
			reported[id] = r.Level
			fmt.Printf("discovered name=%s level=L%d node=%s functions=%s\n",
				nameOf(want, id), int(r.Level), r.Node, strings.Join(r.Profile.Functions, "+"))
		}

		if satisfied(want, best) {
			fmt.Println("all expectations met")
			if linger > 0 {
				sig, release := trapStop()
				awaitStop(sig, linger)
				release()
			}
			return op.flush()
		}
		if time.Now().After(deadline) {
			op.flush()
			return fmt.Errorf("timeout: discovered %d/%d expected services", met(want, best), len(want))
		}
	}
}

type expectation struct {
	name  string
	id    cert.ID
	level core.Level
}

func parseExpect(s string) ([]expectation, error) {
	var out []expectation
	for _, pair := range strings.Split(s, ",") {
		if pair = strings.TrimSpace(pair); pair == "" {
			continue
		}
		name, lvl, ok := strings.Cut(pair, "=")
		if !ok {
			return nil, fmt.Errorf("bad -expect entry %q (want name=L1|L2|L3)", pair)
		}
		var level core.Level
		switch lvl {
		case "L1":
			level = core.L1
		case "L2":
			level = core.L2
		case "L3":
			level = core.L3
		default:
			return nil, fmt.Errorf("bad level %q in -expect", lvl)
		}
		out = append(out, expectation{name: name, id: cert.IDFromName(name), level: level})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out, nil
}

func nameOf(want []expectation, id cert.ID) string {
	for _, w := range want {
		if w.id == id {
			return w.name
		}
	}
	return fmt.Sprintf("%x", id[:4])
}

func satisfied(want []expectation, best map[cert.ID]core.Discovery) bool {
	return met(want, best) == len(want)
}

func met(want []expectation, best map[cert.ID]core.Discovery) (n int) {
	for _, w := range want {
		if r, ok := best[w.id]; ok && r.Level >= w.level {
			n++
		}
	}
	return n
}
