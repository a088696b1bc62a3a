// Package fleetcoord scales the load harness past one OS process: a
// coordinator shards a fleet of discovery engines across N child processes
// speaking real UDP loopback between them, scrapes each child's obs
// endpoint, and folds the per-process snapshot diffs into one fleet-wide
// SLO verdict — the same evaluation path (load.SnapshotReport + SLO gates)
// the in-process harness uses, now fed by a merged snapshot.
//
// Topology: every cell's objects live on process cell%N and its subjects on
// process (cell+1)%N, so with N >= 2 every single handshake crosses a
// process boundary. Trust chains through one shared enterprise: the
// coordinator registers the whole population (into a snapshot file or a
// live argus-backend), and each shard provisions its own entities from that
// source, exactly like a standalone argus-node.
//
// The child protocol is deliberately dumb — readiness lines on stdout, a
// command verb per line on stdin — because the interesting synchronization
// (which addresses exist, when a trial's window closed) must survive
// process crashes, and a text protocol makes the e2e test's kill-a-child
// assertions straightforward.
package fleetcoord

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"argus/internal/backend"
	"argus/internal/backendclient"
	"argus/internal/cert"
	"argus/internal/core"
	"argus/internal/obs"
	"argus/internal/transport"
	"argus/internal/transport/transporttest"
	"argus/internal/wire"
)

// SubjectName / ObjectName are the fleet's deterministic entity names; both
// sides derive cert IDs from them (cert.IDFromName), so the coordinator and
// the shards never exchange identities explicitly.
func SubjectName(cell, k int) string { return fmt.Sprintf("fc-s-%d-%d", cell, k) }
func ObjectName(cell, k int) string  { return fmt.Sprintf("fc-o-%d-%d", cell, k) }

// cellObjOwner / cellSubjOwner place a cell's two roles on different
// processes (for procs >= 2), so every handshake crosses the process
// boundary — the whole point of the exercise.
func cellObjOwner(cell, procs int) int  { return cell % procs }
func cellSubjOwner(cell, procs int) int { return (cell + 1) % procs }

// shardRetry is the engines' retry policy on loopback UDP: generous enough
// for a loaded single-core host, short enough that a saturated trial's
// expiries land inside its own measurement window.
func shardRetry() core.RetryPolicy {
	return core.RetryPolicy{Que1Retries: 3, Que2Retries: 3, Timeout: 250 * time.Millisecond, SessionTTL: 2 * time.Second}
}

// shardConfig is ShardMain's parsed flag set.
type shardConfig struct {
	index, procs                   int
	cells, subjPerCell, objPerCell int
	snapshot                       string
	backendURL, tenant, authKey    string
	addrFile                       string
	seed                           int64
}

// ShardMain is the child-process entry point, invoked by `argus-node -role
// shard -- <flags>` (and by the test trampoline). It owns its flags and its
// obs plane; args is everything after the `--`.
func ShardMain(args []string) error {
	fs := flag.NewFlagSet("shard", flag.ContinueOnError)
	var cfg shardConfig
	fs.IntVar(&cfg.index, "shard-index", 0, "this shard's index in [0, shards)")
	fs.IntVar(&cfg.procs, "shards", 1, "total shard count")
	fs.IntVar(&cfg.cells, "cells", 1, "fleet cell count")
	fs.IntVar(&cfg.subjPerCell, "subjects-per-cell", 1, "subjects per cell")
	fs.IntVar(&cfg.objPerCell, "objects-per-cell", 1, "objects per cell")
	fs.StringVar(&cfg.snapshot, "snapshot", "", "backend snapshot file (the coordinator wrote it)")
	fs.StringVar(&cfg.backendURL, "backend", "", "argus-backend base URL instead of -snapshot")
	fs.StringVar(&cfg.tenant, "tenant", "demo", "tenant namespace on -backend")
	fs.StringVar(&cfg.authKey, "auth-key", "", "tenant auth key for -backend")
	fs.StringVar(&cfg.addrFile, "addr-file", "", "object address file the coordinator writes once all shards are ready")
	fs.Int64Var(&cfg.seed, "seed", 1, "open-loop arrival schedule seed (mixed with the shard index)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if cfg.procs < 1 || cfg.index < 0 || cfg.index >= cfg.procs {
		return fmt.Errorf("shard: index %d outside [0, %d)", cfg.index, cfg.procs)
	}
	if cfg.addrFile == "" {
		return fmt.Errorf("shard: -addr-file is required")
	}
	return serveShard(cfg, os.Stdin, os.Stdout)
}

// shardSlot mirrors the in-process harness's subjectSlot: the per-round
// expectation ledger one subject engine is held to.
type shardSlot struct {
	eng *core.Subject
	ep  transport.Endpoint

	mu        sync.Mutex
	round     int
	expected  int
	got       int
	busy      bool
	lostRound bool
}

// shard is one child process's fleet slice.
type shard struct {
	cfg shardConfig
	reg *obs.Registry
	rng *rand.Rand
	out io.Writer

	subjects []*shardSlot
	objects  []*core.Object
	eps      []*transport.UDPEndpoint

	roundsArmed, roundsDone atomic.Int64

	armedC, completionsC *obs.Counter
	lostC, skippedC      *obs.Counter
	inflightG, peakG     *obs.Gauge
	unexpectedC          *obs.Counter
}

// serveShard builds this shard's slice of the fleet and runs the stdin
// command loop until "quit" or EOF.
func serveShard(cfg shardConfig, in io.Reader, out io.Writer) error {
	reg := obs.NewRegistry()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("shard: obs listen: %w", err)
	}
	srv := &http.Server{Handler: obs.NewMux(reg, nil)}
	go srv.Serve(ln)
	defer srv.Close()
	fmt.Fprintf(out, "obs listening addr=%s\n", ln.Addr())

	svc, err := shardService(cfg)
	if err != nil {
		return err
	}
	sh := &shard{
		cfg: cfg, reg: reg, out: out,
		rng: rand.New(rand.NewSource(cfg.seed*1023 + int64(cfg.index))),
	}
	sh.inflightG = reg.Gauge(obs.MLoadInflight, "armed discovery sessions not yet completed")
	sh.peakG = reg.Gauge(obs.MLoadPeakInflight, "high-water mark of inflight sessions")
	sh.armedC = reg.Counter(obs.MLoadRoundsArmed, "sessions armed (expected completions)")
	sh.completionsC = reg.Counter(obs.MLoadCompletions, "sessions completed")
	sh.lostC = reg.Counter(obs.MLoadLost, "sessions reaped at the drain deadline")
	sh.unexpectedC = reg.Counter(obs.MLoadUnexpected, "completions that violated the expectation ledger")
	sh.skippedC = reg.Counter(obs.MLoadSkipped, "open-loop arrivals that found every subject busy")
	defer sh.close()

	if err := sh.buildObjects(svc); err != nil {
		return err
	}
	fmt.Fprintf(out, "shard ready objs=%d\n", len(sh.objects))

	addrs, err := awaitAddrFile(cfg.addrFile, 60*time.Second)
	if err != nil {
		return err
	}
	if err := sh.buildSubjects(svc, addrs); err != nil {
		return err
	}
	fmt.Fprintf(out, "shard armed subjects=%d\n", len(sh.subjects))

	sc := bufio.NewScanner(in)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "sweep":
			sessions, seconds := sh.sweep()
			fmt.Fprintf(out, "sweep done sessions=%d seconds=%.4f\n", sessions, seconds)
		case "trial":
			if len(fields) != 3 {
				return fmt.Errorf("shard: bad trial command %q", sc.Text())
			}
			rate, err1 := strconv.ParseFloat(fields[1], 64)
			durMS, err2 := strconv.Atoi(fields[2])
			if err1 != nil || err2 != nil {
				return fmt.Errorf("shard: bad trial command %q", sc.Text())
			}
			sh.openLoop(rate, time.Duration(durMS)*time.Millisecond)
			sh.quiesce()
			fmt.Fprintf(out, "trial done\n")
		case "quit":
			return nil
		default:
			return fmt.Errorf("shard: unknown command %q", fields[0])
		}
	}
	return sc.Err()
}

// shardService picks the shard's credential source, mirroring argus-node.
func shardService(cfg shardConfig) (backend.Service, error) {
	if cfg.backendURL != "" {
		return backendclient.New(cfg.backendURL, cfg.tenant, cfg.authKey), nil
	}
	blob, err := os.ReadFile(cfg.snapshot)
	if err != nil {
		return nil, fmt.Errorf("shard: %w", err)
	}
	b, err := backend.Restore(blob)
	if err != nil {
		return nil, fmt.Errorf("shard: restore: %w", err)
	}
	return backend.NewLocal(b), nil
}

// buildObjects hosts every object this shard owns, one UDP socket per
// engine (a socket is a node identity), announcing each address so the
// coordinator can hand them to the subject-owning shards.
func (sh *shard) buildObjects(svc backend.Service) error {
	ctx := context.Background()
	for c := 0; c < sh.cfg.cells; c++ {
		if cellObjOwner(c, sh.cfg.procs) != sh.cfg.index {
			continue
		}
		vcache := cert.NewVerifyCache(1 << 14)
		vcache.Instrument(sh.reg)
		for k := 0; k < sh.cfg.objPerCell; k++ {
			name := ObjectName(c, k)
			prov, err := svc.ProvisionObject(ctx, cert.IDFromName(name))
			if err != nil {
				return fmt.Errorf("shard: provision %s: %w", name, err)
			}
			ep, err := transport.ListenUDP(transport.UDPConfig{Listen: "127.0.0.1:0", Registry: sh.reg})
			if err != nil {
				return err
			}
			sh.eps = append(sh.eps, ep)
			obj := core.NewObject(prov, wire.V30, core.Costs{},
				core.WithEndpoint(ep),
				core.WithRetry(shardRetry()),
				core.WithTelemetry(sh.reg, nil),
				core.WithVerifyCache(vcache))
			sh.objects = append(sh.objects, obj)
			fmt.Fprintf(sh.out, "shardobj cell=%d idx=%d addr=%s\n", c, k, ep.Addr())
		}
	}
	return nil
}

// awaitAddrFile polls for the coordinator's (atomically renamed) address
// file and parses its "cell=<c> idx=<k> addr=<a>" lines.
func awaitAddrFile(path string, timeout time.Duration) (map[[2]int]string, error) {
	var blob []byte
	ok := transporttest.Poll(timeout, 20*time.Millisecond, func() bool {
		b, err := os.ReadFile(path)
		if err != nil {
			return false
		}
		blob = b
		return true
	})
	if !ok {
		return nil, fmt.Errorf("shard: address file %s never appeared", path)
	}
	addrs := map[[2]int]string{}
	for _, line := range strings.Split(string(blob), "\n") {
		if line = strings.TrimSpace(line); line == "" {
			continue
		}
		var c, k int
		var a string
		if _, err := fmt.Sscanf(line, "cell=%d idx=%d addr=%s", &c, &k, &a); err != nil {
			return nil, fmt.Errorf("shard: bad address line %q: %w", line, err)
		}
		addrs[[2]int{c, k}] = a
	}
	return addrs, nil
}

// buildSubjects hosts every subject this shard owns, peered with its own
// cell's objects (which live on another shard — that's the topology).
func (sh *shard) buildSubjects(svc backend.Service, addrs map[[2]int]string) error {
	ctx := context.Background()
	for c := 0; c < sh.cfg.cells; c++ {
		if cellSubjOwner(c, sh.cfg.procs) != sh.cfg.index {
			continue
		}
		var peers []string
		for k := 0; k < sh.cfg.objPerCell; k++ {
			a, ok := addrs[[2]int{c, k}]
			if !ok {
				return fmt.Errorf("shard: no address for cell %d object %d", c, k)
			}
			peers = append(peers, a)
		}
		vcache := cert.NewVerifyCache(1 << 14)
		vcache.Instrument(sh.reg)
		for k := 0; k < sh.cfg.subjPerCell; k++ {
			name := SubjectName(c, k)
			prov, err := svc.ProvisionSubject(ctx, cert.IDFromName(name))
			if err != nil {
				return fmt.Errorf("shard: provision %s: %w", name, err)
			}
			ep, err := transport.ListenUDP(transport.UDPConfig{Listen: "127.0.0.1:0", Peers: peers, Registry: sh.reg})
			if err != nil {
				return err
			}
			sh.eps = append(sh.eps, ep)
			slot := &shardSlot{ep: ep, expected: sh.cfg.objPerCell}
			subj := core.NewSubject(prov, wire.V30, core.Costs{},
				core.WithEndpoint(ep),
				core.WithRetry(shardRetry()),
				core.WithTelemetry(sh.reg, nil),
				core.WithVerifyCache(vcache))
			slot.eng = subj
			subj.OnDiscovery = func(d core.Discovery) { sh.onDiscovery(slot, d) }
			sh.subjects = append(sh.subjects, slot)
		}
	}
	return nil
}

// onDiscovery runs on subject event loops; same ledger rules as the
// in-process harness.
func (sh *shard) onDiscovery(s *shardSlot, d core.Discovery) {
	s.mu.Lock()
	if d.Round != s.round || s.lostRound || s.got >= s.expected {
		s.mu.Unlock()
		sh.unexpectedC.Inc()
		return
	}
	s.got++
	done := s.got == s.expected
	if done {
		s.busy = false
	}
	s.mu.Unlock()
	sh.completionsC.Inc()
	sh.inflightG.Add(-1)
	if done {
		sh.roundsDone.Add(1)
		s.eng.CompleteRound()
	}
}

// arm opens the slot's next round; fire issues the Discover on the engine's
// event loop.
func (sh *shard) arm(s *shardSlot) {
	s.mu.Lock()
	s.round++
	s.got = 0
	s.busy = true
	s.lostRound = false
	s.mu.Unlock()
	sh.roundsArmed.Add(1)
	sh.armedC.Add(int64(s.expected))
	sh.inflightG.Add(int64(s.expected))
	eng := s.eng
	s.ep.Do(func() { _ = eng.Discover(1) })
}

// sweep fires one closed wave — every subject, one round — and waits for it
// to drain; it both warms the caches and measures per-session cost.
func (sh *shard) sweep() (sessions int64, seconds float64) {
	start := time.Now()
	before := sh.roundsDone.Load()
	for _, s := range sh.subjects {
		sh.arm(s)
	}
	target := before + int64(len(sh.subjects))
	if !transporttest.Poll(30*time.Second, 10*time.Millisecond, func() bool {
		return sh.roundsDone.Load() >= target
	}) {
		sh.reap()
	}
	seconds = time.Since(start).Seconds()
	sh.quiesce()
	return int64(len(sh.subjects) * sh.cfg.objPerCell), seconds
}

// openLoop offers `rate` arrivals/s (each arrival arms one subject round)
// for `duration`, with the same deterministic catch-up schedule as the
// in-process driver, then drains the armed tail.
func (sh *shard) openLoop(rate float64, duration time.Duration) {
	if rate <= 0 || len(sh.subjects) == 0 {
		return
	}
	start := time.Now()
	next := 0
	var tNext time.Duration
	for {
		tNext += time.Duration(sh.rng.ExpFloat64() / rate * float64(time.Second))
		if tNext >= duration {
			break
		}
		if wait := tNext - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		fired := false
		for i := 0; i < len(sh.subjects); i++ {
			s := sh.subjects[(next+i)%len(sh.subjects)]
			s.mu.Lock()
			idle := !s.busy
			s.mu.Unlock()
			if !idle {
				continue
			}
			next = (next + i + 1) % len(sh.subjects)
			sh.arm(s)
			fired = true
			break
		}
		if !fired {
			sh.skippedC.Inc()
		}
	}
	// A round whose peer process died can never complete; its subject
	// session expires at the TTL, so the drain deadline only needs to
	// outlive that before reaping the round as lost.
	target := sh.roundsArmed.Load()
	if !transporttest.Poll(shardRetry().SessionTTL+3*time.Second, 10*time.Millisecond, func() bool {
		return sh.roundsDone.Load() >= target
	}) {
		sh.reap()
	}
}

// reap retires every unfinished round, converting its missing completions
// to losses — the same accounting as the in-process harness.
func (sh *shard) reap() {
	for _, s := range sh.subjects {
		s.mu.Lock()
		if s.busy && !s.lostRound {
			missing := s.expected - s.got
			s.lostRound = true
			s.busy = false
			s.mu.Unlock()
			sh.lostC.Add(int64(missing))
			sh.inflightG.Add(int64(-missing))
			sh.roundsDone.Add(1)
			eng := s.eng
			s.ep.Do(func() { eng.CompleteRound() })
			continue
		}
		s.mu.Unlock()
	}
}

// quiesce waits for every engine's session table to empty, so a reaped
// round's expiries land in the window that caused them.
func (sh *shard) quiesce() {
	ttl := shardRetry().SessionTTL
	transporttest.Poll(ttl+3*time.Second, 50*time.Millisecond, func() bool {
		n := 0
		for _, s := range sh.subjects {
			n += s.eng.PendingSessions()
		}
		for _, o := range sh.objects {
			n += o.PendingSessions()
		}
		return n == 0
	})
}

func (sh *shard) close() {
	for _, ep := range sh.eps {
		ep.Close()
	}
}
