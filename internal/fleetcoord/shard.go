// Package fleetcoord scales the load harness past one OS process: a
// coordinator shards a fleet of discovery engines across N child processes
// speaking real UDP loopback between them, scrapes each child's obs
// endpoint, and folds the per-process snapshot diffs into one fleet-wide
// SLO verdict — the same evaluation path (slo.SnapshotReport + SLO gates)
// the in-process harness uses, now fed by a merged snapshot.
//
// A shard is the coordinator's own executable run again as `<self> shard
// <shard flags>` (for the shipped harness, `argus-load shard ...`): the
// binary's main hands everything after the `shard` word to ShardMain.
//
// Topology: every cell's objects live on process cell%N and its subjects on
// process (cell+1)%N, so with N >= 2 every single handshake crosses a
// process boundary. Trust chains through one shared enterprise: the
// coordinator registers the whole population in a local backend and writes
// its snapshot, and each shard restores it and provisions its own entities
// from it, exactly like a standalone argus-node on -snapshot.
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
	"os"
	"strconv"
	"strings"
	"time"

	"argus/internal/backend"
	"argus/internal/cert"
	"argus/internal/core"
	"argus/internal/load"
	"argus/internal/obs"
	"argus/internal/realtime"
	"argus/internal/transport"
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
	addrFile                       string
	seed                           int64
}

// ShardMain is the child-process entry point, invoked by `argus-load shard
// <flags>` (and by the test trampoline). It owns its flags and its obs plane;
// args is everything after the `shard` word.
func ShardMain(args []string) error {
	fs := flag.NewFlagSet("shard", flag.ContinueOnError)
	var cfg shardConfig
	fs.IntVar(&cfg.index, "shard-index", 0, "this shard's index in [0, shards)")
	fs.IntVar(&cfg.procs, "shards", 1, "total shard count")
	fs.IntVar(&cfg.cells, "cells", 1, "fleet cell count")
	fs.IntVar(&cfg.subjPerCell, "subjects-per-cell", 1, "subjects per cell")
	fs.IntVar(&cfg.objPerCell, "objects-per-cell", 1, "objects per cell")
	fs.StringVar(&cfg.snapshot, "snapshot", "", "backend snapshot file (the coordinator wrote it)")
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

// shard is one child process's fleet slice: its own fleet construction
// (backend.Service credentials, one UDP socket per engine, peers from the
// address file), driven by the same load.Driver as the in-process harness.
type shard struct {
	cfg shardConfig
	reg *obs.Registry
	rng *rand.Rand
	out io.Writer
	drv *load.Driver

	slots    []*load.Slot
	subjects []*core.Subject
	objects  []*core.Object
	eps      []*transport.UDPEndpoint
}

// quiesceDeadline outlives the session TTL: a round whose peer process died
// can never complete, and its subject sessions expire at the TTL, so both the
// open loop's drain and the quiesce after it need only wait that long.
func quiesceDeadline() time.Duration { return shardRetry().SessionTTL + 3*time.Second }

// serveShard builds this shard's slice of the fleet and runs the stdin
// command loop until "quit" or EOF.
func serveShard(cfg shardConfig, in io.Reader, out io.Writer) error {
	plane, err := realtime.Serve("127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("shard: %w", err)
	}
	defer plane.Close()
	reg := plane.Registry
	fmt.Fprintf(out, "obs listening addr=%s\n", plane.Addr)

	svc, err := restoreService(cfg.snapshot)
	if err != nil {
		return err
	}
	sh := &shard{
		cfg: cfg, reg: reg, out: out,
		rng: rand.New(rand.NewSource(cfg.seed*1023 + int64(cfg.index))),
	}
	sh.drv = load.NewDriver(reg, sh.pendingSessions)
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
	fmt.Fprintf(out, "shard armed subjects=%d\n", len(sh.slots))

	sc := bufio.NewScanner(in)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "sweep":
			// One closed wave — every subject, one round: it warms the caches
			// and times the fleet's per-session cost. What it armed, completed
			// and lost is in the registry the coordinator scrapes.
			start := time.Now()
			sh.drv.Wave(sh.slots, 0, 30*time.Second)
			seconds := time.Since(start).Seconds()
			sh.drv.Quiesce(quiesceDeadline())
			fmt.Fprintf(out, "sweep done seconds=%.4f\n", seconds)
		case "trial":
			if len(fields) != 3 {
				return fmt.Errorf("shard: bad trial command %q", sc.Text())
			}
			rate, err1 := strconv.ParseFloat(fields[1], 64)
			durMS, err2 := strconv.Atoi(fields[2])
			if err1 != nil || err2 != nil {
				return fmt.Errorf("shard: bad trial command %q", sc.Text())
			}
			sh.drv.OpenLoop(sh.slots, sh.rng, rate, time.Duration(durMS)*time.Millisecond, quiesceDeadline())
			sh.drv.Quiesce(quiesceDeadline())
			fmt.Fprintf(out, "trial done\n")
		case "quit":
			return nil
		default:
			return fmt.Errorf("shard: unknown command %q", fields[0])
		}
	}
	return sc.Err()
}

// restoreService is the shard's credential source: the backend snapshot the
// coordinator wrote.
func restoreService(snapshot string) (backend.Service, error) {
	blob, err := os.ReadFile(snapshot)
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
	ok := transport.Poll(timeout, 20*time.Millisecond, func() bool {
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
			subj := core.NewSubject(prov, wire.V30, core.Costs{},
				core.WithEndpoint(ep),
				core.WithRetry(shardRetry()),
				core.WithTelemetry(sh.reg, nil),
				core.WithVerifyCache(vcache))
			// Every subject of the sharded fleet is live, so whatever the
			// level mix it discovers each of its cell's objects once a round.
			slot := load.NewSlot(subj, ep, sh.cfg.objPerCell)
			subj.OnDiscovery = func(d core.Discovery) { sh.drv.Complete(slot, d, true) }
			sh.slots = append(sh.slots, slot)
			sh.subjects = append(sh.subjects, subj)
		}
	}
	return nil
}

// pendingSessions sums the open sessions of every engine this shard hosts.
func (sh *shard) pendingSessions() int {
	n := 0
	for _, s := range sh.subjects {
		n += s.PendingSessions()
	}
	for _, o := range sh.objects {
		n += o.PendingSessions()
	}
	return n
}

func (sh *shard) close() {
	for _, ep := range sh.eps {
		ep.Close()
	}
}
