package fleetcoord

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"argus/internal/attr"
	"argus/internal/backend"
	"argus/internal/load"
	"argus/internal/obs"
	"argus/internal/slo"
	"argus/internal/suite"
	"argus/internal/transport"
)

// Config describes the fleet the coordinator shards out.
type Config struct {
	Procs int

	// Profile is the fleet that is sharded: its shape (Cells,
	// SubjectsPerCell, ObjectsPerCell), its level mix (Levels, Fellow) and its
	// SLO, which gates each trial window as load.TrialSLO. Its driver, churn,
	// fault and retry fields do not apply here: shards run the coordinator's
	// sweep and trial verbs under shardRetry.
	Profile load.Profile

	// WorkDir holds the backend snapshot the coordinator provisions for the
	// shards to restore, and the address file. Required.
	WorkDir string

	Logf func(format string, args ...any)
}

// launchTimeout bounds each readiness barrier of Launch.
const launchTimeout = 60 * time.Second

func (c Config) withDefaults() (Config, error) {
	if p := c.Profile; c.Procs < 1 || p.Cells < 1 || p.SubjectsPerCell < 1 || p.ObjectsPerCell < 1 {
		return c, fmt.Errorf("fleetcoord: non-positive topology: %d procs, %d cells × (%d subj + %d obj)",
			c.Procs, p.Cells, p.SubjectsPerCell, p.ObjectsPerCell)
	}
	if c.WorkDir == "" {
		return c, fmt.Errorf("fleetcoord: WorkDir is required")
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c, nil
}

// Verdict is one multi-process trial's merged outcome.
type Verdict struct {
	Procs   int        `json:"procs"`
	Offered float64    `json:"offered_sessions_per_second"`
	Trial   load.Trial `json:"trial"`
	// ProcErrors documents children that died during the trial; each one is
	// also folded into Trial.Violations, so a degraded fleet fails loudly
	// instead of passing on the survivors' clean counters.
	ProcErrors []string `json:"proc_errors,omitempty"`
}

// proc is one child process's coordinator-side state. mu guards everything
// the stdout-scanner and Wait goroutines write.
type proc struct {
	index int
	cmd   *exec.Cmd
	stdin io.WriteCloser

	mu        sync.Mutex
	obsAddr   string
	objAddrs  map[[2]int]string
	ready     bool
	armed     bool
	sweeps    int
	trials    int
	sweepSecs float64
	exited    bool
	exitErr   error
}

func (p *proc) state() (ready, armed, exited bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.ready, p.armed, p.exited
}

// Coordinator owns the children for one multi-process run.
type Coordinator struct {
	cfg   Config
	procs []*proc
}

// Launch provisions the enterprise, spawns the shards — this executable run
// again as `<self> shard <shard flags>`, which its main hands to ShardMain —
// distributes the object addresses and waits until every shard reports armed.
func Launch(cfg Config) (*Coordinator, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	self, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("fleetcoord: locate own executable: %w", err)
	}
	snapPath := filepath.Join(cfg.WorkDir, "fleet.snap")
	if err := provisionFleet(cfg, snapPath); err != nil {
		return nil, err
	}
	addrFile := filepath.Join(cfg.WorkDir, "objects.addr")

	co := &Coordinator{cfg: cfg}
	fleet := cfg.Profile
	ok := false
	defer func() {
		if !ok {
			co.kill()
		}
	}()
	for i := 0; i < cfg.Procs; i++ {
		p := &proc{index: i, objAddrs: map[[2]int]string{}}
		p.cmd = exec.Command(self, "shard",
			"-shard-index", strconv.Itoa(i),
			"-shards", strconv.Itoa(cfg.Procs),
			"-cells", strconv.Itoa(fleet.Cells),
			"-subjects-per-cell", strconv.Itoa(fleet.SubjectsPerCell),
			"-objects-per-cell", strconv.Itoa(fleet.ObjectsPerCell),
			"-addr-file", addrFile,
			"-seed", strconv.Itoa(i+1),
			"-snapshot", snapPath,
		)
		p.cmd.Stderr = os.Stderr
		stdout, err := p.cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		p.stdin, err = p.cmd.StdinPipe()
		if err != nil {
			return nil, err
		}
		if err := p.cmd.Start(); err != nil {
			return nil, fmt.Errorf("fleetcoord: start shard %d: %w", i, err)
		}
		co.procs = append(co.procs, p)
		go p.scan(stdout, cfg.Logf)
		go func(p *proc) {
			err := p.cmd.Wait()
			p.mu.Lock()
			p.exited, p.exitErr = true, err
			p.mu.Unlock()
		}(p)
	}

	// Readiness barrier 1: every shard has bound its object sockets.
	if err := co.await(launchTimeout, func(p *proc) bool { r, _, _ := p.state(); return r }, "object readiness"); err != nil {
		return nil, err
	}
	// Distribute the union of object addresses, atomically (tmp + rename)
	// so no shard ever reads a torn file.
	var lines []string
	for _, p := range co.procs {
		p.mu.Lock()
		for key, addr := range p.objAddrs {
			lines = append(lines, fmt.Sprintf("cell=%d idx=%d addr=%s", key[0], key[1], addr))
		}
		p.mu.Unlock()
	}
	sort.Strings(lines)
	if len(lines) != fleet.Objects() {
		return nil, fmt.Errorf("fleetcoord: %d object addresses announced, want %d", len(lines), fleet.Objects())
	}
	tmp := addrFile + ".tmp"
	if err := os.WriteFile(tmp, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		return nil, err
	}
	if err := os.Rename(tmp, addrFile); err != nil {
		return nil, err
	}
	// Readiness barrier 2: every shard has peered its subjects.
	if err := co.await(launchTimeout, func(p *proc) bool { _, a, _ := p.state(); return a }, "subject arming"); err != nil {
		return nil, err
	}
	cfg.Logf("fleetcoord: %d shards armed (%d cells, %d subj + %d obj per cell)",
		cfg.Procs, fleet.Cells, fleet.SubjectsPerCell, fleet.ObjectsPerCell)
	ok = true
	return co, nil
}

// provisionFleet registers the whole population in a local backend and
// snapshots it to snapPath, with the profile's level mix exactly as the
// in-process fleet gets it: object i of the fleet is at
// Profile.ObjectLevel(i), Level 3 objects serve the covert group, and with
// Fellow every subject is in it.
func provisionFleet(cfg Config, snapPath string) error {
	ctx := context.Background()
	local, err := backend.New(suite.S128)
	if err != nil {
		return err
	}
	svc := backend.NewLocal(local)
	if _, _, err := svc.AddPolicy(ctx,
		attr.MustParse("position=='staff'"),
		attr.MustParse("type=='device'"),
		[]string{"use"}); err != nil {
		return fmt.Errorf("fleetcoord: policy: %w", err)
	}
	group, err := svc.CreateGroup(ctx, "fleet covert group")
	if err != nil {
		return fmt.Errorf("fleetcoord: covert group: %w", err)
	}
	fleet := cfg.Profile
	for c := 0; c < fleet.Cells; c++ {
		for k := 0; k < fleet.ObjectsPerCell; k++ {
			level := fleet.ObjectLevel(c*fleet.ObjectsPerCell + k)
			oid, _, err := svc.RegisterObject(ctx, ObjectName(c, k), level,
				attr.MustSet("type=device"), []string{"use"})
			if err == nil && level == backend.L3 {
				err = svc.AddCovertService(ctx, oid, group, []string{"use", "covert"})
			}
			if err != nil {
				return fmt.Errorf("fleetcoord: register %s: %w", ObjectName(c, k), err)
			}
		}
		for k := 0; k < fleet.SubjectsPerCell; k++ {
			sid, _, err := svc.RegisterSubject(ctx, SubjectName(c, k),
				attr.MustSet("position=staff"))
			if err == nil && fleet.Fellow {
				err = svc.AddSubjectToGroup(ctx, sid, group)
			}
			if err != nil {
				return fmt.Errorf("fleetcoord: register %s: %w", SubjectName(c, k), err)
			}
		}
	}
	return os.WriteFile(snapPath, local.Snapshot(), 0o600)
}

// scan consumes one child's stdout readiness protocol.
func (p *proc) scan(r io.Reader, logf func(string, ...any)) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		p.mu.Lock()
		switch {
		case strings.HasPrefix(line, "obs listening addr="):
			p.obsAddr = strings.TrimPrefix(line, "obs listening addr=")
		case strings.HasPrefix(line, "shardobj "):
			var c, k int
			var a string
			if _, err := fmt.Sscanf(line, "shardobj cell=%d idx=%d addr=%s", &c, &k, &a); err == nil {
				p.objAddrs[[2]int{c, k}] = a
			}
		case strings.HasPrefix(line, "shard ready"):
			p.ready = true
		case strings.HasPrefix(line, "shard armed"):
			p.armed = true
		case strings.HasPrefix(line, "sweep done"):
			// The shard's own format; a mismatch would only lose the timing.
			_, _ = fmt.Sscanf(line, "sweep done seconds=%f", &p.sweepSecs)
			p.sweeps++
		case strings.HasPrefix(line, "trial done"):
			p.trials++
		}
		p.mu.Unlock()
		logf("fleetcoord: shard %d: %s", p.index, line)
	}
}

// await polls until cond holds for every child, failing fast when any child
// exits before reaching it.
func (co *Coordinator) await(timeout time.Duration, cond func(*proc) bool, what string) error {
	ok := transport.Poll(timeout, 20*time.Millisecond, func() bool {
		for _, p := range co.procs {
			if cond(p) {
				continue
			}
			if _, _, exited := p.state(); exited {
				return true // fail fast below
			}
			return false
		}
		return true
	})
	for _, p := range co.procs {
		if cond(p) {
			continue
		}
		p.mu.Lock()
		exited, exitErr := p.exited, p.exitErr
		p.mu.Unlock()
		if exited {
			return fmt.Errorf("fleetcoord: shard %d exited before %s: %v", p.index, what, exitErr)
		}
		if !ok {
			return fmt.Errorf("fleetcoord: shard %d did not reach %s in %s", p.index, what, timeout)
		}
	}
	return nil
}

// live returns the children still running.
func (co *Coordinator) live() []*proc {
	var out []*proc
	for _, p := range co.procs {
		if _, _, exited := p.state(); !exited {
			out = append(out, p)
		}
	}
	return out
}

// subjectsOf counts the subjects a shard owns — the weight its slice of the
// offered rate is proportional to.
func (co *Coordinator) subjectsOf(index int) int {
	n := 0
	for c := 0; c < co.cfg.Profile.Cells; c++ {
		if cellSubjOwner(c, co.cfg.Procs) == index {
			n += co.cfg.Profile.SubjectsPerCell
		}
	}
	return n
}

// Sweep runs one closed warm wave on every shard and returns the merged
// window: Totals.Armed sessions in Totals.WallSeconds (shards sweep
// concurrently, so the fleet's wall time is the slowest shard's), with the
// per-level mix in Latency.
func (co *Coordinator) Sweep() (*slo.Report, error) {
	live := co.live()
	if len(live) == 0 {
		return nil, fmt.Errorf("fleetcoord: no live shards")
	}
	merged, procErrs, err := co.window(live, "sweep", 60*time.Second,
		func(*proc) string { return "sweep\n" }, func(p *proc) int { return p.sweeps })
	if err != nil {
		return nil, err
	}
	if len(procErrs) > 0 {
		return nil, fmt.Errorf("fleetcoord: warm sweep: %s", strings.Join(procErrs, "; "))
	}
	rep := slo.SnapshotReport(merged)
	for _, p := range live {
		p.mu.Lock()
		rep.Totals.WallSeconds = max(rep.Totals.WallSeconds, p.sweepSecs)
		p.mu.Unlock()
	}
	return rep, nil
}

// scrapeClient bounds a scrape end to end, so a shard that is alive but
// wedged costs the coordinator one timeout, not the run.
var scrapeClient = &http.Client{Timeout: 5 * time.Second}

// scrape fetches one child's obs snapshot over its HTTP endpoint.
func scrape(obsAddr string) (*obs.Snapshot, error) {
	resp, err := scrapeClient.Get("http://" + obsAddr + "/metrics?format=json")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: %s", obsAddr, resp.Status)
	}
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return obs.ParseSnapshot(blob)
}

// window runs one verb across the live shards and returns what it moved:
// each shard is scraped, sent its command, awaited until its done-counter
// advances — or it exits, which is not an error here — and scraped again;
// the per-process diffs are merged into one fleet-wide snapshot. A child that
// rejects the command, dies inside the window or cannot be scraped afterwards
// is documented in procErrs rather than hanging the coordinator or silently
// passing on the survivors' clean counters.
func (co *Coordinator) window(live []*proc, what string, wait time.Duration,
	cmd func(*proc) string, done func(*proc) int) (merged *obs.Snapshot, procErrs []string, err error) {
	before := make(map[int]*obs.Snapshot, len(live))
	counts := make(map[int]int, len(live))
	for _, p := range live {
		p.mu.Lock()
		obsAddr := p.obsAddr
		counts[p.index] = done(p)
		p.mu.Unlock()
		if before[p.index], err = scrape(obsAddr); err != nil {
			return nil, nil, fmt.Errorf("fleetcoord: scrape shard %d: %w", p.index, err)
		}
	}
	for _, p := range live {
		if _, err := io.WriteString(p.stdin, cmd(p)); err != nil {
			// A write to a just-died child: degrade, don't abort.
			procErrs = append(procErrs, fmt.Sprintf("process %d rejected %s command: %v", p.index, what, err))
		}
	}
	finished := transport.Poll(wait, 20*time.Millisecond, func() bool {
		for _, p := range live {
			p.mu.Lock()
			pending := done(p) <= counts[p.index] && !p.exited
			p.mu.Unlock()
			if pending {
				return false
			}
		}
		return true
	})
	if !finished {
		return nil, procErrs, fmt.Errorf("fleetcoord: %s did not complete in %s", what, wait)
	}
	var diffs []*obs.Snapshot
	for _, p := range live {
		p.mu.Lock()
		obsAddr := p.obsAddr
		exited, exitErr := p.exited, p.exitErr
		p.mu.Unlock()
		if exited {
			procErrs = append(procErrs, fmt.Sprintf("process %d exited mid-%s: %v", p.index, what, exitErr))
			continue
		}
		after, err := scrape(obsAddr)
		if err != nil {
			procErrs = append(procErrs, fmt.Sprintf("process %d unreachable after %s: %v", p.index, what, err))
			continue
		}
		diffs = append(diffs, obs.DiffSnapshots(after, before[p.index]))
	}
	return obs.MergeSnapshots(diffs...), procErrs, nil
}

// Trial offers `offered` sessions/s fleet-wide for dur, splitting the
// arrival rate across shards by their subject share, and judges the merged
// window with the same gates as the in-process search. A child that dies
// mid-trial degrades the verdict (documented violation) rather than hanging
// the coordinator or silently passing.
func (co *Coordinator) Trial(offered float64, dur time.Duration) (Verdict, error) {
	v := Verdict{Procs: co.cfg.Procs, Offered: offered}
	// Any already-dead child degrades this verdict too: its slice of the
	// fleet is dark, so a clean merge over the survivors would overstate
	// what the configured process count sustains.
	for _, p := range co.procs {
		p.mu.Lock()
		exited, exitErr := p.exited, p.exitErr
		p.mu.Unlock()
		if exited {
			v.ProcErrors = append(v.ProcErrors, fmt.Sprintf("process %d exited early: %v", p.index, exitErr))
		}
	}
	live := co.live()
	if len(live) == 0 {
		return v, fmt.Errorf("fleetcoord: no live shards")
	}
	totalSubj := 0
	for _, p := range live {
		totalSubj += co.subjectsOf(p.index)
	}
	if totalSubj == 0 {
		return v, fmt.Errorf("fleetcoord: live shards own no subjects")
	}
	perArrival := float64(co.cfg.Profile.ObjectsPerCell)
	arrivals := offered / perArrival

	// The window plus the shard's own drain + quiesce, with slack.
	wait := dur + shardRetry().SessionTTL + 25*time.Second
	merged, procErrs, err := co.window(live, "trial", wait, func(p *proc) string {
		share := arrivals * float64(co.subjectsOf(p.index)) / float64(totalSubj)
		return fmt.Sprintf("trial %.4f %d\n", share, dur.Milliseconds())
	}, func(p *proc) int { return p.trials })
	v.ProcErrors = append(v.ProcErrors, procErrs...)
	if err != nil {
		return v, err
	}
	v.Trial = load.EvalTrial(offered, dur.Seconds(), perArrival,
		slo.SnapshotReport(merged), load.TrialSLO(co.cfg.Profile.SLO))
	if len(v.ProcErrors) > 0 {
		v.Trial.Violations = append(v.Trial.Violations, v.ProcErrors...)
		v.Trial.Pass = false
	}
	return v, nil
}

// Close asks every live child to quit, then kills stragglers.
func (co *Coordinator) Close() {
	for _, p := range co.live() {
		_, _ = io.WriteString(p.stdin, "quit\n")
	}
	done := transport.Poll(5*time.Second, 20*time.Millisecond, func() bool {
		return len(co.live()) == 0
	})
	if !done {
		co.kill()
	}
}

// Kill force-terminates one child — the e2e crash test's murder weapon.
func (co *Coordinator) Kill(index int) error {
	if index < 0 || index >= len(co.procs) {
		return fmt.Errorf("fleetcoord: no shard %d", index)
	}
	p := co.procs[index]
	if err := p.cmd.Process.Kill(); err != nil {
		return err
	}
	transport.Poll(5*time.Second, 10*time.Millisecond, func() bool {
		_, _, exited := p.state()
		return exited
	})
	return nil
}

func (co *Coordinator) kill() {
	for _, p := range co.procs {
		if p.cmd != nil && p.cmd.Process != nil {
			_ = p.cmd.Process.Kill()
		}
	}
	transport.Poll(5*time.Second, 20*time.Millisecond, func() bool {
		return len(co.live()) == 0
	})
}
