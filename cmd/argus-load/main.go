// Command argus-load drives large fleets of concurrent discovery sessions
// against a full provisioned enterprise and holds the run to an SLO. It is
// the repo's load/soak front end: pick a built-in profile (or override its
// knobs), run it, and get a machine-readable report (BENCH_5.json is the
// `standard` profile's).
//
// Usage:
//
//	argus-load -list
//	argus-load -profile ci-soak
//	argus-load -profile standard -out BENCH_5.json
//	argus-load -profile ci-soak -cells 4 -subjects 4 -waves 2 -seed 3
//	argus-load -profile ci-soak -obs 127.0.0.1:0   # then: argus-ops -attach <addr>
//	argus-load -capacity -profile ci-soak          # knee search in this process
//
// The report is written as indented JSON to stdout (or -out, created before
// the fleet is built); progress lines go to stderr unless -quiet. Exit status
// is 0 only when every SLO check passes, so the command slots directly into
// CI; 2 is a usage, setup or output error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"argus/internal/load"
	"argus/internal/realtime"
)

func main() {
	os.Exit(run())
}

// run executes the command and returns the process exit code. It exists so
// the deferred profile writers and the -out close fire on every exit path,
// including SLO failures.
func run() (code int) {
	var (
		profile  = flag.String("profile", "ci-soak", "built-in profile name (see -list)")
		list     = flag.Bool("list", false, "list built-in profiles and exit")
		out      = flag.String("out", "", "write the JSON report to this file instead of stdout")
		quiet    = flag.Bool("quiet", false, "suppress progress lines on stderr")
		cells    = flag.Int("cells", 0, "override: number of cells (broadcast domains)")
		subjects = flag.Int("subjects", 0, "override: subjects per cell")
		objects  = flag.Int("objects", 0, "override: objects per cell")
		waves    = flag.Int("waves", 0, "override: closed-loop wave count")
		seed     = flag.Int64("seed", -1, "override: harness seed (victim choice, open-loop arrivals)")
		drain    = flag.Duration("drain", 0, "override: per-wave drain timeout")
		minPeak  = flag.Int64("min-peak", -2, "override: SLO floor on peak armed concurrency (-1 disables)")
		obsAddr  = flag.String("obs", "", "serve the live obs plane (/metrics, /trace.json, /events) on this address during the run")
		roam     = flag.Float64("roam", -1, "override: fraction of each cell's subjects that roam to the next cell per wave")
		sleepy   = flag.Float64("sleepy", -1, "override: fraction of each cell's objects that duty-cycle their radio")
		replay   = flag.Int("replay", -1, "override: replay-adversary targets per cell (0 disables the persona)")
		sybil    = flag.Int("sybil", -1, "override: Sybil-flood rounds per cell (0 disables the persona)")
		observer = flag.Bool("observer", false, "override: run the crowd observer and gate on the covertness verdict")
		broken   = flag.Bool("broken-scoping", false, "override: deliberately break L3 scoping (negative control for the covertness gate)")
		alpha    = flag.Float64("covert-alpha", -1, "override: SLO significance floor for the covertness p-values (0 disables)")

		cpuProf = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file (headless alternative to -obs /debug/pprof)")
		memProf = flag.String("memprofile", "", "write a pprof heap profile (after the run, post-GC) to this file")

		capacity  = flag.Bool("capacity", false, "search for the max sustainable open-loop rate instead of running the profile once")
		capStart  = flag.Float64("cap-start", 0, "capacity: first offered rate in sessions/s (0 = default)")
		capTol    = flag.Float64("cap-tol", 0, "capacity: relative bracket tolerance to converge at (0 = default)")
		capTrials = flag.Int("cap-trials", 0, "capacity: hard trial budget (0 = default)")
		capDur    = flag.Duration("cap-duration", 0, "capacity: measured window per trial (0 = default)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "argus-load: unexpected argument %q\n", flag.Arg(0))
		flag.Usage()
		return 2
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "argus-load: %v\n", err)
			return 2
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "argus-load: start cpu profile: %v\n", err)
			return 2
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintf(os.Stderr, "argus-load: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "argus-load: write heap profile: %v\n", err)
			}
		}()
	}

	profiles := load.Profiles()
	if *list {
		names := make([]string, 0, len(profiles))
		for name := range profiles {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			p := profiles[name]
			fmt.Printf("%-12s %5d subj × %4d obj over %-4s  %s\n",
				name, p.Subjects(), p.Objects(), p.Transport, p.Description)
		}
		return 0
	}

	p, ok := profiles[*profile]
	if !ok {
		fmt.Fprintf(os.Stderr, "argus-load: unknown profile %q (try -list)\n", *profile)
		return 2
	}
	if *cells > 0 {
		p.Cells = *cells
	}
	if *subjects > 0 {
		p.SubjectsPerCell = *subjects
	}
	if *objects > 0 {
		p.ObjectsPerCell = *objects
	}
	if *waves > 0 {
		p.Waves = *waves
	}
	if *seed >= 0 {
		p.Seed = *seed
	}
	if *drain > 0 {
		p.DrainTimeout = *drain
	}
	if *minPeak >= -1 {
		p.SLO.MinPeakConcurrent = *minPeak
	}
	if *roam >= 0 {
		p.RoamFrac = *roam
	}
	if *sleepy >= 0 {
		p.SleepyFrac = *sleepy
	}
	if *replay >= 0 {
		p.ReplayTargets = *replay
	}
	if *sybil >= 0 {
		p.SybilRounds = *sybil
	}
	if *observer {
		p.Observer = true
	}
	if *broken {
		p.BreakScoping = true
	}
	if *alpha >= 0 {
		p.SLO.CovertnessAlpha = *alpha
	}
	if !*quiet {
		p.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}

	// The report's destination is opened before any fleet is built: a bad
	// path costs nothing, and a failed close (a short write) is an error.
	w := io.Writer(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "argus-load: %v\n", err)
			return 2
		}
		defer func() {
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "argus-load: %v\n", err)
				code = 2
			}
		}()
		w = f
	}

	if *capacity {
		return runCapacity(*profile, p, capacityOpts{
			start:  *capStart,
			tol:    *capTol,
			trials: *capTrials,
			dur:    *capDur,
			out:    w,
			quiet:  *quiet,
		})
	}

	// The optional live obs plane: the run reports into the served registry
	// and tracer and publishes wave/churn/report frames to the hub, so
	// argus-ops can tail a soak while it executes. The bound address is
	// announced on stderr (":0" picks a port; the ops-smoke script parses the
	// line).
	var plane *realtime.Plane
	if *obsAddr != "" {
		var err error
		if plane, err = realtime.Serve(*obsAddr); err != nil {
			fmt.Fprintf(os.Stderr, "argus-load: %v\n", err)
			return 2
		}
		fmt.Fprintf(os.Stderr, "obs listening addr=%s\n", plane.Addr)
		p.Registry, p.Tracer, p.Events = plane.Registry, plane.Tracer, plane.Hub
	}

	start := time.Now()
	rep, err := load.Run(p)
	// The runner's final report and snapshot frames are already queued: the
	// close drains them to every subscriber before the listener goes.
	plane.Close()
	if err != nil {
		fmt.Fprintf(os.Stderr, "argus-load: %v\n", err)
		return 2
	}

	if err := rep.WriteJSON(w); err != nil {
		fmt.Fprintf(os.Stderr, "argus-load: write report: %v\n", err)
		return 2
	}

	if !rep.SLO.Pass {
		fmt.Fprintf(os.Stderr, "argus-load: SLO FAIL after %.1fs:\n", time.Since(start).Seconds())
		for _, v := range rep.SLO.Violations {
			fmt.Fprintf(os.Stderr, "  - %s\n", v)
		}
		return 1
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr,
			"argus-load: SLO PASS — %d sessions, peak %d concurrent, %.0f sessions/s, %.1fs total\n",
			rep.Totals.Completed, rep.Totals.PeakInflight,
			rep.Totals.SessionsPerSecond, time.Since(start).Seconds())
	}
	return 0
}
