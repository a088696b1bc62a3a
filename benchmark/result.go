package main

import (
	"bufio"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

const resultSchema = "argus-benchmark/1"

// environment is recorded with every result: a figure without its host is
// not comparable with anything.
type environment struct {
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GitRev     string `json:"git_revision"`
	GitDirty   bool   `json:"git_dirty"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	// Transport states what carried the frames: every workload runs on
	// transport.Mesh, in memory, in one process. No frame crossed a real
	// link; the one UDP figure (transport.udp_frame_ns) is loopback.
	Transport string `json:"transport"`
}

func readEnvironment(seed int64, seconds int, trace bool) environment {
	env := environment{
		CPUModel: "unknown", NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GitRev: "unknown", Seed: seed, Seconds: seconds, Trace: trace,
		Transport: "in-memory transport.Mesh, one process; no frame crossed a real link",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if name, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
				env.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
		f.Close()
	}
	// Outside a git work tree (the driver's checkout is not one) the revision
	// stays "unknown": git is kept from looking for one above the repository
	// root.
	git := func(args ...string) (string, error) {
		cmd := exec.Command("git", args...)
		if root, err := filepath.Abs(repoRoot()); err == nil {
			cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(root))
		}
		out, err := cmd.Output()
		return strings.TrimSpace(string(out)), err
	}
	if rev, err := git("rev-parse", "HEAD"); err == nil {
		env.GitRev = rev
		if st, err := git("status", "--porcelain"); err == nil {
			env.GitDirty = st != ""
		}
	}
	return env
}

// workloadResult is one workload's section of a result file.
type workloadResult struct {
	Why string `json:"why"`
	// Valid is false when the generator or the host, not the program, was
	// the limit; the figures of an invalid run prove nothing.
	Valid          bool     `json:"valid"`
	InvalidReasons []string `json:"invalid_reasons,omitempty"`
	// Correct is false when the output oracle saw a violation that load
	// cannot explain; such a run also exits non-zero.
	Correct   bool           `json:"correct"`
	Attempted int            `json:"attempted"`
	Failed    int            `json:"failed"`
	Failures  map[string]int `json:"failures_by_kind,omitempty"`
	// EndToEnd is filled by an untraced run, PerLayer by a traced one.
	EndToEnd map[string]windowed `json:"end_to_end,omitempty"`
	// Ungated figures are end-to-end ones measured by the same untraced run
	// but too noisy to carry a bound.
	Ungated  map[string]windowed `json:"end_to_end_ungated,omitempty"`
	PerLayer map[string]windowed `json:"per_layer,omitempty"`
	// Budget rows are µs per session by layer (traced runs).
	Budget map[string]float64 `json:"budget_us_per_session,omitempty"`
	Notes  []string           `json:"notes,omitempty"`
	// HostSpeed is the calibrator's reading per span of an untraced run
	// (set-up, open phase, closed phase, everything measured), and AsMeasured
	// the time-valued end-to-end figures before they were restated at the
	// reference speed.
	HostSpeed  map[string]windowed `json:"host_speed,omitempty"`
	AsMeasured map[string]float64  `json:"as_measured,omitempty"`
}

// resultFile is the one schema every run writes and -compare reads.
type resultFile struct {
	Schema    string                     `json:"schema"`
	Env       environment                `json:"environment"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResult(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r resultFile
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, err
	}
	return &r, nil
}

// benchmarkSpec is the part of BENCHMARK.json the program reads: the metric
// lists a run must print and the bounds -compare judges by.
type benchmarkSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// repoRoot is the working directory or, when run from inside benchmark/, its
// parent: wherever BENCHMARK.json is.
func repoRoot() string {
	if _, err := os.Stat("BENCHMARK.json"); err != nil {
		return ".."
	}
	return "."
}

func readSpec() (*benchmarkSpec, error) {
	b, err := os.ReadFile(filepath.Join(repoRoot(), "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, err
	}
	return &s, nil
}
