// Command benchmark is the repository's one diffable benchmark: it builds its
// own fleet from the layers' public constructors, drives it with its own
// generator on four discovery workloads, checks every output against ground
// truth, and prints every metric by name and unit. README.md defines the
// metrics; BENCHMARK.json (repository root) lists them with their bounds.
//
//	go run . -seed 1                        # from benchmark/: four workloads, end to end
//	go run . -seed 1 -trace 1               # per-layer figures, budget, span files
//	go run . -compare out/a.json out/b.json # better / same / worse / unresolved
//
// The driver's form — one workload per invocation, one JSON object as the
// last line of standard output — is
//
//	bash benchmark/run.sh --workload warm --seed 1 --seconds 25 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	os.Exit(run())
}

func defaultOutDir() string { return filepath.Join(repoRoot(), "benchmark", "out") }

func run() int {
	var (
		name    = flag.String("workload", "all", "warm, cold, lossy, churn, or all")
		seed    = flag.Int64("seed", 1, "seed of the arrival schedule, the loss decisions and the churn victims")
		seconds = flag.Int("seconds", 25, "length of the measured phases of one workload")
		trace   = flag.Int("trace", 0, "1 records spans and reports the per-layer metrics instead of the end-to-end ones")
		out     = flag.String("out", "", "result file; an existing one is merged into (default <out dir>/result.json)")
		cmp     = flag.Bool("compare", false, "compare two result files: -compare base.json new.json")
	)
	flag.Parse()

	if *cmp {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: -compare base.json new.json")
			return 2
		}
		return runCompare(flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() != 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		return 2
	}
	if *out == "" {
		*out = defaultOutDir() + "/result.json"
	}
	if *name == "all" {
		return runAll(*out, *trace == 1)
	}
	wl, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", *name)
		return 2
	}

	file := &resultFile{Workloads: make(map[string]*workloadResult)}
	if prev, err := readResult(*out); err == nil && prev.Schema == resultSchema && prev.Workloads != nil {
		file = prev
	}
	file.Schema = resultSchema
	file.Env = readEnvironment(*seed, *seconds, *trace == 1)

	opt := options{seed: *seed, seconds: *seconds, trace: *trace == 1, outDir: defaultOutDir()}
	fmt.Fprintf(os.Stderr, "workload %s (seed %d, %d s, trace %d)\n", wl.Name, *seed, *seconds, *trace)
	res, err := runWorkload(wl, opt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", wl.Name, err)
		return 1
	}
	merge(file, wl.Name, res)
	if err := writeJSON(*out, file); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	printWorkload(wl.Name, res)
	fmt.Fprintf(os.Stderr, "result written to %s\n", *out)
	return printContractLine(map[string]*workloadResult{"": res}, opt.trace)
}

// runAll runs the four workloads one after the other, each in a process of its
// own — so that none inherits the heap, the timers or the GC pacing the one
// before left behind, and a figure means the same as in a single-workload
// invocation — and prints one combined line from the result file they share.
func runAll(out string, trace bool) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	status := 0
	for _, wl := range workloads {
		cmd := exec.Command(self, append(os.Args[1:], "-workload", wl.Name, "-out", out)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", wl.Name, err)
			status = 1
		}
	}
	file, err := readResult(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	return max(status, printContractLine(file.Workloads, trace))
}

// printContractLine prints the last line of standard output: totals over the
// given results and their metrics, prefixed with the workload's name when
// there is more than one. It returns the exit status the results call for.
func printContractLine(results map[string]*workloadResult, trace bool) int {
	line := contractLine{Correct: true, Metrics: make(map[string]contractMetric)}
	for name, res := range results {
		metrics := res.EndToEnd
		if trace {
			metrics = res.PerLayer
		}
		for k, v := range metrics {
			if len(results) > 1 {
				k = name + "." + k
			}
			line.Metrics[k] = contractMetric{Value: v.Value, Unit: v.Unit}
		}
		line.Attempted += res.Attempted
		line.Failed += res.Failed
		line.Correct = line.Correct && res.Correct
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Println(string(b))
	if !line.Correct {
		return 1
	}
	return 0
}

// contractLine is the last line of standard output.
type contractLine struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// merge puts one run's section into the file, keeping the other half (end to
// end or per layer) of an earlier run of the same workload.
func merge(file *resultFile, name string, res *workloadResult) {
	if prev := file.Workloads[name]; prev != nil {
		if res.EndToEnd == nil {
			res.EndToEnd, res.Ungated = prev.EndToEnd, prev.Ungated
		}
		if res.PerLayer == nil {
			res.PerLayer, res.Budget = prev.PerLayer, prev.Budget
		}
	}
	file.Workloads[name] = res
}

func printWorkload(name string, res *workloadResult) {
	fmt.Printf("== %s: attempted %d, failed %d, correct %t, valid %t\n", name, res.Attempted, res.Failed, res.Correct, res.Valid)
	for _, r := range res.InvalidReasons {
		fmt.Printf("   INVALID: %s\n", r)
	}
	if len(res.Failures) > 0 {
		kinds := make([]string, 0, len(res.Failures))
		for k, v := range res.Failures {
			kinds = append(kinds, fmt.Sprintf("%s=%d", k, v))
		}
		sort.Strings(kinds)
		fmt.Printf("   failures: %s\n", strings.Join(kinds, " "))
	}
	for _, section := range []map[string]windowed{res.EndToEnd, res.Ungated, res.PerLayer} {
		names := make([]string, 0, len(section))
		for k := range section {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			v := section[k]
			fmt.Printf("   %-40s %14.4f %-6s", k, v.Value, v.Unit)
			if len(v.Windows) > 1 {
				fmt.Printf(" spread %5.1f %%", 100*v.spread())
			}
			if v.N > 0 {
				fmt.Printf(" n=%d", v.N)
			}
			fmt.Println()
		}
	}
	if len(res.Budget) > 0 {
		rows := make([]string, 0, len(res.Budget))
		for k, v := range res.Budget {
			rows = append(rows, fmt.Sprintf("%s=%.1f", k, v))
		}
		sort.Strings(rows)
		fmt.Printf("   budget, us per session: %s\n", strings.Join(rows, " "))
	}
	for _, n := range res.Notes {
		fmt.Printf("   note: %s\n", n)
	}
}

func runCompare(basePath, curPath string) int {
	spec, err := readSpec()
	if err != nil {
		fmt.Fprintf(os.Stderr, "BENCHMARK.json: %v\n", err)
		return 2
	}
	base, err := readResult(basePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	cur, err := readResult(curPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if worse, _ := compare(os.Stdout, base, cur, spec); worse > 0 {
		return 1
	}
	return 0
}
