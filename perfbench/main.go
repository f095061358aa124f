// Command perfbench is the repository's same-host benchmark. It runs
// one seeded workload, checks that the program's outputs are correct,
// and prints every metric by name and unit; the last line of standard
// output is the machine-readable result:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload bp-fig4 --seed 1 --seconds 30 --trace 0
//
// --trace 0 reports the end-to-end metrics, measured with the traced
// extras off; --trace 1 reports the per-layer metrics. The run before
// the result line prints a report line with the host, the input sizes
// and the sample counts.
// See README.md for the workloads and the metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"
)

// buildDir holds everything a run leaves behind: the binary, the
// cached inputs and temporary spools. It is relative to the checkout
// root the benchmark runs from.
const buildDir = ".bench_build"

type runOpts struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	dir      string
}

// outcome is what a workload run hands back for printing.
type outcome struct {
	attempted int
	failures  []string
	vals      map[string]float64
	report    map[string]any
}

func newOutcome() *outcome {
	return &outcome{vals: map[string]float64{}, report: map[string]any{}}
}

// fail records one failed operation (an error or a wrong output).
func (o *outcome) fail(msg string) { o.failures = append(o.failures, msg) }

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"bp-fig4", "mr-n2048", "serve-mix"}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "gen" {
		return runGen(args[1:], stderr)
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 30, "measuring time in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	o := runOpts{workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1, dir: buildDir}
	if err := checkTable(endToEnd, perLayer); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}

	var out *outcome
	var err error
	cpu0 := cpuTimes()
	if w, ok := findSolverWorkload(o.workload); ok {
		out, err = runSolver(w, o)
	} else if o.workload == "serve-mix" {
		out, err = runServe(o)
	} else {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", o.workload, strings.Join(workloadNames, ", "))
		return 2
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	out.report["cpu"] = cpuShares(cpu0, cpuTimes())
	return emit(o, out, stdout, stderr)
}

// result is the last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// emit prints the report and result lines. A run with a failed
// operation still prints what it measured, marked incorrect, and
// exits 1.
func emit(o runOpts, out *outcome, stdout, stderr io.Writer) int {
	table := endToEnd
	if o.trace {
		table = perLayer
	}
	correct := len(out.failures) == 0
	for _, f := range out.failures {
		fmt.Fprintln(stderr, "perfbench: FAIL:", f)
	}
	metrics, err := render(table, out.vals)
	if err != nil && correct {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	out.report["host"] = readHost()
	out.report["workload"] = o.workload
	out.report["seed"] = o.seed
	out.report["seconds"] = o.seconds.Seconds()
	out.report["trace"] = o.trace
	out.report["failures"] = out.failures
	for _, m := range table {
		if v, ok := metrics[m.Name]; ok {
			fmt.Fprintf(stderr, "%-32s %14.6g %s\n", m.Name, v.Value, v.Unit)
		}
	}
	rep, err := json.Marshal(map[string]any{"report": out.report})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: report:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(rep))

	line, err := json.Marshal(result{Correct: correct, Attempted: out.attempted, Failed: len(out.failures), Metrics: metrics})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: result:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !correct {
		return 1
	}
	return 0
}

// runGen is the child process that generates and caches one solver
// workload's input.
func runGen(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench gen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "solver workload")
	seed := fs.Int64("seed", 1, "input seed")
	path := fs.String("out", "", "output file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *path == "" {
		fmt.Fprintln(stderr, "perfbench gen: --out is required")
		return 2
	}
	t0 := time.Now()
	if err := generateInput(*workload, *seed, *path); err != nil {
		fmt.Fprintln(stderr, "perfbench gen:", err)
		return 1
	}
	fmt.Fprintf(stderr, "perfbench gen: %s seed %d in %.1fs (untimed)\n", *workload, *seed, time.Since(t0).Seconds())
	return 0
}
