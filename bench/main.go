// Command bench is the repository's end-to-end benchmark. It drives the
// program only through its public entry points (experiments, sweep.Exec,
// fleet.Run, and the serve daemon over HTTP), checks every output, and
// prints every metric with its unit, median, quartiles and sample count.
//
// Run every workload, each in its own child process:
//
//	bench/run.sh
//
// Run one workload, as BENCHMARK.json's command does:
//
//	bench/run.sh -workload sweep-grid -seed 7 -seconds 20 -trace 0
//
// A traced run (-trace 1) reports per-layer metrics instead of
// end-to-end ones, and writes spans.json and CPU profiles. Compare two
// sets of results against the bounds in BENCHMARK.json:
//
//	bench/run.sh -compare <dirA> <dirB>
//
// See bench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// traceFlag accepts -trace 0|1 (and true/false). It is not a boolean
// flag, so "-trace 0" parses as a value, not as -trace plus an argument.
type traceFlag bool

func (t *traceFlag) String() string { return strconv.FormatBool(bool(*t)) }

func (t *traceFlag) Set(s string) error {
	v, err := strconv.ParseBool(s)
	if err != nil {
		return fmt.Errorf("want 0 or 1")
	}
	*t = traceFlag(v)
	return nil
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run only this workload, in this process (default: every workload, each in a child process)")
	seed := fs.Uint64("seed", 0xA91, "workload seed; the program only sees inputs generated from it")
	seconds := fs.Float64("seconds", 25, "measuring time per workload, after set-up and warm-up")
	var trace traceFlag
	fs.Var(&trace, "trace", "1 = traced run: per-layer metrics, spans.json and CPU profiles")
	out := fs.String("out", filepath.Join(".bench_build", "out"), "directory for result.json, spans.json and profiles")
	compare := fs.Bool("compare", false, "compare result.json files under two directories: -compare <dirA> <dirB>")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two directories")
			return 2
		}
		return compareDirs(fs.Arg(0), fs.Arg(1), "BENCHMARK.json", stdout, stderr)
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "bench: unexpected arguments %q\n", fs.Args())
		return 2
	}
	// The load comes from one process using at most two threads.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	opts := options{seconds: *seconds, minReps: 3, trace: bool(trace), out: *out}
	if opts.trace {
		opts.minReps = 4
	}
	if *name == "" {
		return runAll(*seed, opts, stdout, stderr)
	}
	def, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	e := &env{root: ".", seed: *seed, work: filepath.Join(*out, "work")}
	res, err := runWorkload(def, e, opts)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	report(stdout, res)
	if !res.Correct {
		return 1
	}
	return 0
}

// runWorkload measures one workload and writes its result files.
func runWorkload(def workloadDef, e *env, opts options) (*result, error) {
	if err := os.MkdirAll(opts.out, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(e.work)
	res, err := measure(def, e, opts)
	if err != nil {
		return nil, err
	}
	res.Machine = describeMachine(e.root)
	if err := writeJSON(filepath.Join(opts.out, "result.json"), res); err != nil {
		return nil, err
	}
	if opts.trace {
		if err := writeJSON(filepath.Join(opts.out, "spans.json"), res.spans); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// runAll runs every workload in a child process of its own, so set-up
// time and peak memory are per workload.
func runAll(seed uint64, opts options, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		cmd := exec.Command(exe, "-workload", w.name, "-seed", strconv.FormatUint(seed, 10),
			"-seconds", strconv.FormatFloat(opts.seconds, 'g', -1, 64),
			"-trace", strconv.FormatBool(opts.trace), "-out", filepath.Join(opts.out, w.name))
		cmd.Stdout, cmd.Stderr = stdout, stderr
		fmt.Fprintf(stdout, "== %s\n", w.name)
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// summaryMetric is one metric of the summary line.
type summaryMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints every metric with its median, quartiles and sample
// count, then, as the last line, a JSON summary of the run.
func report(w io.Writer, res *result) {
	mode := "end-to-end"
	defs := endToEnd
	if res.Trace {
		mode, defs = "per-layer (traced)", perLayer()
	}
	fmt.Fprintf(w, "%s: %d timed repetitions, seed %d, %s on %d of %d CPUs, %s\n",
		res.Workload, res.Reps, res.Seed, res.Machine.GoVersion, res.Machine.GOMAXPROCS, res.Machine.NProc, res.Machine.CPU)
	fmt.Fprintf(w, "correct=%v attempted=%d failed=%d failed_ratio=%g\n", res.Correct, res.Attempted, res.Failed, res.FailedRatio)
	for _, e := range res.Errors {
		fmt.Fprintf(w, "  error: %s\n", e)
	}
	printRows := func(title string, m map[string]summary, names []string) {
		fmt.Fprintf(w, "%s:\n", title)
		for _, n := range names {
			s := m[n]
			fmt.Fprintf(w, "  %-32s %14.6g %-6s q1 %-12.6g q3 %-12.6g n=%d\n", n, s.Median, s.Unit, s.Q1, s.Q3, s.N)
		}
	}
	names := make([]string, len(defs))
	for i, d := range defs {
		names[i] = d.name
	}
	printRows(mode, res.Metrics, names)
	var detail []string
	for n := range res.Detail {
		detail = append(detail, n)
	}
	sort.Strings(detail)
	printRows("workload detail", res.Detail, detail)

	line := struct {
		Correct   bool                     `json:"correct"`
		Attempted int                      `json:"attempted"`
		Failed    int                      `json:"failed"`
		Metrics   map[string]summaryMetric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]summaryMetric{}}
	for _, d := range defs {
		v := res.Metrics[d.name].Median
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		line.Metrics[d.name] = summaryMetric{Value: v, Unit: d.unit}
	}
	data, _ := json.Marshal(line) // plain structs of finite numbers always marshal
	fmt.Fprintln(w, string(data))
}
