package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"
)

// env is what every workload is built from.
type env struct {
	root string // repository root: example specs and goldens are read here
	seed uint64 // the workload seed; the program sees only inputs made from it
	tiny bool   // smoke-test size: well under a second of work
	work string // scratch directory (daemon data), inside the output directory
}

// workload is one set of inputs driven through the program's public
// entry points.
type workload interface {
	// setup builds the inputs from the seed (spec parsing, population
	// generation, request bodies). It is timed as setup_s and repeated,
	// so each call replaces the previous state.
	setup() error
	// rep runs one repetition of fixed work between rc.begin and
	// rc.finish, records its operations, and checks its outputs.
	rep(rc *repCtx)
}

type workloadDef struct {
	name string
	make func(*env) workload
}

// workloads run in this order; bench/README.md and BENCHMARK.json say
// why each exists.
var workloads = []workloadDef{
	{"paper-eval", newEval},
	{"sweep-grid", newGrid},
	{"fleet-dc", newFleet},
	{"daemon-mixed", newDaemon},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// repCtx collects one repetition's measurements.
type repCtx struct {
	warm    bool   // the untimed warm-up: reference outputs are recorded
	spans   *spans // non-nil only when this repetition is traced
	span    int    // the repetition's span, parent of the workload's spans
	profile string // CPU profile path of a traced repetition

	t0     time.Time
	cpu0   time.Duration
	mem0   runtime.MemStats
	prof   *os.File
	closed bool

	wall     time.Duration
	cpu      time.Duration
	allocMiB float64
	gcCycles float64
	ops      []time.Duration // latency of each operation
	first    []time.Duration // time from issuing each operation to its first result
	detail   map[string]measured

	attempted, failed int
	errs              []string
}

// begin starts the timed part of a repetition.
func (rc *repCtx) begin() {
	runtime.ReadMemStats(&rc.mem0)
	if rc.spans != nil && rc.profile != "" {
		f, err := os.Create(rc.profile)
		if err == nil && pprof.StartCPUProfile(f) == nil {
			rc.prof = f
		} else if f != nil {
			f.Close()
		}
	}
	rc.cpu0 = processCPU()
	rc.span = rc.spans.begin(0, "bench", "rep", "")
	rc.t0 = time.Now()
}

// finish ends the timed part; checks after it are not timed.
func (rc *repCtx) finish() {
	rc.wall = time.Since(rc.t0)
	rc.spans.end(rc.span)
	rc.cpu = processCPU() - rc.cpu0
	if rc.prof != nil {
		pprof.StopCPUProfile()
		rc.prof.Close()
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	rc.allocMiB = float64(m.TotalAlloc-rc.mem0.TotalAlloc) / (1 << 20)
	rc.gcCycles = float64(m.NumGC - rc.mem0.NumGC)
	rc.closed = true
}

// op records one completed operation.
func (rc *repCtx) op(latency, first time.Duration) {
	rc.attempted++
	rc.ops = append(rc.ops, latency)
	rc.first = append(rc.first, first)
}

// check counts one correctness check; a failed check is a failed
// operation.
func (rc *repCtx) check(ok bool, format string, args ...any) bool {
	rc.attempted++
	if !ok {
		rc.fail(format, args...)
	}
	return ok
}

// fail records a failed operation.
func (rc *repCtx) fail(format string, args ...any) {
	rc.failed++
	if len(rc.errs) < 20 {
		rc.errs = append(rc.errs, fmt.Sprintf(format, args...))
	}
}

// measured is one workload-specific number of a repetition.
type measured struct {
	unit  string
	value float64
}

// set records a workload-specific number for this repetition.
func (rc *repCtx) set(name, unit string, v float64) {
	if rc.detail == nil {
		rc.detail = map[string]measured{}
	}
	rc.detail[name] = measured{unit, v}
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// result is one workload run, written as <out>/result.json.
type result struct {
	Workload    string             `json:"workload"`
	Seed        uint64             `json:"seed"`
	Seconds     float64            `json:"seconds"`
	Trace       bool               `json:"trace"`
	Machine     machine            `json:"machine"`
	Correct     bool               `json:"correct"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	FailedRatio float64            `json:"failed_ratio"`
	Reps        int                `json:"reps"`
	TailRank    float64            `json:"tail_percentile"` // the percentile *_tail_ms report
	Metrics     map[string]summary `json:"metrics"`         // end-to-end, or per-layer when traced
	Detail      map[string]summary `json:"detail"`          // workload-specific numbers
	Errors      []string           `json:"errors,omitempty"`
	spans       []span
}

// metricDef names a metric the summary line carries.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"first_result_p50_ms", "ms"},
	{"first_result_tail_ms", "ms"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
}

// spanLayers are the layers the benchmark opens spans for.
var spanLayers = []string{"bench", "experiments", "sweep", "scenario", "fleet", "serve"}

// detailLayer lists the per-layer metrics read from the workloads'
// per-repetition numbers; a workload that does not exercise the layer
// reports 0.
var detailLayer = []metricDef{
	{"sim.events", "count"},
	{"sim.events_per_s", "1/s"},
	{"xen.ctx_switches", "count"},
	{"xen.preemptions", "count"},
	{"xen.pool_migrations", "count"},
	{"sweep.pool_util", "share"},
	{"fleet.placements", "count"},
	{"fleet.migrations", "count"},
	{"fleet.aborted", "count"},
	{"fleet.speedup_w2", "ratio"},
	{"serve.queue_wait_share", "share"},
	{"serve.http_errors", "count"},
}

func perLayer() []metricDef {
	var out []metricDef
	for _, b := range cpuBuckets {
		out = append(out, metricDef{b + ".cpu_share", "share"})
	}
	for _, l := range spanLayers {
		out = append(out, metricDef{l + ".self_ratio", "ratio"})
	}
	out = append(out,
		metricDef{"process.cpu_s", "s"},
		metricDef{"process.cpu_util", "share"},
		metricDef{"go_runtime.alloc_mb", "MiB"},
		metricDef{"go_runtime.gc_cycles", "count"},
		metricDef{"trace.overhead", "ratio"},
	)
	return append(out, detailLayer...)
}

// options size one workload run.
type options struct {
	seconds float64 // measuring time
	minReps int     // timed repetitions run whatever the time
	trace   bool
	out     string
}

// tearer is a workload whose set-up holds resources (a booted server)
// that must be released after each timed set-up, untimed.
type tearer interface{ teardown() }

// timeSetup runs w.setup once and returns its duration.
func timeSetup(w workload) (time.Duration, error) {
	t := time.Now()
	if err := w.setup(); err != nil {
		return 0, err
	}
	d := time.Since(t)
	if tw, ok := w.(tearer); ok {
		tw.teardown()
	}
	return d, nil
}

// measure runs one workload: set-up, one untimed warm-up repetition,
// then timed repetitions until opts.seconds would be exceeded. In a
// traced run, repetitions alternate untraced and traced, so the tracing
// overhead is measured under the same conditions.
func measure(def workloadDef, e *env, opts options) (*result, error) {
	// One set-up takes about a millisecond, too short to time once:
	// set-up runs five times first and again before every repetition,
	// so its median spans the whole run.
	w := def.make(e)
	var setups []time.Duration
	setup := func() error {
		d, err := timeSetup(w)
		if err != nil {
			return fmt.Errorf("%s: setup: %w", def.name, err)
		}
		setups = append(setups, d)
		return nil
	}
	for i := 0; i < 5; i++ {
		if err := setup(); err != nil {
			return nil, err
		}
	}
	res := &result{Workload: def.name, Seed: e.seed, Seconds: opts.seconds, Trace: opts.trace}
	var rec *spans
	if opts.trace {
		rec = newSpans()
	}

	warm := &repCtx{warm: true}
	w.rep(warm)
	all := []*repCtx{warm}
	var timed []*repCtx
	start := time.Now()
	for i := 0; ; i++ {
		rc := &repCtx{}
		if opts.trace && i%2 == 1 {
			rc.spans = rec
			rc.profile = filepath.Join(opts.out, fmt.Sprintf("cpu-%d.pprof", i))
		}
		runtime.GC()
		if err := setup(); err != nil {
			return nil, err
		}
		w.rep(rc)
		if !rc.closed {
			return nil, fmt.Errorf("%s: repetition never finished its timed part", def.name)
		}
		rc.set("process.cpu_s", "s", rc.cpu.Seconds())
		rc.set("process.wall_s", "s", rc.wall.Seconds())
		timed = append(timed, rc)
		all = append(all, rc)
		elapsed := time.Since(start)
		if len(timed) >= opts.minReps && elapsed+elapsed/time.Duration(len(timed)) > time.Duration(opts.seconds*float64(time.Second)) {
			break
		}
	}
	res.Reps = len(timed)

	for _, rc := range all {
		res.Attempted += rc.attempted
		res.Failed += rc.failed
		res.Errors = append(res.Errors, rc.errs...)
	}
	res.Correct = res.Failed == 0
	if res.Attempted > 0 {
		res.FailedRatio = float64(res.Failed) / float64(res.Attempted)
	}

	var plain, traced []*repCtx
	for _, rc := range timed {
		if rc.spans != nil {
			traced = append(traced, rc)
		} else {
			plain = append(plain, rc)
		}
	}
	res.Detail = detailSummaries(plain, traced)
	if len(plain) > 0 && len(plain[0].ops) > 0 {
		res.TailRank = tailRank(len(plain[0].ops))
	}
	if !opts.trace {
		res.Metrics = endToEndMetrics(plain, setups)
		return res, nil
	}
	res.spans = rec.snapshot()
	m, err := perLayerMetrics(plain, traced, res.Detail, res.spans)
	res.Metrics = m
	return res, err
}

func perRep(reps []*repCtx, f func(*repCtx) float64) []float64 {
	out := make([]float64, len(reps))
	for i, rc := range reps {
		out[i] = f(rc)
	}
	return out
}

func endToEndMetrics(reps []*repCtx, setups []time.Duration) map[string]summary {
	setupS := make([]float64, len(setups))
	for i, d := range setups {
		setupS[i] = d.Seconds()
	}
	return map[string]summary{
		"wall_s":               summarize("s", perRep(reps, func(rc *repCtx) float64 { return rc.wall.Seconds() })),
		"op_p50_ms":            summarize("ms", perRep(reps, func(rc *repCtx) float64 { return median(msAll(rc.ops)) })),
		"op_tail_ms":           summarize("ms", perRep(reps, func(rc *repCtx) float64 { return tail(msAll(rc.ops)) })),
		"first_result_p50_ms":  summarize("ms", perRep(reps, func(rc *repCtx) float64 { return median(msAll(rc.first)) })),
		"first_result_tail_ms": summarize("ms", perRep(reps, func(rc *repCtx) float64 { return tail(msAll(rc.first)) })),
		"setup_s":              summarize("s", setupS),
		"peak_rss_mb":          summarize("MiB", []float64{peakRSSMiB()}),
	}
}

// detailSummaries summarizes every workload-specific number over the
// untraced repetitions that recorded it; numbers only traced
// repetitions take (the fleet speed-up) come from those.
func detailSummaries(plain, traced []*repCtx) map[string]summary {
	out := map[string]summary{}
	for _, reps := range [][]*repCtx{traced, plain} {
		vals := map[string][]float64{}
		units := map[string]string{}
		for _, rc := range reps {
			for name, m := range rc.detail {
				vals[name] = append(vals[name], m.value)
				units[name] = m.unit
			}
		}
		for name, v := range vals {
			out[name] = summarize(units[name], v)
		}
	}
	return out
}

func perLayerMetrics(plain, traced []*repCtx, detail map[string]summary, list []span) (map[string]summary, error) {
	out := map[string]summary{}
	var files []string
	for _, rc := range traced {
		if rc.prof != nil {
			files = append(files, rc.profile)
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no CPU profile was recorded")
	}
	text, err := pprofTraces(files)
	if err != nil {
		return nil, err
	}
	shares, err := cpuShares(text)
	if err != nil {
		return nil, err
	}
	for _, b := range cpuBuckets {
		out[b+".cpu_share"] = summarize("share", []float64{shares[b]})
	}

	var repWall time.Duration
	for _, sp := range list {
		if sp.Parent == 0 {
			repWall += time.Duration(sp.End - sp.Start)
		}
	}
	self := selfTime(list)
	for _, l := range spanLayers {
		v := 0.0
		if repWall > 0 {
			v = float64(self[l]) / float64(repWall)
		}
		out[l+".self_ratio"] = summarize("ratio", []float64{v})
	}

	out["process.cpu_s"] = summarize("s", perRep(plain, func(rc *repCtx) float64 { return rc.cpu.Seconds() }))
	procs := float64(runtime.GOMAXPROCS(0))
	out["process.cpu_util"] = summarize("share", perRep(plain, func(rc *repCtx) float64 {
		return rc.cpu.Seconds() / (rc.wall.Seconds() * procs)
	}))
	out["go_runtime.alloc_mb"] = summarize("MiB", perRep(plain, func(rc *repCtx) float64 { return rc.allocMiB }))
	out["go_runtime.gc_cycles"] = summarize("count", perRep(plain, func(rc *repCtx) float64 { return rc.gcCycles }))
	wallOf := func(rc *repCtx) float64 { return rc.wall.Seconds() }
	out["trace.overhead"] = summarize("ratio", []float64{median(perRep(traced, wallOf))/median(perRep(plain, wallOf)) - 1})

	for _, m := range detailLayer {
		s, ok := detail[m.name]
		if !ok {
			s = summarize(m.unit, []float64{0})
		}
		s.Unit = m.unit
		out[m.name] = s
	}
	for name, s := range out {
		if math.IsNaN(s.Median) {
			return nil, fmt.Errorf("per-layer metric %s has no samples", name)
		}
	}
	return out, nil
}
