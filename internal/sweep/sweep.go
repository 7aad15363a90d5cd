// Package sweep turns the paper's evaluation — a grid of scenario ×
// policy × seed runs — into a declarative, parallel orchestration
// subsystem. A Spec names its axes; Exec expands them into a run
// matrix, executes the runs on a bounded pool of goroutines, and
// aggregates per-cell statistics (mean, stddev, 95% CI across seed
// replications, plus normalized performance against a baseline
// policy).
//
// Determinism is a hard guarantee: every run owns an independently
// forked sim.RNG seed that is a pure function of its grid coordinates,
// and aggregation walks the matrix in expansion order. The same Spec
// therefore produces bit-identical aggregates for any worker count —
// `go test -run Sweep` asserts exactly that.
package sweep

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"aqlsched/internal/baselines"
	"aqlsched/internal/catalog"
	"aqlsched/internal/core"
	"aqlsched/internal/fleet"
	"aqlsched/internal/metrics"
	"aqlsched/internal/par"
	"aqlsched/internal/scenario"
	"aqlsched/internal/sim"
)

// DefaultSeed matches the experiments package default.
const DefaultSeed uint64 = 0xA91

// Scenario is one point on the scenario axis. Exactly one of New and
// NewFleet is set: New builds a fresh single-host scenario.Spec,
// NewFleet a fresh multi-host fleet.Spec. Constructors return fresh
// values for every run so that concurrent runs never share mutable
// state (topologies, app slices); the sweep overrides the returned
// spec's Seed, Warmup and Measure fields.
type Scenario struct {
	Name     string
	New      func() scenario.Spec
	NewFleet func() *fleet.Spec
}

// Policy is one point on the policy axis: a catalog policy, whose New
// builds a fresh scenario.Policy per run, so policies that capture
// per-run state (the AQL controller output) stay race-free under any
// worker count.
type Policy = catalog.Policy

// Spec declares a sweep: the cross product of Scenarios × Policies,
// replicated Seeds times.
type Spec struct {
	Name      string
	Scenarios []Scenario
	Policies  []Policy
	// Baseline names the policy used for per-app normalization (the
	// paper normalizes everything over default Xen). Empty disables
	// normalized aggregates.
	Baseline string
	// Seeds is the number of seed replications per cell (default 1).
	// Replication 0 runs with BaseSeed itself, so a single-seed sweep
	// reproduces the legacy sequential experiments bit-for-bit;
	// replication k > 0 runs with an RNG fork of BaseSeed labelled k.
	Seeds int
	// BaseSeed seeds the whole sweep (default DefaultSeed).
	BaseSeed uint64
	// Warmup and Measure, when set, override every scenario's windows.
	Warmup  sim.Time
	Measure sim.Time
}

// Run is one cell-replication of the expanded matrix.
type Run struct {
	// Index is the position in expansion order (scenario-major, then
	// policy, then seed replication).
	Index       int
	ScenarioIdx int
	PolicyIdx   int
	SeedIdx     int
	Scenario    string
	Policy      string
	// Seed is the run's simulation seed, a pure function of BaseSeed
	// and SeedIdx (shared across policies so normalization pairs runs
	// of the same replication).
	Seed uint64
}

func (s *Spec) seeds() int {
	if s.Seeds <= 0 {
		return 1
	}
	return s.Seeds
}

func (s *Spec) baseSeed() uint64 {
	if s.BaseSeed == 0 {
		return DefaultSeed
	}
	return s.BaseSeed
}

// SeedFor reports the simulation seed of replication k: BaseSeed for
// k = 0, an independent SplitMix fork for k > 0.
func (s *Spec) SeedFor(k int) uint64 {
	base := s.baseSeed()
	if k == 0 {
		return base
	}
	return sim.NewRNG(base).Fork(uint64(k)).Uint64()
}

// maxRuns caps the expanded run matrix: Runs allocates one Run per
// cell replication, so a typo'd seed count must fail validation, not
// exhaust memory (or overflow the allocation size) expanding it.
const maxRuns = 1 << 20

// Validate reports an error for an unrunnable spec. Callers that
// override Seeds after parsing must validate again.
func (s *Spec) Validate() error {
	if len(s.Scenarios) == 0 {
		return fmt.Errorf("sweep %q: no scenarios", s.Name)
	}
	if len(s.Policies) == 0 {
		return fmt.Errorf("sweep %q: no policies", s.Name)
	}
	// Divide rather than multiply, so no seed count overflows the check.
	ns, np := len(s.Scenarios), len(s.Policies)
	if np > maxRuns/ns || s.seeds() > maxRuns/(ns*np) {
		return fmt.Errorf("sweep %q: %d scenarios x %d policies x %d seeds exceeds the %d-run sanity cap", s.Name, ns, np, s.seeds(), maxRuns)
	}
	seen := map[string]bool{}
	for _, sc := range s.Scenarios {
		if sc.New == nil && sc.NewFleet == nil {
			return fmt.Errorf("sweep %q: scenario %q has no constructor", s.Name, sc.Name)
		}
		if sc.New != nil && sc.NewFleet != nil {
			return fmt.Errorf("sweep %q: scenario %q is both single-host and fleet", s.Name, sc.Name)
		}
		if seen[sc.Name] {
			return fmt.Errorf("sweep %q: duplicate scenario %q", s.Name, sc.Name)
		}
		seen[sc.Name] = true
	}
	seen = map[string]bool{}
	baselineOK := s.Baseline == ""
	for _, p := range s.Policies {
		if p.New == nil {
			return fmt.Errorf("sweep %q: policy %q has no constructor", s.Name, p.Name)
		}
		if seen[p.Name] {
			return fmt.Errorf("sweep %q: duplicate policy %q", s.Name, p.Name)
		}
		seen[p.Name] = true
		if p.Name == s.Baseline {
			baselineOK = true
		}
	}
	if !baselineOK {
		return fmt.Errorf("sweep %q: baseline policy %q not on the policy axis", s.Name, s.Baseline)
	}
	return nil
}

// Runs expands the spec into its run matrix, scenario-major.
func (s *Spec) Runs() []Run {
	n := s.seeds()
	out := make([]Run, 0, len(s.Scenarios)*len(s.Policies)*n)
	for si, sc := range s.Scenarios {
		for pi, p := range s.Policies {
			for k := 0; k < n; k++ {
				out = append(out, Run{
					Index:       len(out),
					ScenarioIdx: si,
					PolicyIdx:   pi,
					SeedIdx:     k,
					Scenario:    sc.Name,
					Policy:      p.Name,
					Seed:        s.SeedFor(k),
				})
			}
		}
	}
	return out
}

// RunResult is the outcome of one run: the per-app and per-VM
// measurement Sets plus the run-scoped metric Set (hypervisor
// counters, adaptation diagnostics). Policy keeps the exact policy
// instance used, so AQL runs expose their controller (see Controller).
// Raw is retained only under Options.KeepRaw.
type RunResult struct {
	Run
	Apps  []scenario.AppMeasure
	PerVM []scenario.AppMeasure
	// Metrics is the run-scoped Set (scenario.Result.Metrics): every
	// value flows into the cell aggregates through the metric registry.
	Metrics metrics.Set
	// Instance is the exact policy value used by this run.
	Instance scenario.Policy
	Raw      *scenario.Result
	// Err records a panic from the run (the sweep keeps going).
	Err error
	// Elapsed is the wall-clock cost of the run (diagnostic only; never
	// part of emitted aggregates, which must stay deterministic).
	Elapsed time.Duration
}

// Controller returns the AQL controller captured by this run's policy,
// or nil when the policy was not AQL (or never produced one).
func (rr *RunResult) Controller() *core.Controller {
	if a, ok := rr.Instance.(baselines.AQL); ok && a.Out != nil {
		return *a.Out
	}
	return nil
}

// Options tunes execution, not results: any Workers value produces the
// same Result modulo the Elapsed diagnostics.
type Options struct {
	// Workers bounds the goroutine pool (default: GOMAXPROCS).
	Workers int
	// Progress, when non-nil, receives one line per completed run.
	Progress io.Writer
	// KeepRaw retains every run's full *scenario.Result (hypervisor,
	// deployments). Costly on big grids; off by default.
	KeepRaw bool
	// Journal, when non-nil, checkpoints every completed run and skips
	// runs the journal already holds — the crash-safe resume path.
	Journal *Journal
	// RunTimeout, when positive, bounds each run's wall-clock time: a
	// run still executing after the timeout is marked FAILED (the sweep
	// continues) instead of wedging the pool. The timed-out goroutine is
	// abandoned — simulation runs have no cancellation points — so a
	// sweep with many timeouts leaks their memory until exit; the
	// watchdog exists to let a long sweep finish, not to make hangs
	// cheap.
	RunTimeout time.Duration
	// FleetWorkers bounds the goroutines that advance each fleet run's
	// hosts at its epoch barriers (0 = GOMAXPROCS). Like Workers it never
	// changes results — fleet runs are byte-identical at any shard count
	// — and it composes with Workers: a sweep may run cells in parallel
	// while each fleet cell shards internally.
	FleetWorkers int
	// OnRun, when non-nil, is called once per newly executed run —
	// successful or failed — right after it completes (journal-restored
	// runs are not re-reported; Journal.RestoredCount covers them).
	// Calls are serialized, so the callback may mutate shared state
	// without its own locking, but it runs on the sweep's worker
	// goroutines and must return quickly. This is the incremental
	// result hook aqlsweepd streams from.
	OnRun func(*RunResult)
	// Context, when non-nil, cancels the sweep between runs: once it is
	// done, no further runs are dispatched, in-flight runs complete
	// (simulations have no cancellation points) and are journaled as
	// usual, and Exec returns the context's error. The journal plus a
	// later resume make a canceled sweep continuable.
	Context context.Context
}

// EffectiveWorkers reports the pool size Exec will use before
// clamping to the run count.
func (o Options) EffectiveWorkers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Result is an executed sweep: the raw run matrix plus per-cell
// aggregates in expansion order.
type Result struct {
	Name      string
	Baseline  string
	Seeds     int
	Scenarios []string
	Policies  []string
	Runs      []RunResult
	Cells     []Cell
}

// Failed counts runs that panicked.
func (r *Result) Failed() int {
	n := 0
	for i := range r.Runs {
		if r.Runs[i].Err != nil {
			n++
		}
	}
	return n
}

// FailedCells counts cells whose every replication failed — the cells
// the emitters mark FAILED, with no aggregates at all.
func (r *Result) FailedCells() int {
	n := 0
	for i := range r.Cells {
		if r.Cells[i].Runs == 0 {
			n++
		}
	}
	return n
}

// Cell finds an aggregate cell by coordinates; nil when absent.
func (r *Result) Cell(scenarioName, policyName string) *Cell {
	for i := range r.Cells {
		if r.Cells[i].Scenario == scenarioName && r.Cells[i].Policy == policyName {
			return &r.Cells[i]
		}
	}
	return nil
}

// RunFor finds one run by coordinates; nil when absent.
func (r *Result) RunFor(scenarioName, policyName string, seedIdx int) *RunResult {
	for i := range r.Runs {
		rr := &r.Runs[i]
		if rr.Scenario == scenarioName && rr.Policy == policyName && rr.SeedIdx == seedIdx {
			return rr
		}
	}
	return nil
}

// Exec expands the spec and executes it on opts.Workers goroutines.
// Results are deterministic for any worker count: runs are seeded by
// grid coordinates and collected by index, never by completion order.
func Exec(spec *Spec, opts Options) (*Result, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	runs := spec.Runs()
	results := make([]RunResult, len(runs))

	var mu sync.Mutex // guards progress output and the done counter
	done := 0
	par.Do(len(runs), opts.EffectiveWorkers(), func(idx int) {
		if opts.Context != nil && opts.Context.Err() != nil {
			return
		}
		status := ""
		if opts.Journal != nil {
			if rr, ok := opts.Journal.Restored(idx); ok {
				results[idx] = rr
				status = "skipped (journaled)"
			}
		}
		if status == "" {
			results[idx] = execWatched(spec, runs[idx], opts)
			rr := &results[idx]
			if rr.Err != nil {
				status = "FAILED: " + rr.Err.Error()
			} else {
				status = "ok"
				if opts.Journal != nil {
					if err := opts.Journal.Record(rr); err != nil && opts.Progress != nil {
						mu.Lock()
						fmt.Fprintf(opts.Progress, "sweep %s: journal write failed: %v\n", spec.Name, err)
						mu.Unlock()
					}
				}
			}
			if opts.OnRun != nil {
				// After the journal write, so a callback observing the
				// run can already read its checkpoint; serialized under
				// the same mutex as progress output.
				mu.Lock()
				opts.OnRun(rr)
				mu.Unlock()
			}
		}
		if opts.Progress != nil {
			mu.Lock()
			done++
			rr := &results[idx]
			fmt.Fprintf(opts.Progress, "sweep %s: [%d/%d] %s/%s seed#%d %s (%v)\n",
				spec.Name, done, len(runs), rr.Scenario, rr.Policy, rr.SeedIdx,
				status, rr.Elapsed.Round(time.Millisecond))
			mu.Unlock()
		}
	})
	if opts.Context != nil {
		if err := opts.Context.Err(); err != nil {
			return nil, err
		}
	}

	res := &Result{
		Name:     spec.Name,
		Baseline: spec.Baseline,
		Seeds:    spec.seeds(),
		Runs:     results,
	}
	for _, sc := range spec.Scenarios {
		res.Scenarios = append(res.Scenarios, sc.Name)
	}
	for _, p := range spec.Policies {
		res.Policies = append(res.Policies, p.Name)
	}
	res.Cells = aggregate(spec, results)
	return res, nil
}

// execWatched runs one grid cell replication under the per-run
// watchdog: a run exceeding Options.RunTimeout is marked FAILED so a
// single hung configuration cannot wedge the whole sweep. The hung
// goroutine is abandoned (see Options.RunTimeout); its late result is
// received by nobody thanks to the buffered channel. A run that
// finishes past the deadline counts as timed out too, so the verdict
// does not depend on which channel select happens to pick.
func execWatched(spec *Spec, run Run, opts Options) RunResult {
	if opts.RunTimeout <= 0 {
		return execOne(spec, run, opts)
	}
	start := time.Now()
	ch := make(chan RunResult, 1)
	go func() { ch <- execOne(spec, run, opts) }()
	timer := time.NewTimer(opts.RunTimeout)
	defer timer.Stop()
	select {
	case rr := <-ch:
		if time.Since(start) < opts.RunTimeout {
			return rr
		}
	case <-timer.C:
	}
	return RunResult{
		Run:     run,
		Err:     fmt.Errorf("run %s/%s seed#%d timed out after %v", run.Scenario, run.Policy, run.SeedIdx, opts.RunTimeout),
		Elapsed: opts.RunTimeout,
	}
}

// execOne runs one grid cell replication, converting panics into an
// error so a single bad configuration cannot sink a long sweep.
func execOne(spec *Spec, run Run, opts Options) (rr RunResult) {
	rr.Run = run
	start := time.Now()
	defer func() {
		rr.Elapsed = time.Since(start)
		if p := recover(); p != nil {
			rr.Err = fmt.Errorf("run %s/%s seed#%d panicked: %v", run.Scenario, run.Policy, run.SeedIdx, p)
		}
	}()

	if nf := spec.Scenarios[run.ScenarioIdx].NewFleet; nf != nil {
		fs := nf()
		fs.Seed = run.Seed
		if fs.GenSeed == 0 {
			// Pin the population to the sweep's base seed so replications
			// vary only the per-host simulations, mirroring the scenario
			// generator's GenSeed/Seed split.
			fs.GenSeed = spec.baseSeed()
		}
		if spec.Warmup > 0 {
			fs.Warmup = spec.Warmup
		}
		if spec.Measure > 0 {
			fs.Measure = spec.Measure
		}
		res := fleet.Run(*fs, fleet.Options{
			NewPolicy: spec.Policies[run.PolicyIdx].New,
			Workers:   opts.FleetWorkers,
		})
		rr.Apps = res.Apps
		rr.Metrics = res.Metrics
		return rr
	}

	sc := spec.Scenarios[run.ScenarioIdx].New()
	sc.Seed = run.Seed
	if spec.Warmup > 0 {
		sc.Warmup = spec.Warmup
	}
	if spec.Measure > 0 {
		sc.Measure = spec.Measure
	}
	pol := spec.Policies[run.PolicyIdx].New()
	res := scenario.Run(sc, pol)

	rr.Apps = res.Apps
	rr.PerVM = res.PerVM
	rr.Metrics = res.Metrics
	rr.Instance = pol
	if opts.KeepRaw {
		rr.Raw = res
	} else if ctl := rr.Controller(); ctl != nil {
		// Keep the controller's diagnostics (LastPlan, Reclusters) but
		// release the hypervisor and monitoring history it anchors —
		// otherwise every AQL run would pin a full simulation graph,
		// defeating the point of KeepRaw being opt-in.
		ctl.H = nil
		ctl.Monitor = nil
	}
	return rr
}
