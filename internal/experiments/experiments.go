// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 4) on the simulator:
//
//	Fig. 2   — quantum-length calibration per type (+ lock durations)
//	Fig. 4   — online vTRS cursor traces for 5 representative apps
//	Table 3  — detected type for every benchmark
//	Fig. 5   — per-app performance across quantum lengths (robustness)
//	Table 4  — colocation scenarios (inputs)
//	Table 5  — clusters AQL forms per scenario
//	Fig. 6   — AQL vs default Xen, single-socket (left) and 4-socket
//	           (right, the Fig. 3 population)
//	Fig. 7   — quantum-customization ablation on the 4-socket case
//	Fig. 8   — comparison with vTurbo, Microsliced and vSlicer on S5
//	Table 6  — qualitative feature comparison
//	§4.3     — overhead of the monitoring/recognition/clustering path
//
// Every experiment returns a typed result plus rendered text tables.
// Absolute numbers are simulator-specific; the shapes are what
// reproduce (see EXPERIMENTS.md).
//
// The grid-shaped experiments (Fig. 5, Fig. 6, Fig. 7, Fig. 8) are
// declared as sweep.Spec values and executed by the internal/sweep
// orchestrator on a worker pool — the same grids are runnable
// standalone via cmd/aqlsweep.
package experiments

import (
	"aqlsched/internal/calib"
	"aqlsched/internal/catalog"
	"aqlsched/internal/scenario"
	"aqlsched/internal/sim"
	"aqlsched/internal/sweep"
	"aqlsched/internal/workload"
)

// Config controls experiment durations.
type Config struct {
	// Quick shrinks measurement windows and sweeps (tests, -short).
	Quick bool
	// Seed for all scenario RNGs.
	Seed uint64
}

// DefaultConfig is the full-length configuration.
func DefaultConfig() Config { return Config{Seed: 0xA91} }

// QuickConfig is the reduced configuration.
func QuickConfig() Config { return Config{Quick: true, Seed: 0xA91} }

func (c Config) seed() uint64 {
	if c.Seed == 0 {
		return 0xA91
	}
	return c.Seed
}

// mustSweep executes a sweep for an experiment entry point. The sweep
// layer tolerates failed runs (a long aqlsweep grid should survive
// one bad cell); the figure runners must not, or a swallowed panic
// would read as a 0x normalized "result" — so any run error escalates.
func mustSweep(sp *sweep.Spec, opts sweep.Options) *sweep.Result {
	res, err := sweep.Exec(sp, opts)
	if err != nil {
		panic("experiments: " + err.Error())
	}
	for i := range res.Runs {
		if e := res.Runs[i].Err; e != nil {
			panic("experiments: " + e.Error())
		}
	}
	return res
}

// mustScenario resolves a catalog scenario for a sweep axis.
func mustScenario(name string) sweep.Scenario {
	newSpec, err := catalog.Scenarios.Lookup(name)
	if err != nil {
		panic("experiments: " + err.Error())
	}
	return sweep.Scenario{Name: name, New: newSpec}
}

// windows returns (warmup, measure).
func (c Config) windows() (sim.Time, sim.Time) {
	if c.Quick {
		return sweep.QuickWarmup, sweep.QuickMeasure
	}
	return 2 * sim.Second, 6 * sim.Second
}

// Colo is the paper's standard measurement environment for one
// application (calib.Colo) on a fresh i7-3770 with cfg's windows and
// seed.
func Colo(app workload.AppSpec, k int, cfg Config) scenario.Spec {
	warm, meas := cfg.windows()
	return calib.Colo(app, k, calib.Options{Warmup: warm, Measure: meas, Seed: cfg.seed()})
}
