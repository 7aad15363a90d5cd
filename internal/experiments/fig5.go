package experiments

import (
	"aqlsched/internal/catalog"
	"aqlsched/internal/report"
	"aqlsched/internal/scenario"
	"aqlsched/internal/sim"
	"aqlsched/internal/sweep"
	"aqlsched/internal/vcputype"
	"aqlsched/internal/workload"
)

// Fig5Quanta is the sweep of Fig. 5 (30 ms is the normalization base).
func Fig5Quanta() []sim.Time {
	return []sim.Time{
		1 * sim.Millisecond,
		10 * sim.Millisecond,
		60 * sim.Millisecond,
		90 * sim.Millisecond,
	}
}

// Fig5App is one application's sweep outcome.
type Fig5App struct {
	Name     string
	Expected vcputype.Type
	// Norm maps quantum -> normalized performance (lower is better).
	Norm map[sim.Time]float64
}

// BestQuantum reports the quantum with the lowest normalized value
// (30 ms is included implicitly with value 1). Exact ties go to the 30 ms
// default, then to the shortest tied quantum: the scan walks Fig5Quanta
// in order, never the Norm map, so the answer is the same in every
// process.
func (a Fig5App) BestQuantum() sim.Time {
	best, bestV := 30*sim.Millisecond, 1.0
	for _, q := range Fig5Quanta() {
		if v, ok := a.Norm[q]; ok && v < bestV {
			best, bestV = q, v
		}
	}
	return best
}

// Spread reports max-min normalized value across all quanta.
func (a Fig5App) Spread() float64 {
	lo, hi := 1.0, 1.0
	for _, v := range a.Norm {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return hi - lo
}

// Fig5Result holds the robustness sweep.
type Fig5Result struct {
	Apps []Fig5App
}

// Fig5Suite lists the applications swept: the full reference suite, or
// a two-per-type subset in quick mode.
func Fig5Suite(cfg Config) []workload.AppSpec {
	if !cfg.Quick {
		return workload.Suite()
	}
	return []workload.AppSpec{
		workload.SPECWeb2009(),
		workload.ByName("bzip2"),
		workload.ByName("astar"),
		workload.ByName("hmmer"),
		workload.ByName("libquantum"),
		workload.ByName("fluidanimate"),
	}
}

// Fig5Sweep declares the robustness sweep: one colocation scenario per
// application, one fixed-quantum policy per swept quantum, normalized
// over the 30 ms default.
func Fig5Sweep(cfg Config) *sweep.Spec {
	base := catalog.FixedPolicy(30 * sim.Millisecond)
	sp := &sweep.Spec{
		Name:     "fig5",
		Policies: []sweep.Policy{base},
		Baseline: base.Name,
		BaseSeed: cfg.seed(),
	}
	for _, q := range Fig5Quanta() {
		sp.Policies = append(sp.Policies, catalog.FixedPolicy(q))
	}
	for _, app := range Fig5Suite(cfg) {
		app := app
		sp.Scenarios = append(sp.Scenarios, sweep.Scenario{
			Name: "colo-" + app.Name,
			New:  func() scenario.Spec { return Colo(app, 4, cfg) },
		})
	}
	return sp
}

// Fig5 runs every application in the standard 4-vCPUs-per-pCPU
// colocation under each quantum and normalizes over the Xen default —
// validating that each app performs best at (or indistinguishably from)
// its type's calibrated quantum.
func Fig5(cfg Config) *Fig5Result {
	res := mustSweep(Fig5Sweep(cfg), sweep.Options{})
	out := &Fig5Result{}
	for _, app := range Fig5Suite(cfg) {
		a := Fig5App{Name: app.Name, Expected: app.Expected, Norm: map[sim.Time]float64{}}
		for _, q := range Fig5Quanta() {
			cell := res.Cell("colo-"+app.Name, catalog.FixedPolicy(q).Name)
			if n := cell.App(app.Name).Norm(); n != nil {
				a.Norm[q] = n.Mean
			}
		}
		out.Apps = append(out.Apps, a)
	}
	return out
}

// Table renders the sweep in the paper's Fig. 5 layout.
func (r *Fig5Result) Table() *report.Table {
	t := &report.Table{
		Title:   "Fig. 5: normalized performance per quantum (base: 30ms; lower=better)",
		Headers: []string{"app", "type", "1ms", "10ms", "60ms", "90ms", "best"},
	}
	for _, a := range r.Apps {
		t.AddRow(a.Name, a.Expected.String(),
			a.Norm[1*sim.Millisecond], a.Norm[10*sim.Millisecond],
			a.Norm[60*sim.Millisecond], a.Norm[90*sim.Millisecond],
			a.BestQuantum().String())
	}
	t.AddNote("each app colocated with trashing/low-footprint disturbers at 4 vCPUs/pCPU")
	return t
}
