package experiments

import (
	"fmt"

	"aqlsched/internal/catalog"
	"aqlsched/internal/report"
	"aqlsched/internal/scenario"
	"aqlsched/internal/sweep"
)

// AdaptationWindows is the vTRS window axis of the adaptation
// experiment: n = 4 is the paper's choice, the sweep brackets it.
var AdaptationWindows = []int{1, 2, 4, 8}

// AdaptationSweep declares the reactivity-vs-churn grid: the dynphase
// scenario (phased VMs whose ground-truth type flips every 1–1.5 s)
// under AQL at each vTRS window. Section 3.3 argues n trades
// reactivity (short windows re-recognize a flipped vCPU sooner)
// against migration churn (every re-recognition the clustering acts on
// moves vCPUs between pools); this sweep measures both sides on
// genuinely moving workloads.
func AdaptationSweep(cfg Config) *sweep.Spec {
	warm, meas := cfg.windows()
	sp := &sweep.Spec{
		Name:      "adaptation",
		Scenarios: []sweep.Scenario{mustScenario("dynphase")},
		BaseSeed:  cfg.seed(),
		Warmup:    warm,
		Measure:   meas,
	}
	if !cfg.Quick {
		sp.Seeds = 3
	}
	for _, n := range AdaptationWindows {
		sp.Policies = append(sp.Policies, sweep.Policy(catalog.AQLWindowPolicy(n)))
	}
	return sp
}

// AdaptationRow is one window's aggregate: recognition latency (in
// 30 ms monitoring periods), truth-match fraction, and measurement-
// window recluster/migration churn.
type AdaptationRow struct {
	Window     int
	Latency    float64
	LatencyCI  float64
	MatchFrac  float64
	Reclusters float64
	Migrations float64
}

// AdaptationResult is the executed experiment.
type AdaptationResult struct {
	Rows []AdaptationRow
}

// Adaptation runs the window sweep and folds the per-cell adaptation
// aggregates into one row per window.
func Adaptation(cfg Config) *AdaptationResult {
	sp := AdaptationSweep(cfg)
	res := mustSweep(sp, sweep.Options{})
	out := &AdaptationResult{}
	for i, n := range AdaptationWindows {
		cell := res.Cell("dynphase", sp.Policies[i].Name)
		// adapt_match_frac is recorded by every adaptive run, so its
		// absence means the cell produced no adaptation data at all — a
		// configuration error. adapt_latency_periods is absent when no
		// replication recognized a flip; that degrades to a 0 row
		// (matching the historical empty-stats rendering), not a panic.
		if cell.Metric(scenario.MAdaptMatch.Name) == nil {
			panic(fmt.Sprintf("experiments: adaptation metrics for window %d missing", n))
		}
		stat := func(name string) (mean, ci float64) {
			if m := cell.Metric(name); m != nil {
				return m.Stats.Mean, m.Stats.CI95
			}
			return 0, 0
		}
		lat, latCI := stat(scenario.MAdaptLatency.Name)
		match, _ := stat(scenario.MAdaptMatch.Name)
		recl, _ := stat(scenario.MAdaptReclusters.Name)
		mig, _ := stat(scenario.MAdaptMigrations.Name)
		out.Rows = append(out.Rows, AdaptationRow{
			Window:     n,
			Latency:    lat,
			LatencyCI:  latCI,
			MatchFrac:  match,
			Reclusters: recl,
			Migrations: mig,
		})
	}
	return out
}

// Table renders the reactivity-vs-churn trade-off.
func (r *AdaptationResult) Table() *report.Table {
	t := &report.Table{
		Title:   "Adaptation: vTRS window n vs recognition latency and migration churn (dynphase)",
		Headers: []string{"window n", "recognition latency (periods)", "±ci95", "truth match", "reclusters", "migrations"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Window,
			fmt.Sprintf("%.2f", row.Latency), fmt.Sprintf("%.2f", row.LatencyCI),
			fmt.Sprintf("%.0f%%", 100*row.MatchFrac),
			fmt.Sprintf("%.1f", row.Reclusters), fmt.Sprintf("%.1f", row.Migrations))
	}
	t.AddNote("phased VMs flip type every 1-1.5s; latency = periods from a ground-truth flip to the vTRS re-recognizing it")
	t.AddNote("short windows react faster but recluster (and migrate) more - the trade-off behind the paper's n = 4")
	return t
}
