package experiments

import (
	"sort"

	"aqlsched/internal/catalog"
	"aqlsched/internal/cluster"
	"aqlsched/internal/report"
	"aqlsched/internal/scenario"
	"aqlsched/internal/sweep"
)

// ScenarioOutcome is one Table-4 scenario under AQL vs default Xen.
type ScenarioOutcome struct {
	Name string
	// Norm maps app name -> normalized perf under AQL (base: Xen).
	Norm map[string]float64
	// Expected type per app name.
	Types map[string]string
	// Clusters is the final layout AQL settled on (Table 5).
	Clusters []*cluster.Cluster
	// Reclusters counts applied reconfigurations.
	Reclusters uint64
}

// SingleSocketResult covers Fig. 6 (left) and Table 5.
type SingleSocketResult struct {
	Scenarios []ScenarioOutcome
}

// SingleSocketSweep declares the Table 4 grid: scenarios S1–S5 under
// default Xen (the baseline) and AQL_Sched.
func SingleSocketSweep(cfg Config) *sweep.Spec {
	warm, meas := cfg.windows()
	sp := &sweep.Spec{
		Name:     "single-socket",
		Policies: []sweep.Policy{catalog.XenPolicy(), catalog.AQLPolicy()},
		Baseline: catalog.XenPolicy().Name,
		BaseSeed: cfg.seed(),
		Warmup:   warm,
		Measure:  meas,
	}
	for _, s := range scenario.Table4(0) {
		sp.Scenarios = append(sp.Scenarios, mustScenario(s.Name))
	}
	return sp
}

// SingleSocket runs the five colocation scenarios of Table 4 under the
// default Xen scheduler and under AQL_Sched, producing the normalized
// per-application performance of Fig. 6 (left) and the cluster layouts
// of Table 5.
func SingleSocket(cfg Config) *SingleSocketResult {
	sp := SingleSocketSweep(cfg)
	res := mustSweep(sp, sweep.Options{})
	out := &SingleSocketResult{}
	aqlName := catalog.AQLPolicy().Name
	for _, sc := range sp.Scenarios {
		oc := ScenarioOutcome{
			Name:  sc.Name,
			Norm:  map[string]float64{},
			Types: map[string]string{},
		}
		if cell := res.Cell(sc.Name, aqlName); cell != nil {
			for i := range cell.Apps {
				ca := &cell.Apps[i]
				oc.Types[ca.App] = ca.Type
				if n := ca.Norm(); n != nil {
					oc.Norm[ca.App] = n.Mean
				}
			}
		}
		if rr := res.RunFor(sc.Name, aqlName, 0); rr != nil {
			if ctl := rr.Controller(); ctl != nil && ctl.LastPlan != nil {
				oc.Clusters = ctl.LastPlan.Clusters
				oc.Reclusters = ctl.Reclusters
			}
		}
		out.Scenarios = append(out.Scenarios, oc)
	}
	return out
}

// Fig6LeftTable renders the per-app normalized performance.
func (r *SingleSocketResult) Fig6LeftTable() *report.Table {
	t := &report.Table{
		Title:   "Fig. 6 (left): AQL_Sched vs default Xen, scenarios S1-S5 (lower=better)",
		Headers: []string{"scenario", "app", "type", "normalized perf"},
	}
	for _, sc := range r.Scenarios {
		names := make([]string, 0, len(sc.Norm))
		for n := range sc.Norm {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			t.AddRow(sc.Name, n, sc.Types[n], sc.Norm[n])
		}
	}
	t.AddNote("normalized over the default Xen scheduler; LoLCF/LLCO are quantum agnostic")
	return t
}

// Table5Table renders the cluster layouts.
func (r *SingleSocketResult) Table5Table() *report.Table {
	t := &report.Table{
		Title:   "Table 5: clustering applied to each scenario",
		Headers: []string{"scenario", "cluster", "quantum", "#pCPUs", "members"},
	}
	for _, sc := range r.Scenarios {
		for _, c := range sc.Clusters {
			t.AddRow(sc.Name, c.Name, c.Quantum.String(), len(c.PCPUs), c.MemberSummary())
		}
	}
	return t
}
