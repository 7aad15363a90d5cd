package experiments

import (
	"sort"

	"aqlsched/internal/report"
	"aqlsched/internal/sweep"
)

// Fig8Apps maps the paper's reported types to S5 applications.
var fig8Apps = []struct {
	Label string
	App   string
}{
	{"IOInt", "SPECweb2009"},
	{"ConSpin", "facesim"},
	{"LLCF", "bzip2"},
}

// Fig8Result compares AQL with the related systems on scenario S5.
type Fig8Result struct {
	// Norm maps policy -> type label -> normalized perf (base: Xen).
	Norm map[string]map[string]float64
}

// Fig8Sweep declares the comparison: the built-in fig8 sweep (scenario
// S5 under the default Xen scheduler, the baseline, and the four
// contenders) at cfg's seed and windows.
func Fig8Sweep(cfg Config) *sweep.Spec {
	sp, _ := sweep.Builtin("fig8")
	sp.BaseSeed = cfg.seed()
	sp.Warmup, sp.Measure = cfg.windows()
	return sp
}

// Fig8 runs S5 under vTurbo, Microsliced, vSlicer and AQL_Sched,
// normalizing each over the default Xen scheduler (the paper's Fig. 8).
// The baselines have no type recognition, so — exactly as the authors
// did — they are configured manually for their best behaviour.
func Fig8(cfg Config) *Fig8Result {
	sp := Fig8Sweep(cfg)
	res := mustSweep(sp, sweep.Options{})
	out := &Fig8Result{Norm: map[string]map[string]float64{}}
	for _, pol := range sp.Policies {
		if pol.Name == sp.Baseline {
			continue
		}
		m := map[string]float64{}
		for _, fa := range fig8Apps {
			m[fa.Label] = res.Norm("S5", pol.Name, fa.App)
		}
		out.Norm[pol.Name] = m
	}
	return out
}

// Table renders the comparison.
func (r *Fig8Result) Table() *report.Table {
	t := &report.Table{
		Title:   "Fig. 8: comparison with vTurbo, Microsliced and vSlicer on S5 (base: Xen; lower=better)",
		Headers: []string{"policy", "IOInt", "ConSpin", "LLCF"},
	}
	pols := make([]string, 0, len(r.Norm))
	for p := range r.Norm {
		pols = append(pols, p)
	}
	sort.Strings(pols)
	for _, p := range pols {
		t.AddRow(p, r.Norm[p]["IOInt"], r.Norm[p]["ConSpin"], r.Norm[p]["LLCF"])
	}
	t.AddNote("baselines configured manually for best performance (no online recognition)")
	return t
}
