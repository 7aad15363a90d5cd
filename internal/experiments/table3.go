package experiments

import (
	"aqlsched/internal/baselines"
	"aqlsched/internal/par"
	"aqlsched/internal/report"
	"aqlsched/internal/scenario"
	"aqlsched/internal/vcputype"
	"aqlsched/internal/workload"
)

// Table3Entry is one application's recognition outcome.
type Table3Entry struct {
	App      string
	Expected vcputype.Type
	Detected vcputype.Type
}

// Table3Result is the full recognition census.
type Table3Result struct {
	Entries []Table3Entry
}

// Table3 runs every reference application in the standard colocation and
// reports the type vTRS detects — the paper's Table 3. The runs are
// independent, so they share the par pool at GOMAXPROCS, each writing
// its own entry; the census is identical at any worker count.
func Table3(cfg Config) *Table3Result {
	suite := table3Suite(cfg)
	out := &Table3Result{Entries: make([]Table3Entry, len(suite))}
	par.Do(len(suite), 0, func(i int) {
		app := suite[i]
		pol := &baselines.AQL{MonitorOnly: true}
		res := scenario.Run(Colo(app, 4, cfg), pol)
		detected := pol.AQLController().Monitor.TypeOf(res.Deps[0].Dom.VCPUs[0])
		out.Entries[i] = Table3Entry{
			App:      app.Name,
			Expected: app.Expected,
			Detected: detected,
		}
	})
	return out
}

func table3Suite(cfg Config) []workload.AppSpec {
	if !cfg.Quick {
		return workload.Suite()
	}
	return Fig5Suite(cfg)
}

// Mistyped counts entries whose detected type differs from the paper's.
func (r *Table3Result) Mistyped() int {
	n := 0
	for _, e := range r.Entries {
		if e.Detected != e.Expected {
			n++
		}
	}
	return n
}

// Table renders the census grouped like the paper's Table 3.
func (r *Table3Result) Table() *report.Table {
	t := &report.Table{
		Title:   "Table 3: application type recognition (vTRS)",
		Headers: []string{"type", "applications (detected)"},
	}
	byType := map[vcputype.Type][]string{}
	for _, e := range r.Entries {
		name := e.App
		if e.Detected != e.Expected {
			name += "(!" + e.Detected.String() + ")"
		}
		byType[e.Expected] = append(byType[e.Expected], name)
	}
	for _, ty := range vcputype.All() {
		apps := byType[ty]
		line := ""
		for i, a := range apps {
			if i > 0 {
				line += ", "
			}
			line += a
		}
		t.AddRow(ty.String(), line)
	}
	t.AddNote("(!X) marks an app detected as X instead of the paper's type")
	return t
}
