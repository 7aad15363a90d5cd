package sweep

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"

	"aqlsched/internal/atomicio"
	"aqlsched/internal/metrics"
	"aqlsched/internal/report"
)

// Document is the JSON artifact shape: the sweep's identity, its axes,
// the metric schema, and the aggregate cells. Every emitter derives
// its columns from the same schema, so a newly registered metric shows
// up everywhere without emitter changes. The document deliberately
// excludes wall-clock data so the artifact is byte-identical across
// worker counts and machines.
type Document struct {
	Name      string           `json:"name"`
	Baseline  string           `json:"baseline,omitempty"`
	Seeds     int              `json:"seeds"`
	Scenarios []string         `json:"scenarios"`
	Policies  []string         `json:"policies"`
	Failed    int              `json:"failed_runs,omitempty"`
	Schema    []metrics.Schema `json:"schema"`
	Cells     []Cell           `json:"cells"`
}

// Schema lists the metrics present anywhere in the result's cells, in
// registry order — the emitted column set.
func (r *Result) Schema() []metrics.Schema {
	present := map[string]bool{}
	for i := range r.Cells {
		c := &r.Cells[i]
		for j := range c.Apps {
			for _, m := range c.Apps[j].Metrics {
				present[m.Name] = true
			}
		}
		for _, m := range c.Metrics {
			present[m.Name] = true
		}
	}
	out := []metrics.Schema{}
	for _, d := range metrics.Descs() {
		if !present[d.Name] {
			continue
		}
		out = append(out, d.Schema())
	}
	return out
}

// Document builds the emittable view of the result.
func (r *Result) Document() Document {
	return Document{
		Name:      r.Name,
		Baseline:  r.Baseline,
		Seeds:     r.Seeds,
		Scenarios: r.Scenarios,
		Policies:  r.Policies,
		Failed:    r.Failed(),
		Schema:    r.Schema(),
		Cells:     r.Cells,
	}
}

// WriteJSON emits the aggregate document as indented JSON.
func (r *Result) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Document())
}

// WriteArtifacts emits <dir>/<name>.json, .csv and .txt (creating dir
// as needed) and returns the paths written. Every write is atomic
// (temp file + rename), so an interrupted process never leaves a
// truncated artifact — the shared emit path of aqlsweep -out and
// aqlsweepd job completion, which is what makes service and batch
// artifacts byte-comparable.
func (r *Result) WriteArtifacts(dir string) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var paths []string
	emit := func(ext string, write func(io.Writer) error) error {
		path := filepath.Join(dir, r.Name+ext)
		if err := atomicio.WriteTo(path, 0o644, write); err != nil {
			return err
		}
		paths = append(paths, path)
		return nil
	}
	if err := emit(".json", r.WriteJSON); err != nil {
		return nil, err
	}
	if err := emit(".csv", r.WriteCSV); err != nil {
		return nil, err
	}
	if err := emit(".txt", func(w io.Writer) error { r.Table().Render(w); return nil }); err != nil {
		return nil, err
	}
	return paths, nil
}

// csvFloat formats a float with enough digits to round-trip, so the
// CSV artifact is as deterministic as the JSON one.
func csvFloat(x float64) string {
	return strconv.FormatFloat(x, 'g', -1, 64)
}

// metricUnit resolves a metric's unit for display ("" when the name
// left the registry — impossible for artifacts we emitted ourselves).
func metricUnit(name string) string {
	d, _ := metrics.DescByName(name)
	return d.Unit
}

// WriteCSV emits the aggregate in long form: one row per (scenario,
// policy, app, metric), followed by one row per (scenario, policy,
// metric) for run-scoped metrics (empty app and type columns). Rows
// follow cell expansion order and registry metric order, so the
// artifact is deterministic for any worker count; the column set never
// depends on which metrics happen to be present.
func (r *Result) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := []string{
		"scenario", "policy", "app", "type", "metric", "unit",
		"mean", "std", "ci95", "min", "max",
		"norm_mean", "norm_std", "norm_ci95", "runs",
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	row := func(c *Cell, app, typ string, m *CellMetric) error {
		out := []string{
			c.Scenario, c.Policy, app, typ, m.Name, metricUnit(m.Name),
			csvFloat(m.Stats.Mean), csvFloat(m.Stats.Std), csvFloat(m.Stats.CI95),
			csvFloat(m.Stats.Min), csvFloat(m.Stats.Max),
			"", "", "",
			strconv.Itoa(c.Runs),
		}
		if m.Norm != nil {
			out[11] = csvFloat(m.Norm.Mean)
			out[12] = csvFloat(m.Norm.Std)
			out[13] = csvFloat(m.Norm.CI95)
		}
		return cw.Write(out)
	}
	for i := range r.Cells {
		c := &r.Cells[i]
		// A cell whose every replication failed has no rows at all; mark
		// it so CSV-only consumers can tell a failed cell from an absent
		// one.
		if c.Runs == 0 {
			out := []string{c.Scenario, c.Policy, "", "", "FAILED", "",
				"", "", "", "", "", "", "", "", strconv.Itoa(c.Runs)}
			if err := cw.Write(out); err != nil {
				return err
			}
			continue
		}
		for j := range c.Apps {
			a := &c.Apps[j]
			for k := range a.Metrics {
				if err := row(c, a.App, a.Type, &a.Metrics[k]); err != nil {
					return err
				}
			}
		}
		for k := range c.Metrics {
			if err := row(c, "", "", &c.Metrics[k]); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// Table renders the aggregates as a report table in the same long
// form as the CSV: one row per (scenario, policy, app, metric), with
// run-scoped metrics under an empty app column.
func (r *Result) Table() *report.Table {
	title := fmt.Sprintf("Sweep %s: %d scenarios x %d policies x %d seeds",
		r.Name, len(r.Scenarios), len(r.Policies), r.Seeds)
	t := &report.Table{
		Title:   title,
		Headers: []string{"scenario", "policy", "app", "metric", "mean", "±ci95", "norm", "±ci95"},
	}
	addRow := func(c *Cell, app string, m *CellMetric) {
		norm, nci := "-", "-"
		if m.Norm != nil {
			norm = fmt.Sprintf("%.3f", m.Norm.Mean)
			nci = fmt.Sprintf("%.3f", m.Norm.CI95)
		}
		name := m.Name
		if u := metricUnit(m.Name); u != "" && u != "index" && u != "frac" && u != "count" {
			name += " (" + u + ")"
		}
		t.AddRow(c.Scenario, c.Policy, app, name,
			fmt.Sprintf("%.4g", m.Stats.Mean), fmt.Sprintf("%.3g", m.Stats.CI95),
			norm, nci)
	}
	for i := range r.Cells {
		c := &r.Cells[i]
		for j := range c.Apps {
			a := &c.Apps[j]
			for k := range a.Metrics {
				addRow(c, a.App, &a.Metrics[k])
			}
		}
		for k := range c.Metrics {
			addRow(c, "-", &c.Metrics[k])
		}
	}
	if r.Baseline != "" {
		t.AddNote("norm = metric normalized over %s, paired per seed replication; lower is better", r.Baseline)
	}
	if f := r.Failed(); f > 0 {
		t.AddNote("%d run(s) failed and were excluded from aggregates", f)
	}
	return t
}
