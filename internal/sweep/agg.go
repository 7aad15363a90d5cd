package sweep

import (
	"fmt"
	"math"

	"aqlsched/internal/metrics"
)

// Stats summarizes one sample set across seed replications. CI95 is
// the half-width of the 95% confidence interval under the normal
// approximation (1.96·s/√n); with a single replication Std and CI95
// are zero.
type Stats struct {
	Mean float64 `json:"mean"`
	Std  float64 `json:"std"`
	CI95 float64 `json:"ci95"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
	N    int     `json:"n"`
}

// NewStats computes summary statistics over xs (sample stddev).
func NewStats(xs []float64) Stats {
	s := Stats{N: len(xs)}
	if s.N == 0 {
		return s
	}
	s.Min, s.Max = xs[0], xs[0]
	sum := 0.0
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(s.N)
	if s.N > 1 {
		ss := 0.0
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.Std = math.Sqrt(ss / float64(s.N-1))
		s.CI95 = 1.96 * s.Std / math.Sqrt(float64(s.N))
	}
	return s
}

// CellMetric aggregates one registered metric inside one cell: the raw
// per-run samples summarized across replications and, for
// direction-aware metrics under a baseline, the per-replication
// normalized performance (paired by seed). A replication whose run did
// not record the metric (failed measurement, non-adaptive run)
// contributes no sample.
type CellMetric struct {
	// Name is the metric's registry name; unit, direction, aggregation
	// kind and scope come from the Document schema (or the registry).
	Name  string `json:"name"`
	Stats Stats  `json:"stats"`
	// Norm summarizes the per-replication normalized performance
	// against the baseline policy. Nil when the sweep has no baseline,
	// the metric is a diagnostic, or no replication pair normalized.
	Norm *Stats `json:"norm,omitempty"`
}

// CellApp aggregates one application inside one cell: its metric Set's
// union across replications, in registry order.
type CellApp struct {
	App string `json:"app"`
	// Type is the expected vCPU type (IOInt, ConSpin, ...).
	Type    string       `json:"type"`
	Metrics []CellMetric `json:"metrics"`
}

// Metric finds an aggregated metric by registry name; nil when absent.
func (a *CellApp) Metric(name string) *CellMetric {
	if a == nil {
		return nil
	}
	for i := range a.Metrics {
		if a.Metrics[i].Name == name {
			return &a.Metrics[i]
		}
	}
	return nil
}

// Perf returns the app's primary performance aggregate (the metric the
// paper's figures report); nil when every replication failed to
// measure it.
func (a *CellApp) Perf() *CellMetric {
	if a == nil {
		return nil
	}
	for i := range a.Metrics {
		if d, ok := metrics.DescByName(a.Metrics[i].Name); ok && d.Primary {
			return &a.Metrics[i]
		}
	}
	return nil
}

// Norm is the normalized aggregate of the app's primary performance
// metric; nil without a baseline or when no pair normalized.
func (a *CellApp) Norm() *Stats {
	if m := a.Perf(); m != nil {
		return m.Norm
	}
	return nil
}

// Cell is the aggregate of one scenario × policy coordinate.
type Cell struct {
	Scenario string    `json:"scenario"`
	Policy   string    `json:"policy"`
	Apps     []CellApp `json:"apps"`
	// Metrics aggregates the run-scoped metric Sets (hypervisor
	// counters, adaptation diagnostics), in registry order.
	Metrics []CellMetric `json:"metrics,omitempty"`
	// Runs is how many replications succeeded.
	Runs int `json:"runs"`
}

// App finds an application aggregate by name; nil when absent.
func (c *Cell) App(name string) *CellApp {
	if c == nil {
		return nil
	}
	for i := range c.Apps {
		if c.Apps[i].App == name {
			return &c.Apps[i]
		}
	}
	return nil
}

// Metric finds a run-scoped aggregate by registry name; nil when absent.
func (c *Cell) Metric(name string) *CellMetric {
	if c == nil {
		return nil
	}
	for i := range c.Metrics {
		if c.Metrics[i].Name == name {
			return &c.Metrics[i]
		}
	}
	return nil
}

// Norm is a convenience accessor for the mean normalized performance
// of one app's primary metric in one cell (0 when the coordinate or
// baseline is missing).
func (r *Result) Norm(scenarioName, policyName, app string) float64 {
	if n := r.Cell(scenarioName, policyName).App(app).Norm(); n != nil {
		return n.Mean
	}
	return 0
}

// collectMetric gathers one metric's samples across a cell's n
// replications: get reads the metric from replication k (ok=false when
// that run failed or never measured it), getBase reads the paired
// baseline replication (nil without a baseline). Returns nil when no
// replication measured the metric — the column simply does not exist
// for this cell.
func collectMetric(d metrics.Desc, n int, get, getBase func(k int) (float64, bool)) *CellMetric {
	var raw, norm []float64
	for k := 0; k < n; k++ {
		v, ok := get(k)
		if !ok {
			continue
		}
		raw = append(raw, v)
		if getBase == nil {
			continue
		}
		bv, ok := getBase(k)
		if !ok {
			continue
		}
		if nv, ok := d.Normalized(v, bv); ok {
			norm = append(norm, nv)
		}
	}
	if len(raw) == 0 {
		return nil
	}
	cm := &CellMetric{Name: d.Name, Stats: NewStats(raw)}
	if len(norm) > 0 {
		s := NewStats(norm)
		cm.Norm = &s
	}
	return cm
}

// aggregate folds the run matrix into per-cell statistics. It is fully
// schema-driven: for every cell it walks the metric registry in
// registration order, collects the samples each replication's Sets
// recorded, and summarizes them generically — adding a metric anywhere
// in the pipeline automatically adds it here and in every emitter.
// Cells are walked in expansion order so the output is deterministic.
func aggregate(spec *Spec, runs []RunResult) []Cell {
	n := spec.seeds()
	baselineIdx := -1
	for pi, p := range spec.Policies {
		if spec.Baseline != "" && p.Name == spec.Baseline {
			baselineIdx = pi
		}
	}
	// runAt addresses the matrix by coordinates.
	runAt := func(si, pi, k int) *RunResult {
		idx := (si*len(spec.Policies)+pi)*n + k
		rr := &runs[idx]
		if rr.Err != nil {
			return nil
		}
		return rr
	}

	var perApp, perRun []metrics.Desc
	for _, d := range metrics.Descs() {
		if d.Scope == metrics.PerRun {
			perRun = append(perRun, d)
		} else {
			perApp = append(perApp, d)
		}
	}

	// metricsOf aggregates descs over the replications of cell (si, pi),
	// normalized against the baseline policy's replications when the
	// sweep has one. setOf picks the measured Set out of one run, or nil
	// when the run has none for this slot. The result is never nil, so
	// an app with no metrics emits "metrics": [].
	metricsOf := func(si, pi int, descs []metrics.Desc, setOf func(*RunResult) *metrics.Set) []CellMetric {
		sample := func(pi int, name string) func(k int) (float64, bool) {
			return func(k int) (float64, bool) {
				if rr := runAt(si, pi, k); rr != nil {
					if set := setOf(rr); set != nil {
						return set.Get(name)
					}
				}
				return 0, false
			}
		}
		out := []CellMetric{}
		for _, d := range descs {
			var getBase func(k int) (float64, bool)
			if baselineIdx >= 0 {
				getBase = sample(baselineIdx, d.Name)
			}
			if cm := collectMetric(d, n, sample(pi, d.Name), getBase); cm != nil {
				out = append(out, *cm)
			}
		}
		return out
	}

	var cells []Cell
	for si := range spec.Scenarios {
		for pi := range spec.Policies {
			// Apps starts non-nil so an all-failed cell emits "apps": []
			// rather than null in the JSON artifact.
			cell := Cell{Scenario: spec.Scenarios[si].Name, Policy: spec.Policies[pi].Name, Apps: []CellApp{}}
			// App order comes from the first successful replication
			// (scenario.Run emits apps in deployment order, which is
			// identical across replications of one scenario).
			var first *RunResult
			for k := 0; k < n; k++ {
				if rr := runAt(si, pi, k); rr != nil {
					cell.Runs++
					if first == nil {
						first = rr
					}
				}
			}
			if first == nil {
				cells = append(cells, cell)
				continue
			}
			for ai, am := range first.Apps {
				cell.Apps = append(cell.Apps, CellApp{App: am.Name, Type: am.Expected.String(),
					Metrics: metricsOf(si, pi, perApp, func(rr *RunResult) *metrics.Set {
						if ai >= len(rr.Apps) {
							return nil
						}
						return &rr.Apps[ai].Metrics
					})})
			}
			cell.Metrics = metricsOf(si, pi, perRun, func(rr *RunResult) *metrics.Set { return &rr.Metrics })
			cells = append(cells, cell)
		}
	}
	return cells
}

// SelectMetrics restricts every emitter (JSON, CSV, table) to the
// named metrics, dropping all other columns from the cells in place.
// It errors — before mutating anything — on a name that is not
// registered, and on a selection no cell ever recorded (a registered
// metric the sweep never measured, e.g. adapt_* on a static grid):
// both would otherwise silently emit an empty artifact. Emission
// order stays registry order regardless of selection order.
func (r *Result) SelectMetrics(names ...string) error {
	keep := make(map[string]bool, len(names))
	for _, n := range names {
		if _, ok := metrics.DescByName(n); !ok {
			return fmt.Errorf("sweep: unknown metric %q (aqlsweep -list-metrics prints the registry)", n)
		}
		keep[n] = true
	}
	recorded := false
	for i := range r.Cells {
		c := &r.Cells[i]
		for j := range c.Apps {
			for _, m := range c.Apps[j].Metrics {
				recorded = recorded || keep[m.Name]
			}
		}
		for _, m := range c.Metrics {
			recorded = recorded || keep[m.Name]
		}
	}
	if !recorded && len(r.Cells) > 0 {
		return fmt.Errorf("sweep: selection %v matches no metric recorded by this sweep", names)
	}
	filter := func(ms []CellMetric) []CellMetric {
		out := ms[:0]
		for _, m := range ms {
			if keep[m.Name] {
				out = append(out, m)
			}
		}
		return out
	}
	for i := range r.Cells {
		c := &r.Cells[i]
		for j := range c.Apps {
			c.Apps[j].Metrics = filter(c.Apps[j].Metrics)
		}
		c.Metrics = filter(c.Metrics)
	}
	return nil
}
