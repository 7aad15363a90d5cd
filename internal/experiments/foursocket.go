package experiments

import (
	"fmt"
	"sort"

	"aqlsched/internal/catalog"
	"aqlsched/internal/report"
	"aqlsched/internal/sim"
	"aqlsched/internal/sweep"
)

// ClusterPerf summarizes one cluster of the 4-socket experiment.
type ClusterPerf struct {
	Cluster string
	Quantum sim.Time
	Socket  int
	// PerVariant maps the paper's variant notation (IOInt+, LLCF, ...)
	// to the mean normalized performance of the member VMs.
	PerVariant map[string]float64
	Members    int
	PCPUs      int
}

// Fig6RightResult is the 4-socket experiment outcome.
type Fig6RightResult struct {
	Clusters   []ClusterPerf
	Reclusters uint64
}

// FourSocketSweep declares a sweep of the Fig. 3 population under the
// given policy axis.
func FourSocketSweep(cfg Config, name, baseline string, pols []sweep.Policy) *sweep.Spec {
	warm, meas := cfg.windows()
	return &sweep.Spec{
		Name:      name,
		Scenarios: []sweep.Scenario{mustScenario("four-socket")},
		Policies:  pols,
		Baseline:  baseline,
		BaseSeed:  cfg.seed(),
		Warmup:    warm,
		Measure:   meas,
	}
}

// perVMNorm pairs two runs' per-VM measurements: measured metric over
// baseline metric, keyed by domain name.
func perVMNorm(measured, base *sweep.RunResult) map[string]float64 {
	baseVM := map[string]float64{}
	for _, vm := range base.PerVM {
		v, _ := vm.Perf()
		baseVM[vm.Name] = v
	}
	norm := map[string]float64{}
	for _, vm := range measured.PerVM {
		// A measured VM whose metric failed contributes 0 — the
		// paper-figure semantics these per-VM plots were produced with
		// (a starved VM under the ablation reads as 0, not as absent).
		v, _ := vm.Perf()
		if b := baseVM[vm.Name]; b > 0 {
			norm[vm.Name] = v / b
		}
	}
	return norm
}

// Fig6Right runs the Fig. 3 population (12 LLCO, 12 IOInt+, 17 LLCF,
// 7 ConSpin- vCPUs on three guest sockets) under default Xen and AQL,
// reporting normalized performance per cluster as the paper does.
func Fig6Right(cfg Config) *Fig6RightResult {
	sp := FourSocketSweep(cfg, "fig6-right", catalog.XenPolicy().Name,
		[]sweep.Policy{catalog.XenPolicy(), catalog.AQLPolicy()})
	res := mustSweep(sp, sweep.Options{})
	base := res.RunFor("four-socket", catalog.XenPolicy().Name, 0)
	aql := res.RunFor("four-socket", catalog.AQLPolicy().Name, 0)

	// Per-VM normalized performance.
	norm := perVMNorm(aql, base)

	out := &Fig6RightResult{}
	ctl := aql.Controller()
	if ctl == nil || ctl.LastPlan == nil {
		return out
	}
	out.Reclusters = ctl.Reclusters
	for _, c := range ctl.LastPlan.Clusters {
		cp := ClusterPerf{
			Cluster:    c.Name,
			Quantum:    c.Quantum,
			Socket:     int(c.Socket),
			PerVariant: map[string]float64{},
			Members:    len(c.Members),
			PCPUs:      len(c.PCPUs),
		}
		sums := map[string]float64{}
		counts := map[string]int{}
		for _, m := range c.Members {
			if v, ok := norm[m.VM]; ok {
				sums[m.Variant()] += v
				counts[m.Variant()]++
			}
		}
		for k, s := range sums {
			cp.PerVariant[k] = s / float64(counts[k])
		}
		out.Clusters = append(out.Clusters, cp)
	}
	return out
}

// Table renders the per-cluster normalized performance.
func (r *Fig6RightResult) Table() *report.Table {
	t := &report.Table{
		Title:   "Fig. 6 (right): 4-socket machine, per-cluster normalized perf (base: Xen)",
		Headers: []string{"socket", "cluster", "quantum", "vCPUs/pCPUs", "variant", "normalized"},
	}
	for _, c := range r.Clusters {
		keys := make([]string, 0, len(c.PerVariant))
		for k := range c.PerVariant {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			t.AddRow(c.Socket, c.Cluster, c.Quantum.String(),
				fmt.Sprintf("%d/%d", c.Members, c.PCPUs), k, c.PerVariant[k])
		}
	}
	return t
}

// Fig7Result is the quantum-customization ablation.
type Fig7Result struct {
	// Norm maps fixed-quantum label -> variant -> mean normalized perf
	// over the full AQL run (>1 means the ablation is worse, i.e.
	// customization helped).
	Norm map[string]map[string]float64
}

// Fig7 replays the 4-socket experiment with the clustering step active
// but the quantum customization disabled — every pool runs a fixed
// small (1 ms), medium (30 ms) or large (90 ms) quantum — and
// normalizes over the full AQL_Sched run (the paper's Fig. 7).
func Fig7(cfg Config) *Fig7Result {
	cases := []struct {
		label string
		q     sim.Time
	}{
		{"small (1ms)", 1 * sim.Millisecond},
		{"medium (30ms)", 30 * sim.Millisecond},
		{"large (90ms)", 90 * sim.Millisecond},
	}
	pols := []sweep.Policy{catalog.AQLPolicy()}
	for _, cse := range cases {
		pols = append(pols, catalog.AQLNoCustomPolicy(cse.q))
	}
	sp := FourSocketSweep(cfg, "fig7", catalog.AQLPolicy().Name, pols)
	res := mustSweep(sp, sweep.Options{})
	full := res.RunFor("four-socket", catalog.AQLPolicy().Name, 0)
	variantOf := map[string]string{}
	for _, vm := range full.PerVM {
		variantOf[vm.Name] = vm.Expected.String()
	}

	out := &Fig7Result{Norm: map[string]map[string]float64{}}
	for i, cse := range cases {
		ablation := res.RunFor("four-socket", pols[i+1].Name, 0)
		norm := perVMNorm(ablation, full)
		sums := map[string]float64{}
		counts := map[string]int{}
		// Accumulate in deployment order: summing in map-iteration
		// order would make the means float-order nondeterministic.
		for _, vm := range ablation.PerVM {
			n, ok := norm[vm.Name]
			if !ok {
				continue
			}
			v := variantOf[vm.Name]
			sums[v] += n
			counts[v]++
		}
		m := map[string]float64{}
		for k, s := range sums {
			m[k] = s / float64(counts[k])
		}
		out.Norm[cse.label] = m
	}
	return out
}

// Table renders the ablation.
func (r *Fig7Result) Table() *report.Table {
	t := &report.Table{
		Title:   "Fig. 7: benefit of quantum customization (normalized over full AQL; >1 = ablation worse)",
		Headers: []string{"fixed quantum", "type", "normalized perf"},
	}
	labels := make([]string, 0, len(r.Norm))
	for l := range r.Norm {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	for _, l := range labels {
		types := make([]string, 0, len(r.Norm[l]))
		for ty := range r.Norm[l] {
			types = append(types, ty)
		}
		sort.Strings(types)
		for _, ty := range types {
			t.AddRow(l, ty, r.Norm[l][ty])
		}
	}
	t.AddNote("clustering stays active; only the per-pool quantum customization is disabled")
	return t
}
