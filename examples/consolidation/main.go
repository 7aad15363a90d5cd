// Consolidation runs the paper's S5 colocation scenario (Table 4:
// SPECweb2009, facesim, bzip2, hmmer, libquantum — 16 vCPUs on 4 pCPUs)
// under the default Xen credit scheduler and under AQL_Sched, printing
// the per-application comparison and the clusters AQL formed.
package main

import (
	"fmt"
	"sort"

	"aqlsched/internal/baselines"
	"aqlsched/internal/scenario"
	"aqlsched/internal/sim"
)

func main() {
	spec := scenario.ScenarioByName("S5", 0xA91)
	spec.Warmup = 2 * sim.Second
	spec.Measure = 6 * sim.Second

	base := scenario.Run(spec, baselines.XenDefault{})
	pol := &baselines.AQL{}
	aql := scenario.Run(spec, pol)
	norm := scenario.Normalize(aql, base)

	fmt.Println("scenario S5: AQL_Sched vs default Xen (normalized, lower is better):")
	names := make([]string, 0, len(norm))
	for n := range norm {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		a := aql.App(n)
		fmt.Printf("  %-14s %-8s normalized %.3f\n", n, a.Expected, norm[n])
	}

	fmt.Println("clusters AQL_Sched settled on:")
	for _, c := range pol.AQLController().LastPlan.Clusters {
		fmt.Printf("  %-14s quantum %-10v pCPUs %d vCPUs %d\n",
			c.Name, c.Quantum, len(c.PCPUs), len(c.Members))
	}
}
