// Typedetect watches the online vCPU Type Recognition System (vTRS)
// classify a mixed population in real time: every few monitoring
// periods it prints each vCPU's cursor averages and decided type — a
// live rendition of the paper's Fig. 4.
package main

import (
	"fmt"

	"aqlsched/internal/baselines"
	"aqlsched/internal/hw"
	"aqlsched/internal/scenario"
	"aqlsched/internal/sim"
	"aqlsched/internal/workload"
	"aqlsched/internal/xen"
)

// watcher is the AQL monitor-only policy printing the vTRS decisions
// every 10 monitoring periods.
type watcher struct{ *baselines.AQL }

func (w watcher) Setup(h *xen.Hypervisor, deps []*workload.Deployment) {
	w.AQL.Setup(h, deps)
	ctl := w.AQLController()
	ctl.Monitor.OnPeriod = func(now sim.Time, period int) {
		if period%10 != 0 {
			return
		}
		fmt.Printf("t=%v (monitoring period %d):\n", now, period)
		for _, d := range deps {
			v := d.Dom.VCPUs[0]
			avg := ctl.Monitor.AveragesOf(v)
			fmt.Printf("  %-14s -> %-8v (IO=%3.0f Spin=%3.0f LoLCF=%3.0f LLCF=%3.0f LLCO=%3.0f)\n",
				d.Dom.Name, ctl.Monitor.TypeOf(v),
				avg.IOInt, avg.ConSpin, avg.LoLCF, avg.LLCF, avg.LLCO)
		}
	}
}

func main() {
	spec := scenario.Spec{
		Name:       "typedetect",
		GuestPCPUs: []hw.PCPUID{0, 1},
		Apps: []scenario.Entry{
			{Spec: workload.SPECWeb2009()},
			{Spec: workload.ByName("astar")},
			{Spec: workload.ByName("libquantum")},
			{Spec: workload.ByName("gobmk")},
			{Spec: workload.ByName("facesim")},
		},
		Warmup:  600 * sim.Millisecond,
		Measure: 1 * sim.Second,
		Seed:    0xA91,
	}
	scenario.Run(spec, watcher{&baselines.AQL{MonitorOnly: true}})
}
