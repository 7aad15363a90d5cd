package experiments

import (
	"fmt"

	"aqlsched/internal/baselines"
	"aqlsched/internal/hw"
	"aqlsched/internal/report"
	"aqlsched/internal/scenario"
	"aqlsched/internal/sim"
	"aqlsched/internal/vcputype"
	"aqlsched/internal/vtrs"
	"aqlsched/internal/workload"
	"aqlsched/internal/xen"
)

// Fig4Apps are the five representative applications of Fig. 4, one per
// type: SPECweb2009 (IOInt), astar (LLCF), libquantum (LLCO), gobmk
// (LoLCF), fluidanimate (ConSpin).
func Fig4Apps() []workload.AppSpec {
	return []workload.AppSpec{
		workload.SPECWeb2009(),
		workload.ByName("astar"),
		workload.ByName("libquantum"),
		workload.ByName("gobmk"),
		workload.ByName("fluidanimate"),
	}
}

// Fig4Trace is the cursor trace of one application's vCPU.
type Fig4Trace struct {
	App      string
	Expected vcputype.Type
	Samples  []vtrs.Sample
	Final    vcputype.Type
}

// Fig4Result is the online-vTRS experiment outcome.
type Fig4Result struct {
	Traces  []Fig4Trace
	Periods int
}

// Fig4 colocates the five representative applications at 4 vCPUs per
// pCPU and records 50+ monitoring periods of cursor averages for one
// vCPU of each (the paper's Fig. 4), plus the decided type.
func Fig4(cfg Config) *Fig4Result {
	// 5 apps: 4 single-vCPU + fluidanimate with 4 vCPUs = 8 vCPUs on
	// 2 pCPUs (4 per pCPU, the paper's standard ratio).
	warm, _ := cfg.windows()
	periods := 50
	spec := scenario.Spec{
		Name:       "fig4",
		GuestPCPUs: []hw.PCPUID{0, 1},
		Warmup:     warm,
		Measure:    sim.Time(periods+5) * vtrs.DefaultPeriod,
		Seed:       cfg.seed(),
	}
	for _, app := range Fig4Apps() {
		spec.Apps = append(spec.Apps, scenario.Entry{Spec: app, Count: 1})
	}

	// Traces must be enabled before the run starts: the policy's Setup
	// enables them.
	pol := tracingPolicy{&baselines.AQL{MonitorOnly: true}}
	res := scenario.Run(spec, pol)

	ctl := pol.AQLController()
	out := &Fig4Result{Periods: ctl.Monitor.Periods()}
	for _, d := range res.Deps {
		v := d.Dom.VCPUs[0]
		out.Traces = append(out.Traces, Fig4Trace{
			App:      d.Spec.Name,
			Expected: d.Spec.Expected,
			Samples:  ctl.Monitor.Samples(v),
			Final:    ctl.Monitor.TypeOf(v),
		})
	}
	return out
}

// tracingPolicy is the AQL monitor-only policy that enables tracing on
// every deployment's first vCPU right after setup.
type tracingPolicy struct{ *baselines.AQL }

func (p tracingPolicy) Setup(h *xen.Hypervisor, deps []*workload.Deployment) {
	p.AQL.Setup(h, deps)
	for _, d := range deps {
		p.AQLController().Monitor.Trace(d.Dom.VCPUs[0])
	}
}

// Table renders the trace as the paper's per-period dominant cursors.
func (r *Fig4Result) Table() *report.Table {
	t := &report.Table{
		Title:   "Fig. 4: online vTRS — cursor averages every 10th monitoring period",
		Headers: []string{"app", "expected", "final", "periods: type(avg) ..."},
	}
	for _, tr := range r.Traces {
		line := ""
		for i, s := range tr.Samples {
			if i%10 != 9 {
				continue
			}
			line += fmt.Sprintf("p%d:%s(%.0f) ", s.Period, s.Type, s.Avg.Get(s.Type))
		}
		t.AddRow(tr.App, tr.Expected.String(), tr.Final.String(), line)
	}
	return t
}

// DominanceRatio reports, for one trace, the fraction of samples (after
// the warm-in skip) in which the expected type's cursor average is the
// highest — the "curve higher than the others most of the time"
// criterion of Fig. 4.
func (tr Fig4Trace) DominanceRatio(skip int) float64 {
	n, dom := 0, 0
	for i, s := range tr.Samples {
		if i < skip {
			continue
		}
		n++
		if s.Type == tr.Expected {
			dom++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(dom) / float64(n)
}
