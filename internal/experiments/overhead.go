package experiments

import (
	"sort"

	"aqlsched/internal/baselines"
	"aqlsched/internal/report"
	"aqlsched/internal/scenario"
	"aqlsched/internal/sim"
)

// Per-operation cost model for the controller path (Section 4.3): the
// monitors piggyback on existing event-channel handling and PMU
// registers, so the only real costs are reading counters and the
// O(max(m, n)) recognition + clustering pass.
const (
	costPerVCPUSample = 2 * sim.Microsecond // counter read + cursor math
	costPerEntity     = 1 * sim.Microsecond // clustering per vCPU/pCPU
)

// OverheadResult quantifies the AQL_Sched control-path overhead.
type OverheadResult struct {
	// PerfDelta maps app -> normalized perf of the monitor-only run
	// over plain Xen (1.0 = indistinguishable).
	PerfDelta map[string]float64
	// Periods and Reclusters are the control-path invocation counts.
	Periods    int
	Reclusters uint64
	// ModelledOverhead is the controller CPU time fraction per the cost
	// model (the paper reports < 1%).
	ModelledOverhead float64
}

// Overhead runs scenario S3 under plain Xen and under monitoring-only
// AQL, comparing application performance, and models the controller's
// CPU cost analytically.
func Overhead(cfg Config) *OverheadResult {
	warm, meas := cfg.windows()
	spec := scenario.ScenarioByName("S3", cfg.seed())
	spec.Warmup = warm
	spec.Measure = meas

	base := scenario.Run(spec, baselines.XenDefault{})
	pol := &baselines.AQL{MonitorOnly: true}
	mon := scenario.Run(spec, pol)

	ctl := pol.AQLController()
	out := &OverheadResult{
		PerfDelta:  scenario.Normalize(mon, base),
		Periods:    ctl.Monitor.Periods(),
		Reclusters: ctl.Reclusters,
	}
	nv := len(mon.Hyp.AllVCPUs())
	np := len(mon.Hyp.GuestPCPUs())
	ctlCost := sim.Time(out.Periods) * (sim.Time(nv)*costPerVCPUSample + sim.Time(nv+np)*costPerEntity)
	total := (warm + meas) * sim.Time(np)
	out.ModelledOverhead = float64(ctlCost) / float64(total)
	return out
}

// Table renders the overhead measurements.
func (r *OverheadResult) Table() *report.Table {
	t := &report.Table{
		Title:   "Section 4.3: AQL_Sched overhead",
		Headers: []string{"metric", "value"},
	}
	apps := make([]string, 0, len(r.PerfDelta))
	for app := range r.PerfDelta {
		apps = append(apps, app)
	}
	sort.Strings(apps)
	for _, app := range apps {
		t.AddRow("perf delta "+app, r.PerfDelta[app])
	}
	t.AddRow("monitoring periods", r.Periods)
	t.AddRow("reconfigurations", int(r.Reclusters))
	t.AddRow("modelled controller CPU share", r.ModelledOverhead)
	t.AddNote("paper: no degradation above 1%% observed")
	return t
}

// MaxPerfDelta reports the largest |1 - delta| across apps.
func (r *OverheadResult) MaxPerfDelta() float64 {
	max := 0.0
	for _, d := range r.PerfDelta {
		dev := d - 1
		if dev < 0 {
			dev = -dev
		}
		if dev > max {
			max = dev
		}
	}
	return max
}
