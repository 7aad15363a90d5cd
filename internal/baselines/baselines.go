// Package baselines implements the schedulers the paper compares
// against in Section 4.2 (Fig. 8 and Table 6):
//
//   - vTurbo [14]: a dedicated "turbo" pCPU pool with a small quantum,
//     to which IO-intensive vCPUs are manually assigned;
//   - vSlicer [15]: IO-intensive vCPUs get differentiated, smaller time
//     slices on the shared pools (no dedicated cores);
//   - Microsliced [6]: a small quantum for every vCPU.
//
// None of them recognizes types online (Table 6: "dynamic application
// type recognition: not supported"), so — exactly as the authors did —
// the experiments configure them manually from the known workload types
// for their best performance.
package baselines

import (
	"fmt"

	"aqlsched/internal/core"
	"aqlsched/internal/sim"
	"aqlsched/internal/vcputype"
	"aqlsched/internal/workload"
	"aqlsched/internal/xen"
)

// XenDefault is the unmodified Xen credit scheduler: one pool, 30 ms
// quantum, BOOST enabled. It is the normalization baseline of every
// figure.
type XenDefault struct{}

// Name implements the scenario policy interface.
func (XenDefault) Name() string { return "xen-credit" }

// Setup implements the scenario policy interface (nothing to do: the
// hypervisor starts in exactly this configuration).
func (XenDefault) Setup(h *xen.Hypervisor, deps []*workload.Deployment) {}

// FixedQuantum runs every vCPU in a single pool with quantum Q.
type FixedQuantum struct {
	Q sim.Time
	N string
}

// Name implements the scenario policy interface.
func (f FixedQuantum) Name() string {
	if f.N != "" {
		return f.N
	}
	return "fixed-" + f.Q.String()
}

// Setup implements the scenario policy interface.
func (f FixedQuantum) Setup(h *xen.Hypervisor, deps []*workload.Deployment) {
	applyPools(h, deps, xen.NewCPUPool("all", f.Q, h.GuestPCPUs()))
}

// Microsliced is [6]: shorten the quantum for everyone. The paper
// configured it at 1 ms for the comparison. (Its companion hardware
// change for reducing LLC contention is not modelled — that is exactly
// the LLCF penalty Fig. 8 shows.)
func Microsliced() FixedQuantum {
	return FixedQuantum{Q: 1 * sim.Millisecond, N: "microsliced"}
}

// VTurbo is [14]: dedicate one core as a turbo pool with a 1 ms
// quantum (the paper's comparison configuration) and pin the (manually
// identified) IO-intensive vCPUs to it; everything else shares the
// remaining cores at the default quantum.
type VTurbo struct{}

// Name implements the scenario policy interface.
func (VTurbo) Name() string { return "vturbo" }

// Setup implements the scenario policy interface.
func (VTurbo) Setup(h *xen.Hypervisor, deps []*workload.Deployment) {
	guest := h.GuestPCPUs()
	if len(guest) < 2 {
		panic("baselines: vTurbo would take every pCPU")
	}
	applyPools(h, deps,
		xen.NewCPUPool("turbo", 1*sim.Millisecond, guest[:1]),
		xen.NewCPUPool("normal", xen.DefaultSlice, guest[1:]))
}

// VSlicer is [15]: latency-sensitive vCPUs are sliced at a smaller
// quantum (differentiated-frequency CPU slicing) but share the same
// pools as everyone else. The micro-slice is 5 ms, the vSlicer paper's
// micro time-slice and the paper's comparison configuration.
type VSlicer struct{}

// Name implements the scenario policy interface.
func (VSlicer) Name() string { return "vslicer" }

// Setup implements the scenario policy interface.
func (VSlicer) Setup(h *xen.Hypervisor, deps []*workload.Deployment) {
	io := ioVCPUs(deps)
	for _, vc := range h.AllVCPUs() {
		if io[vc] {
			vc.SliceOverride = 5 * sim.Millisecond
		}
	}
}

// AQL attaches the AQL_Sched controller (the paper's system). Its three
// settings are the only ways the paper varies AQL_Sched; the instance
// keeps the controller its last Setup built.
type AQL struct {
	// Window is the vTRS sliding-window length n (and, with it, the
	// recluster cadence and grace period) — the reactivity-vs-churn
	// knob of Section 3.3. Zero keeps the paper's n = 4.
	Window int
	// FixedQuantum, when positive, gives the Fig. 7 ablation:
	// clustering only, this quantum on every pool.
	FixedQuantum sim.Time
	// MonitorOnly runs vTRS sampling without ever reconfiguring pools —
	// the Section 4.3 overhead measurement.
	MonitorOnly bool

	ctl *core.Controller
}

// Name implements the scenario policy interface.
func (a AQL) Name() string {
	switch {
	case a.MonitorOnly:
		return "aql-monitor-only"
	case a.FixedQuantum > 0:
		return "aql-nocustom-" + a.FixedQuantum.String()
	case a.Window > 0:
		return fmt.Sprintf("aql-w%d", a.Window)
	}
	return "aql"
}

// Setup implements the scenario policy interface.
func (a *AQL) Setup(h *xen.Hypervisor, deps []*workload.Deployment) {
	a.ctl = core.New(h, a.Window, a.FixedQuantum, a.MonitorOnly)
}

// AQLController implements scenario.ControllerProvider: it exposes the
// controller the last Setup built, so the adaptation tracker can read
// recognized types. Nil until Setup runs.
func (a *AQL) AQLController() *core.Controller { return a.ctl }

// applyPools puts every vCPU of h into pools and applies the plan: with
// one pool, all of them; with two, the IO-intensive vCPUs into the first
// and the rest into the second.
func applyPools(h *xen.Hypervisor, deps []*workload.Deployment, pools ...*xen.CPUPool) {
	io := ioVCPUs(deps)
	plan := &xen.PoolPlan{Pools: pools, Assign: map[*xen.VCPU]*xen.CPUPool{}}
	for _, v := range h.AllVCPUs() {
		p := pools[len(pools)-1]
		if io[v] {
			p = pools[0]
		}
		plan.Assign[v] = p
	}
	if err := h.ApplyPlan(plan, h.Engine.Now()); err != nil {
		panic("baselines: " + err.Error())
	}
}

// ioVCPUs marks the vCPUs of IO-intensive deployments (manual
// configuration, as the paper did for the baselines).
func ioVCPUs(deps []*workload.Deployment) map[*xen.VCPU]bool {
	out := make(map[*xen.VCPU]bool)
	for _, d := range deps {
		if d.Spec.Expected == vcputype.IOInt {
			for _, v := range d.Dom.VCPUs {
				out[v] = true
			}
		}
	}
	return out
}
