package baselines

import (
	"aqlsched/internal/core"
	"aqlsched/internal/hw"
	"aqlsched/internal/metrics"
	"aqlsched/internal/scenario"
	"aqlsched/internal/sim"
	"aqlsched/internal/workload"
	"aqlsched/internal/xen"
)

// HeteroAQL is the heterogeneous-topology consumer of the AQL
// machinery: on machines whose core classes differ it pins the
// (manually identified, as for vTurbo) latency-sensitive vCPUs to a
// pool over the fastest core class at a small quantum, and everything
// else to the remaining cores at the default quantum. On homogeneous
// machines — or when the fast class would leave no cores for the rest —
// it degrades to the plain AQL controller, so one spelling works across
// a mixed topology axis.
type HeteroAQL struct {
	// FastQ is the fast-class pool's quantum (default 1 ms).
	FastQ sim.Time

	ctl *core.Controller // the homogeneous fallback's controller
}

// Name implements the scenario policy interface.
func (p HeteroAQL) Name() string {
	if q := p.fastQ(); q != sim.Millisecond {
		return "hetero-aql-" + q.String()
	}
	return "hetero-aql"
}

func (p HeteroAQL) fastQ() sim.Time {
	if p.FastQ <= 0 {
		return sim.Millisecond
	}
	return p.FastQ
}

// FastPCPUs lists the guest pCPUs of h's fastest core class, or nil
// when the topology gives hetero placement nothing to work with (no
// classes, or no slower cores left over). Exposed for placement tests.
func (p HeteroAQL) FastPCPUs(h *xen.Hypervisor) []hw.PCPUID {
	topo := h.Topo
	if !topo.Heterogeneous() {
		return nil
	}
	fastest := topo.FastestClass()
	var fast, rest []hw.PCPUID
	for _, pc := range h.GuestPCPUs() {
		if topo.ClassOf(pc) == fastest {
			fast = append(fast, pc)
		} else {
			rest = append(rest, pc)
		}
	}
	if len(fast) == 0 || len(rest) == 0 {
		return nil
	}
	return fast
}

// Setup implements the scenario policy interface.
func (p *HeteroAQL) Setup(h *xen.Hypervisor, deps []*workload.Deployment) {
	fast := p.FastPCPUs(h)
	if fast == nil {
		p.ctl = core.New(h, 0, 0, false)
		return
	}
	topo, fastest := h.Topo, h.Topo.FastestClass()
	var rest []hw.PCPUID
	for _, pc := range h.GuestPCPUs() {
		if topo.ClassOf(pc) != fastest {
			rest = append(rest, pc)
		}
	}
	applyPools(h, deps,
		xen.NewCPUPool("fast", p.fastQ(), fast),
		xen.NewCPUPool("slow", xen.DefaultSlice, rest))
}

// AQLController implements scenario.ControllerProvider for the
// homogeneous fallback (nil on heterogeneous machines, where
// assignment is static).
func (p *HeteroAQL) AQLController() *core.Controller { return p.ctl }

// EDF is the deadline-aware quantum policy from the real-time
// scheduling axis: every vCPU shares one pool whose quantum derives
// from the deadline (half of it, clamped to the Xen default slice), so
// with k runnable vCPUs per core the worst-case scheduling delay stays
// near (k-1)·deadline/2. Every dispatch's delay-since-runnable is
// checked against the deadline and reported as deadline_miss_ratio.
type EDF struct {
	// Deadline is the per-dispatch scheduling-delay bound.
	Deadline sim.Time

	misses, dispatches uint64 // the last run's deadline accounting
}

// Name implements the scenario policy interface.
func (e EDF) Name() string { return "edf-" + e.Deadline.String() }

// Quantum reports the deadline-derived pool quantum.
func (e EDF) Quantum() sim.Time {
	q := e.Deadline / 2
	if q < 1 {
		q = 1
	}
	if q > xen.DefaultSlice {
		q = xen.DefaultSlice
	}
	return q
}

// Setup implements the scenario policy interface.
func (e *EDF) Setup(h *xen.Hypervisor, deps []*workload.Deployment) {
	applyPools(h, deps, xen.NewCPUPool("edf", e.Quantum(), h.GuestPCPUs()))
	e.misses, e.dispatches = 0, 0
	h.OnDispatch = func(_ *xen.VCPU, wait, _ sim.Time) {
		e.dispatches++
		if wait > e.Deadline {
			e.misses++
		}
	}
}

// ReportRunMetrics implements scenario.RunMetricsReporter. It
// accumulates with any counts already in the set: a fleet run invokes
// it once per host against the fleet's shared metric set.
func (e *EDF) ReportRunMetrics(set *metrics.Set) {
	misses := float64(e.misses)
	disp := float64(e.dispatches)
	if prev, ok := set.Get(scenario.MDeadlineMisses.Name); ok {
		misses += prev
	}
	if prev, ok := set.Get(scenario.MDeadlineDispatches.Name); ok {
		disp += prev
	}
	set.Put(scenario.MDeadlineMisses, misses)
	set.Put(scenario.MDeadlineDispatches, disp)
	if disp > 0 {
		set.Put(scenario.MDeadlineMissRatio, misses/disp)
	}
}
