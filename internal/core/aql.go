// Package core implements AQL_Sched, the paper's contribution: an
// Adaptable Quantum Length scheduler (Section 3).
//
// The controller wires the three features together:
//
//  1. the online vCPU Type Recognition System (internal/vtrs) samples
//     every vCPU each monitoring period (30 ms) and types it after a
//     4-period window;
//  2. the offline calibration result (internal/calib, summarized as a
//     cluster.QuantumTable) maps each type to its best quantum —
//     IOInt/ConSpin 1 ms, LLCF 90 ms, LoLCF/LLCO agnostic;
//  3. the two-level clustering (internal/cluster) turns the typed vCPU
//     population into CPU pools per socket, each configured with its
//     cluster's quantum, while preserving fairness and separating
//     trashing from non-trashing vCPUs.
//
// Every vTRS window the controller rebuilds the cluster plan; if the
// assignment changed it is applied through the hypervisor's pool
// reconfiguration, which — thanks to the shared-runqueue trick the
// paper describes in Section 4.3 — costs nothing beyond the cache
// effects the cache model already charges.
package core

import (
	"aqlsched/internal/cluster"
	"aqlsched/internal/sim"
	"aqlsched/internal/vtrs"
	"aqlsched/internal/xen"
)

// Controller is the AQL_Sched control loop.
type Controller struct {
	H       *xen.Hypervisor
	Monitor *vtrs.Monitor

	// Reclusters counts applied reconfigurations (diagnostics).
	Reclusters uint64
	// LastPlan is the most recently applied cluster layout.
	LastPlan *cluster.Plan

	table   cluster.QuantumTable
	every   int      // decision cadence in monitoring periods; 0 never decides
	grace   int      // periods before the first decision
	fixedQ  sim.Time // when positive, the quantum of every pool
	lastSig string
}

// New builds an AQL controller over h with the paper's calibrated
// quantum table and starts it. n is the vTRS window (n <= 0 keeps the
// paper's 4); the controller reclusters every n monitoring periods,
// after a grace period of 2n so every vCPU accumulates a full window of
// warm history under the default quantum before the first clustering
// locks placements in. A positive fixedQ keeps the clustering but forces
// that quantum on every pool — the Fig. 7 ablation that isolates the
// benefit of quantum customization from the benefit of clustering.
// monitorOnly samples without ever reclustering, whatever n is — the
// Section 4.3 overhead measurement.
func New(h *xen.Hypervisor, n int, fixedQ sim.Time, monitorOnly bool) *Controller {
	if n <= 0 {
		n = vtrs.DefaultWindow
	}
	c := &Controller{
		H:       h,
		Monitor: vtrs.NewMonitor(h, n),
		table:   cluster.PaperTable(),
		every:   n,
		grace:   2 * n,
		fixedQ:  fixedQ,
	}
	if monitorOnly {
		c.every = 0
	}
	c.Monitor.OnPeriod = c.onPeriod
	c.Monitor.Start()
	return c
}

// Infos snapshots the recognized type and trashing cursor of every
// vCPU — the clustering input.
func (c *Controller) Infos() []cluster.VCPUInfo {
	var infos []cluster.VCPUInfo
	for _, d := range c.H.Domains {
		for _, v := range d.VCPUs {
			infos = append(infos, cluster.VCPUInfo{
				V:       v,
				VM:      d.Name,
				Type:    c.Monitor.TypeOf(v),
				LLCOAvg: c.Monitor.TrashingCursor(v),
			})
		}
	}
	return infos
}

// Release drops the controller's references into the simulation it
// drove (the hypervisor, the vTRS monitor, LastPlan's vCPU pointers),
// so a finished run's controller does not keep that simulation alive.
// Reclusters and LastPlan's layout stay readable; the controller cannot
// run again.
func (c *Controller) Release() {
	c.H, c.Monitor = nil, nil
	if c.LastPlan != nil {
		for _, cl := range c.LastPlan.Clusters {
			for i := range cl.Members {
				cl.Members[i].V = nil
			}
		}
	}
}

// onPeriod runs after each monitoring period; every c.every periods
// it recomputes and (if changed) applies the cluster plan.
func (c *Controller) onPeriod(now sim.Time, period int) {
	if c.every == 0 || period%c.every != 0 || period < c.grace {
		return
	}
	plan := cluster.Build(c.H, c.Infos(), c.table)
	if c.fixedQ > 0 {
		for _, cl := range plan.Clusters {
			cl.Quantum = c.fixedQ
		}
	}
	sig := plan.Signature()
	if sig == c.lastSig {
		return
	}
	if err := c.H.ApplyPlan(plan.ToPoolPlan(), now); err != nil {
		// A plan that fails validation is a programming error: the
		// clustering must always produce a full partition.
		panic("core: " + err.Error())
	}
	c.lastSig = sig
	c.LastPlan = plan
	c.Reclusters++
}
