// Package xen models the hypervisor layer: domains, vCPUs, CPU pools,
// event channels, and the dispatch machinery that multiplexes vCPUs onto
// pCPUs under a pluggable scheduler.
//
// The model mirrors the Xen structure the paper builds on (Section 2.1):
// a scheduler answers Q1 (which vCPU gets a pCPU) through its run queues
// and Q2 (for how long) through the time-slice of the CPU pool the vCPU
// belongs to. Following the paper's implementation trick (Section 4.3),
// a single scheduler instance serves every pool — pools are just
// (pCPU-set, quantum) configurations — so moving a vCPU between pools
// never copies scheduler state and costs nothing beyond the cache
// effects the cache model already captures.
package xen

import (
	"aqlsched/internal/hw"
	"aqlsched/internal/sim"
)

// RateLimit is the minimum time a dispatched vCPU runs before a wake-up
// preemption (BOOST) may evict it, mirroring Xen's sched_ratelimit_us.
const RateLimit = 1 * sim.Millisecond

// DefaultSlice is the Xen Credit scheduler's default quantum (Q2).
const DefaultSlice = 30 * sim.Millisecond

// Scheduler is the pluggable policy deciding which vCPU runs where.
// A single instance serves all CPU pools of a hypervisor.
type Scheduler interface {
	// Attach wires the scheduler to its hypervisor. Called exactly once,
	// before any other method; the scheduler may register periodic
	// accounting events on h.Engine.
	Attach(h *Hypervisor)
	// AddVCPU registers a new vCPU (initially blocked).
	AddVCPU(v *VCPU, now sim.Time)
	// RemoveVCPU unregisters a vCPU whose domain is being destroyed:
	// the scheduler drops it from its queues and accounting. The
	// hypervisor has already taken it off any pCPU.
	RemoveVCPU(v *VCPU, now sim.Time)
	// Wake transitions a blocked vCPU to runnable: the scheduler
	// enqueues it and may start idle pCPUs or preempt running ones
	// (subject to RateLimit).
	Wake(v *VCPU, now sim.Time)
	// Requeue re-enqueues a still-runnable vCPU whose slice ended or
	// that was preempted; ranFor is how long it just ran.
	Requeue(v *VCPU, ranFor sim.Time, now sim.Time)
	// Block removes a vCPU that stopped being runnable.
	Block(v *VCPU, now sim.Time)
	// PickNext pops the next vCPU to run on p, or nil to idle. The
	// returned vCPU must belong to a pool containing p.
	PickNext(p hw.PCPUID, now sim.Time) *VCPU
	// SliceFor reports the time-slice to grant v on p (usually the
	// pool's quantum; policies like vSlicer differentiate per vCPU).
	SliceFor(v *VCPU, p hw.PCPUID) sim.Time
	// PoolChanged tells the scheduler v moved to a different pool so
	// queued state can be re-homed onto the new pool's pCPUs.
	PoolChanged(v *VCPU, now sim.Time)
}
