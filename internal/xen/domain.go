package xen

import (
	"fmt"

	"aqlsched/internal/guest"
	"aqlsched/internal/hw"
	"aqlsched/internal/sim"
)

// DomainID identifies a domain (VM).
type DomainID int

// VCPUState is the hypervisor-side scheduling state of a vCPU.
type VCPUState int

const (
	// Blocked: the guest has nothing runnable on this vCPU.
	Blocked VCPUState = iota
	// Runnable: waiting in a run queue.
	Runnable
	// Running: currently on a pCPU.
	Running
)

func (s VCPUState) String() string {
	switch s {
	case Blocked:
		return "blocked"
	case Runnable:
		return "runnable"
	case Running:
		return "running"
	}
	return "?"
}

// VCPU is one virtual CPU as the hypervisor sees it.
type VCPU struct {
	Domain *Domain
	// Index is the vCPU's index within its domain.
	Index int
	// Global is a hypervisor-wide unique ID (stable ordering key).
	Global int

	// Counters is the free-running PMU/event block the vTRS monitors
	// sample (Section 3.3.2).
	Counters hw.Counters

	// SliceOverride, when positive, bounds this vCPU's slice below the
	// pool quantum (used by the vSlicer baseline).
	SliceOverride sim.Time

	// SD is scheduler-private data.
	SD any

	state    VCPUState
	pool     *CPUPool
	pcpu     hw.PCPUID // valid while Running
	lastPCPU hw.PCPUID // last pCPU it ran on (runqueue affinity)

	// endBurst is the vCPU's pre-bound burst-completion timer: one
	// callback bound at creation, re-armed per burst, so the dispatch
	// hot path schedules without allocating.
	endBurst *sim.Timer

	dispatchedAt  sim.Time
	sliceEnd      sim.Time
	runnableSince sim.Time
	// burst points at slot while a burst is in flight. The slot keeps
	// its last burst's pointers until the next one: clearing them would
	// cost write-barrier stores on every burst end.
	burst     *burst
	slot      burst
	everRan   bool
	destroyed bool

	// RunTime accumulates total time spent Running (fairness checks).
	RunTime sim.Time
}

// State reports the vCPU's scheduling state.
func (v *VCPU) State() VCPUState { return v.state }

// Destroyed reports whether the vCPU's domain has been torn down.
func (v *VCPU) Destroyed() bool { return v.destroyed }

// Pool reports the CPU pool the vCPU belongs to.
func (v *VCPU) Pool() *CPUPool { return v.pool }

// PCPU reports where the vCPU is running (only meaningful when Running).
func (v *VCPU) PCPU() hw.PCPUID { return v.pcpu }

// LastPCPU reports where the vCPU last ran.
func (v *VCPU) LastPCPU() hw.PCPUID { return v.lastPCPU }

// RanFor reports how long the vCPU has been running in its current
// dispatch (zero when not running).
func (v *VCPU) RanFor(now sim.Time) sim.Time {
	if v.state != Running {
		return 0
	}
	return now - v.dispatchedAt
}

// String labels the vCPU for diagnostics.
func (v *VCPU) String() string {
	return fmt.Sprintf("%s.v%d", v.Domain.Name, v.Index)
}

// Domain is a VM: guest OS plus hypervisor-side accounting.
type Domain struct {
	ID   DomainID
	Name string
	// Weight is the Credit scheduler's proportional-share weight.
	Weight int
	// Cap limits the domain's CPU consumption in percent of one pCPU
	// (0 = uncapped), as in Xen's credit scheduler.
	Cap int

	OS    *guest.OS
	VCPUs []*VCPU

	hyp  *Hypervisor
	dead bool
}

// Dead reports whether the domain has been destroyed.
func (d *Domain) Dead() bool { return d.dead }

// WakeVCPU implements guest.Waker: a thread became runnable on cpu.
func (d *Domain) WakeVCPU(cpu int, now sim.Time) {
	d.hyp.wake(d.VCPUs[cpu], now)
}

// KickVCPU implements guest.Waker: the vCPU's current burst is stale
// (IRQ arrived, or a spinning thread was granted its lock).
func (d *Domain) KickVCPU(cpu int, now sim.Time) {
	d.hyp.kick(d.VCPUs[cpu], now)
}

// CountLockOp implements guest.Waker: the ConSpin monitor's hypercall
// wrapper records one spin-lock acquisition for the cpu-th vCPU.
func (d *Domain) CountLockOp(cpu int) {
	d.VCPUs[cpu].Counters.LockOps++
}
