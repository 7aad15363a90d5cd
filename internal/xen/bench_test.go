package xen

import (
	"testing"

	"aqlsched/internal/guest"
	"aqlsched/internal/sim"
)

// BenchmarkDispatchComputeBursts drives two compute-bound vCPUs
// time-sharing one pCPU: every iteration simulates one second, i.e.
// ~67 quantum expiries and a few hundred bursts through the full
// dispatch → cache-plan → burst-end path.
func BenchmarkDispatchComputeBursts(b *testing.B) {
	h, _ := newTestHyp(1)
	d1 := h.CreateDomain("a", 0, 0, 1)
	d2 := h.CreateDomain("b", 0, 0, 1)
	d1.OS.Spawn("a", 0, false, &burnProgram{prof: smallProf(), job: 3 * sim.Millisecond}, 0)
	d2.OS.Spawn("b", 0, false, &burnProgram{prof: smallProf(), job: 7 * sim.Millisecond}, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Run(h.Engine.Now() + 1*sim.Second)
	}
}

// BenchmarkDispatchKickChurn exercises the preemption path: spin-lock
// contention between two vCPUs causes continuous kick → settle →
// rollback → re-dispatch cycles (the allocation-heavy path before
// bursts were reused; each vCPU now keeps its own).
func BenchmarkDispatchKickChurn(b *testing.B) {
	h, _ := newTestHyp(2)
	d := h.CreateDomain("vm", 0, 0, 2)
	lock := guest.NewSpinLock("l")
	d.OS.Spawn("A", 0, false, &lockHog{lock: lock, hold: 200 * sim.Microsecond}, 0)
	d.OS.Spawn("B", 1, false, &lockHog{lock: lock, hold: 200 * sim.Microsecond}, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Run(h.Engine.Now() + 100*sim.Millisecond)
	}
}
