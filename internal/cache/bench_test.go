package cache

import (
	"testing"

	"aqlsched/internal/hw"
	"aqlsched/internal/sim"
)

// BenchmarkCacheRunWholeBurst measures the common case: the requested
// work fits the wall budget, so Run takes the closed-form path (one
// exp, shared across budget check, miss count and footprint update).
func BenchmarkCacheRunWholeBurst(b *testing.B) {
	m := NewModel(hw.I73770())
	prof := Profile{WSS: 4 * hw.MB, RefRate: 10, MissFloor: 0.01}
	var fp Footprint
	var res BurstResult
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Run(&fp, 0, &prof, 5*sim.Millisecond, 30*sim.Millisecond, &res)
	}
}

// BenchmarkCacheRunBudgetLimited measures the budget-limited case: the
// work does not fit, so Run solves wall(w) = budget (formerly a
// 48-evaluation bisection, now a guarded Newton iteration plus an
// exp-free lattice replay).
func BenchmarkCacheRunBudgetLimited(b *testing.B) {
	m := NewModel(hw.I73770())
	prof := Profile{WSS: 6 * hw.MB, RefRate: 40, MissFloor: 0.01}
	var fp Footprint
	var res BurstResult
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fp.Invalidate() // cold every time: maximal transient, worst case
		m.Run(&fp, 0, &prof, 100*sim.Millisecond, 1*sim.Millisecond, &res)
	}
}

// BenchmarkCacheRunAlternating flips two footprints on one core, paying
// the private-refill path and inter-dispatch decay on every call — the
// dispatch-time pattern of two vCPUs time-sharing a pCPU.
func BenchmarkCacheRunAlternating(b *testing.B) {
	m := NewModel(hw.I73770())
	prof := Profile{WSS: 4 * hw.MB, RefRate: 10, MissFloor: 0.01}
	var fpA, fpB Footprint
	var res BurstResult
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fp := &fpA
		if i&1 == 1 {
			fp = &fpB
		}
		m.Run(fp, 0, &prof, 5*sim.Millisecond, 30*sim.Millisecond, &res)
	}
}
