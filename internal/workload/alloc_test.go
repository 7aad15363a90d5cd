package workload

import (
	"testing"

	"aqlsched/internal/credit"
	"aqlsched/internal/hw"
	"aqlsched/internal/sim"
	"aqlsched/internal/vcputype"
	"aqlsched/internal/xen"
)

// TestSteadyStateAllocFree pins the dispatch path at zero allocations:
// once an app has run beside mcf for a while, simulating more time
// allocates nothing. A profile literal returned from a Next method
// escapes to the heap on every action, which this test catches.
func TestSteadyStateAllocFree(t *testing.T) {
	topo := hw.I73770()
	specs := append(Suite(),
		MicroKernbench(4),
		MicroWeb(false),
		MicroListWalk(topo, vcputype.LLCF),
		MicroListWalk(topo, vcputype.LLCO),
		AppSpec{Name: "phased", Phases: []AppPhase{
			computePhase(300*sim.Millisecond, vcputype.LLCF, 4*hw.MB),
			ioPhase(300*sim.Millisecond, 400),
		}},
	)
	for _, spec := range specs {
		t.Run(spec.Name, func(t *testing.T) {
			h := xen.New(topo, credit.New(), 1, xen.WithGuestPCPUs([]hw.PCPUID{0, 1}))
			rng := sim.NewRNG(1)
			Deploy(h, spec, "", rng)
			Deploy(h, ByName("mcf"), "", rng)
			h.Run(2 * sim.Second)
			allocs := testing.AllocsPerRun(5, func() {
				h.Run(h.Engine.Now() + 100*sim.Millisecond)
			})
			if allocs != 0 {
				t.Errorf("%v allocations per 100 ms simulated, want 0", allocs)
			}
		})
	}
}
