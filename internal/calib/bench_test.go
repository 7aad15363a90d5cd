package calib

import (
	"testing"

	"aqlsched/internal/baselines"
	"aqlsched/internal/credit"
	"aqlsched/internal/sim"
	"aqlsched/internal/workload"
	"aqlsched/internal/xen"
)

// BenchmarkColoConSpin times Fig. 2's ConSpin colocation in steady
// state: MicroKernbench(4) beside its disturbers at 4 vCPUs per pCPU
// under a 30 ms quantum. A spin-lock worker finishing one action is most
// of its events, which makes it the simulator's hottest path. Each op
// simulates 100 ms after a 2 s warm-up. The benchmark reports the cost
// per simulated event and fails if steady state allocates.
func BenchmarkColoConSpin(b *testing.B) {
	var o Options
	o.fill()
	spec := Colo(workload.MicroKernbench(4), 4, o)
	h := xen.New(spec.Topo, credit.New(), spec.Seed, xen.WithGuestPCPUs(spec.GuestPCPUs))
	rng := sim.NewRNG(spec.Seed)
	var deps []*workload.Deployment
	for _, e := range spec.Apps {
		deps = append(deps, workload.Deploy(h, e.Spec, "", rng))
	}
	baselines.FixedQuantum{Q: 30 * sim.Millisecond}.Setup(h, deps)
	h.Run(2 * sim.Second)
	step := func() { h.Run(h.Engine.Now() + 100*sim.Millisecond) }

	b.ReportAllocs()
	b.ResetTimer()
	fired := h.Engine.Fired()
	for i := 0; i < b.N; i++ {
		step()
	}
	b.StopTimer()
	if n := h.Engine.Fired() - fired; n > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n), "ns/event")
	}
	if allocs := testing.AllocsPerRun(1, step); allocs != 0 {
		b.Errorf("%v allocations per 100 ms simulated, want 0", allocs)
	}
}
