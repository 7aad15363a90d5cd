package baselines_test

import (
	"testing"

	"aqlsched/internal/baselines"
	"aqlsched/internal/credit"
	"aqlsched/internal/hw"
	"aqlsched/internal/scenario"
	"aqlsched/internal/sim"
	"aqlsched/internal/vcputype"
	"aqlsched/internal/workload"
	"aqlsched/internal/xen"
)

// bigLittleTopo is the i7-3770 with its 8 cores split into a fast and
// a slow class — the smallest heterogeneous machine.
func bigLittleTopo() *hw.Topology {
	top := *hw.I73770()
	top.Classes = []hw.CoreClass{
		{Name: "big", Count: 4, Speed: 1},
		{Name: "little", Count: 4, Speed: 0.6},
	}
	return &top
}

// suiteApp finds a reference app of the wanted expected vCPU type.
func suiteApp(t *testing.T, want vcputype.Type) workload.AppSpec {
	t.Helper()
	for _, s := range workload.Suite() {
		if s.Expected == want {
			return s
		}
	}
	t.Fatalf("no suite app with expected type %v", want)
	return workload.AppSpec{}
}

// TestHeteroAQLPlacesIOOnFastCores: on a classed machine the policy
// must pool the latency-sensitive (IOInt-expected) vCPUs onto the
// fastest core class at the small quantum, and everything else onto
// the remaining cores at the Xen default.
func TestHeteroAQLPlacesIOOnFastCores(t *testing.T) {
	topo := bigLittleTopo()
	h := xen.New(topo, credit.New(), 1)
	rng := sim.NewRNG(9)
	io := workload.Deploy(h, suiteApp(t, vcputype.IOInt), "", rng)
	batch := workload.Deploy(h, suiteApp(t, vcputype.LLCF), "", rng)
	deps := []*workload.Deployment{io, batch}

	pol := baselines.HeteroAQL{}
	fast := pol.FastPCPUs(h)
	if len(fast) == 0 {
		t.Fatal("FastPCPUs empty on a classed machine")
	}
	for _, p := range fast {
		if topo.ClassOf(p) != 0 {
			t.Errorf("fast pCPU %d is in class %d, want the big class 0", p, topo.ClassOf(p))
		}
	}

	pol.Setup(h, deps)
	for _, v := range io.Dom.VCPUs {
		pool := v.Pool()
		if pool == nil || pool.Name != "fast" {
			t.Fatalf("IO vCPU in pool %v, want the fast pool", pool)
		}
		if pool.Slice != sim.Millisecond {
			t.Errorf("fast pool quantum %v, want the 1 ms default", pool.Slice)
		}
		for _, p := range pool.PCPUs() {
			if topo.ClassOf(p) != 0 {
				t.Errorf("fast pool spans pCPU %d of class %d", p, topo.ClassOf(p))
			}
		}
	}
	for _, v := range batch.Dom.VCPUs {
		pool := v.Pool()
		if pool == nil || pool.Name != "slow" {
			t.Fatalf("batch vCPU in pool %v, want the slow pool", pool)
		}
		if pool.Slice != xen.DefaultSlice {
			t.Errorf("slow pool quantum %v, want the Xen default", pool.Slice)
		}
		for _, p := range pool.PCPUs() {
			if topo.ClassOf(p) == 0 {
				t.Errorf("slow pool includes fast pCPU %d", p)
			}
		}
	}
}

// TestHeteroAQLFallsBackToAQL: on a homogeneous machine the policy is
// plain AQL — FastPCPUs yields nothing and Setup wires the adaptive
// controller.
func TestHeteroAQLFallsBackToAQL(t *testing.T) {
	h := xen.New(hw.I73770(), credit.New(), 1)
	rng := sim.NewRNG(9)
	deps := []*workload.Deployment{workload.Deploy(h, suiteApp(t, vcputype.IOInt), "", rng)}

	pol := &baselines.HeteroAQL{}
	if fast := pol.FastPCPUs(h); fast != nil {
		t.Fatalf("FastPCPUs = %v on a homogeneous machine, want nil", fast)
	}
	pol.Setup(h, deps)
	if pol.AQLController() == nil {
		t.Error("homogeneous fallback did not arm the AQL controller")
	}
}

func TestHeteroAQLNames(t *testing.T) {
	if got := (baselines.HeteroAQL{}).Name(); got != "hetero-aql" {
		t.Errorf("default name %q", got)
	}
	if got := (baselines.HeteroAQL{FastQ: 2 * sim.Millisecond}).Name(); got == "hetero-aql" {
		t.Errorf("non-default quantum not reflected in the name: %q", got)
	}
}

// TestHeteroAQLRunsEndToEnd: a full scenario run on the classed
// machine must complete and measure every app (the speed-scaled
// dispatch path under a real workload).
func TestHeteroAQLRunsEndToEnd(t *testing.T) {
	spec := s5(0xA91)
	spec.Topo = bigLittleTopo()
	res := scenario.Run(spec, &baselines.HeteroAQL{})
	if len(res.Apps) == 0 {
		t.Fatal("no apps measured")
	}
	for _, a := range res.Apps {
		if m, ok := a.Perf(); !ok || m <= 0 {
			t.Errorf("%s: metric %v (ok=%v)", a.Name, m, ok)
		}
	}
	// Determinism on the heterogeneous path: the speed-scaling
	// arithmetic is integer-anchored, so identical seeds agree exactly.
	again := scenario.Run(spec, &baselines.HeteroAQL{})
	for i := range res.Apps {
		if !res.Apps[i].Metrics.Equal(again.Apps[i].Metrics) {
			t.Errorf("%s: hetero run not deterministic", res.Apps[i].Name)
		}
	}
}

// TestEDFEmitsDeadlineMetrics: an EDF run reports the deadline miss
// accounting; other policies leave the metrics absent.
func TestEDFEmitsDeadlineMetrics(t *testing.T) {
	res := scenario.Run(s5(7), &baselines.EDF{Deadline: 10 * sim.Millisecond})
	misses, okM := res.Metrics.Get(scenario.MDeadlineMisses.Name)
	disp, okD := res.Metrics.Get(scenario.MDeadlineDispatches.Name)
	ratio, okR := res.Metrics.Get(scenario.MDeadlineMissRatio.Name)
	if !okM || !okD || !okR {
		t.Fatalf("deadline metrics missing: misses=%v dispatches=%v ratio=%v", okM, okD, okR)
	}
	if disp <= 0 {
		t.Fatalf("deadline_dispatches = %v, want > 0", disp)
	}
	if want := misses / disp; ratio != want {
		t.Errorf("deadline_miss_ratio = %v, want misses/dispatches = %v", ratio, want)
	}

	base := scenario.Run(s5(7), baselines.XenDefault{})
	if _, ok := base.Metrics.Get(scenario.MDeadlineMissRatio.Name); ok {
		t.Error("xen run emits deadline_miss_ratio; the metric must stay policy-gated")
	}
}

// TestEDFQuantumDerivation pins the deadline→quantum rule: half the
// deadline, clamped to [1, DefaultSlice].
func TestEDFQuantumDerivation(t *testing.T) {
	cases := []struct {
		deadline, want sim.Time
	}{
		{10 * sim.Millisecond, 5 * sim.Millisecond},
		{1, 1}, // floor clamp
		{200 * sim.Millisecond, xen.DefaultSlice}, // ceiling clamp
	}
	for _, c := range cases {
		if got := (baselines.EDF{Deadline: c.deadline}).Quantum(); got != c.want {
			t.Errorf("Quantum(deadline=%v) = %v, want %v", c.deadline, got, c.want)
		}
	}
}
