package baselines_test

import (
	"math"
	"strings"
	"testing"

	"aqlsched/internal/baselines"
	"aqlsched/internal/hw"
	"aqlsched/internal/scenario"
	"aqlsched/internal/sim"
)

// s5 builds the paper's S5 colocation with short windows — enough for
// every app to complete work, quick enough for a unit test.
func s5(seed uint64) scenario.Spec {
	spec := scenario.ScenarioByName("S5", seed)
	spec.Warmup = 400 * sim.Millisecond
	spec.Measure = 900 * sim.Millisecond
	return spec
}

// policies lists every scheduler the package provides, each fresh per
// test.
func policies() []scenario.Policy {
	return []scenario.Policy{
		baselines.XenDefault{},
		baselines.FixedQuantum{Q: 10 * sim.Millisecond},
		baselines.Microsliced(),
		baselines.VTurbo{},
		baselines.VSlicer{},
		&baselines.AQL{},
	}
}

// TestPoliciesRunS5 runs every baseline policy on S5 and checks the
// fundamentals: all five applications are measured, per-app metrics
// are finite and positive, and apps come back in deployment order.
func TestPoliciesRunS5(t *testing.T) {
	wantOrder := []string{"SPECweb2009", "facesim", "bzip2", "libquantum", "hmmer"}
	for _, pol := range policies() {
		pol := pol
		t.Run(pol.Name(), func(t *testing.T) {
			t.Parallel()
			res := scenario.Run(s5(0xA91), pol)
			if len(res.Apps) != len(wantOrder) {
				t.Fatalf("%d apps measured, want %d", len(res.Apps), len(wantOrder))
			}
			for i, a := range res.Apps {
				if a.Name != wantOrder[i] {
					t.Errorf("app %d is %q, want %q (deployment order)", i, a.Name, wantOrder[i])
				}
				m, ok := a.Perf()
				if !ok || math.IsNaN(m) || math.IsInf(m, 0) || m <= 0 {
					t.Errorf("%s: metric %v (ok=%v), want finite and positive", a.Name, m, ok)
				}
				d, _, _ := a.Metrics.Primary()
				if isLat := d.Name == scenario.MLatencyMean.Name; isLat != (a.Name == "SPECweb2009") {
					t.Errorf("%s: primary metric %q, want latency metric only for the web app", a.Name, d.Name)
				}
				if a.Instances <= 0 {
					t.Errorf("%s: %d instances", a.Name, a.Instances)
				}
			}
			if res.CtxSwitches == 0 {
				t.Error("hypervisor never context-switched")
			}
		})
	}
}

// TestPoliciesAreDeterministic re-runs each policy with the same seed
// and demands identical measurements — the property the sweep
// subsystem's parallelism rests on.
func TestPoliciesAreDeterministic(t *testing.T) {
	for _, mk := range []func() scenario.Policy{
		func() scenario.Policy { return baselines.XenDefault{} },
		func() scenario.Policy { return baselines.Microsliced() },
		func() scenario.Policy { return &baselines.AQL{} },
	} {
		a := scenario.Run(s5(7), mk())
		b := scenario.Run(s5(7), mk())
		if name := a.Policy; name != b.Policy {
			t.Fatalf("policy names differ: %q vs %q", a.Policy, b.Policy)
		}
		for i := range a.Apps {
			if !a.Apps[i].Metrics.Equal(b.Apps[i].Metrics) {
				t.Errorf("%s/%s: metric sets differ across identical runs: %v vs %v",
					a.Policy, a.Apps[i].Name, a.Apps[i].Metrics.Names(), b.Apps[i].Metrics.Names())
			}
		}
	}
}

// TestMicroslicedHelpsIOHurtsLLCF pins the paper's headline contrast
// on S5: a 1 ms quantum for everyone slashes web latency but taxes the
// LLC-friendly batch app, relative to default Xen.
func TestMicroslicedHelpsIOHurtsLLCF(t *testing.T) {
	base := scenario.Run(s5(0xA91), baselines.XenDefault{})
	micro := scenario.Run(s5(0xA91), baselines.Microsliced())
	norm := scenario.Normalize(micro, base)
	if n := norm["SPECweb2009"]; n >= 1 {
		t.Errorf("microsliced web latency normalized %.3f, want < 1", n)
	}
	if n := norm["bzip2"]; n <= 1 {
		t.Errorf("microsliced bzip2 normalized %.3f, want > 1 (LLCF penalty)", n)
	}
}

// TestVTurboRefusesToTakeEveryCore documents the guard against a turbo
// pool that would starve the normal pool: on one guest pCPU the turbo
// core would be the whole machine.
func TestVTurboRefusesToTakeEveryCore(t *testing.T) {
	defer func() {
		r := recover()
		if msg, _ := r.(string); !strings.Contains(msg, "vTurbo") {
			t.Errorf("recover() = %v, want the vTurbo guard's panic", r)
		}
	}()
	spec := s5(1)
	spec.GuestPCPUs = []hw.PCPUID{0}
	scenario.Run(spec, baselines.VTurbo{})
}
