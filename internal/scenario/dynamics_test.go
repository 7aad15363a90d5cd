package scenario_test

import (
	"testing"

	"aqlsched/internal/baselines"
	"aqlsched/internal/hw"
	"aqlsched/internal/scenario"
	"aqlsched/internal/sim"
	"aqlsched/internal/vcputype"
	"aqlsched/internal/workload"
)

func quickDynPhase(seed uint64) scenario.Spec {
	spec := scenario.DynPhase(seed)
	spec.Warmup = 500 * sim.Millisecond
	spec.Measure = 2 * sim.Second
	return spec
}

func TestDynPhaseIsDynamic(t *testing.T) {
	spec := scenario.DynPhase(1)
	if !spec.Dynamic() {
		t.Error("DynPhase not recognized as dynamic")
	}
	static := scenario.ScenarioByName("S1", 1)
	if static.Dynamic() {
		t.Error("S1 misclassified as dynamic")
	}
}

// TestAdaptationTracksPhaseFlips: running the phased scenario under
// AQL must observe ground-truth flips and re-recognize most of them;
// under a non-recognizing policy no adaptation record exists.
func TestAdaptationTracksPhaseFlips(t *testing.T) {
	res := scenario.Run(quickDynPhase(0xA91), &baselines.AQL{})
	a := res.Adapt
	if a == nil {
		t.Fatal("no adaptation record under AQL")
	}
	if a.Window != 4 {
		t.Errorf("adaptation window %d, want the default 4", a.Window)
	}
	if a.Flips == 0 {
		t.Fatal("no ground-truth flips observed over 2.5 s of 1-1.5 s phases")
	}
	if a.RecognizedFlips == 0 || a.MeanLatencyPeriods <= 0 {
		t.Errorf("vTRS recognized %d/%d flips (latency %v), want most",
			a.RecognizedFlips, a.Flips, a.MeanLatencyPeriods)
	}
	if a.MatchedFrac < 0.5 {
		t.Errorf("recognized type matched truth only %.0f%% of periods", 100*a.MatchedFrac)
	}
	// Every phased VM is tracked, and sampled in at least one period.
	vmSeen := 0
	for _, vm := range a.PerVM {
		if !vm.Dynamic {
			continue
		}
		vmSeen++
		if vm.Total == 0 {
			t.Errorf("phased VM %s has no samples", vm.VM)
		}
	}
	if vmSeen != 8 {
		t.Errorf("%d phased VMs tracked, want 8", vmSeen)
	}

	// No recognizer, no adaptation record.
	res = scenario.Run(quickDynPhase(0xA91), baselines.XenDefault{})
	if res.Adapt != nil {
		t.Error("adaptation record under plain Xen (no vTRS)")
	}
}

// TestAdaptationWithoutCatalog: an AQL policy built directly, without
// the catalog's constructors, still exposes its controller, so a
// dynamic run records its adaptation. HeteroAQL on a homogeneous
// machine falls back to the same controller.
func TestAdaptationWithoutCatalog(t *testing.T) {
	for _, pol := range []scenario.Policy{&baselines.AQL{}, &baselines.HeteroAQL{}} {
		res := scenario.Run(quickDynPhase(0xA91), pol)
		if res.Adapt == nil {
			t.Errorf("%s: no adaptation record", pol.Name())
		}
		if _, ok := res.Metrics.Get(scenario.MAdaptMatch.Name); !ok {
			t.Errorf("%s: %s missing from the run metrics", pol.Name(), scenario.MAdaptMatch.Name)
		}
	}
}

// TestArrivalsDeployAndDepart: a VM arriving mid-warmup and departing
// mid-measure must run in between, be measured over its lifetime, and
// leave the machine to the standing population afterwards.
func TestArrivalsDeployAndDepart(t *testing.T) {
	spec := scenario.ScenarioByName("S1", 3)
	spec.Warmup = 400 * sim.Millisecond
	spec.Measure = 1 * sim.Second
	churn := workload.ByName("hmmer")
	churn.Name = "churner"
	spec.Arrivals = []scenario.Arrival{
		{At: 200 * sim.Millisecond, Spec: churn, Lifetime: 700 * sim.Millisecond},
		{At: 600 * sim.Millisecond, Spec: churn, Lifetime: 10 * sim.Second}, // outlives the run
	}
	res := scenario.Run(spec, baselines.XenDefault{})

	m := res.App("churner")
	if m.Instances != 2 {
		t.Fatalf("churner instances = %d, want 2", m.Instances)
	}
	if v, ok := m.Perf(); !ok || v <= 0 {
		t.Error("churn VMs measured zero throughput")
	}
	// The departed VM's domain is gone; the survivor's remains.
	names := map[string]bool{}
	for _, d := range res.Hyp.Domains {
		names[d.Name] = true
	}
	if names["churner-a1"] {
		t.Error("departed VM still registered with the hypervisor")
	}
	if !names["churner-a2"] {
		t.Error("long-lived arrival missing from the hypervisor")
	}
	// Static apps are still measured normally.
	if v, ok := res.App("hmmer").Perf(); !ok || v <= 0 {
		t.Error("standing population starved after churn")
	}
}

// TestDynamicRunDeterminism: two identical dynamic runs (churn +
// phases under AQL) produce identical measurements and adaptation
// diagnostics.
func TestDynamicRunDeterminism(t *testing.T) {
	gen := scenario.GenSpec{
		Name:  "dyn",
		VCPUs: 8, OverSub: 2,
		Mix:  map[vcputype.Type]float64{vcputype.LoLCF: 1, vcputype.IOInt: 1},
		Seed: 11,
		Phases: []workload.AppPhase{
			{Dur: 400 * sim.Millisecond, Type: vcputype.LoLCF},
			{Dur: 400 * sim.Millisecond, Type: vcputype.LLCO},
		},
		PhaseProb: 0.5,
		Churn:     &scenario.ChurnSpec{Rate: 3, MeanLifetime: sim.Millis(500 * sim.Millisecond), Horizon: sim.Millis(900 * sim.Millisecond)},
	}
	run := func() *scenario.Result {
		spec := gen.MustGenerate()
		spec.Warmup = 300 * sim.Millisecond
		spec.Measure = 700 * sim.Millisecond
		return scenario.Run(spec, &baselines.AQL{})
	}
	a, b := run(), run()
	if len(a.Apps) != len(b.Apps) {
		t.Fatalf("app counts differ: %d vs %d", len(a.Apps), len(b.Apps))
	}
	for i := range a.Apps {
		if a.Apps[i].Name != b.Apps[i].Name || a.Apps[i].Instances != b.Apps[i].Instances ||
			!a.Apps[i].Metrics.Equal(b.Apps[i].Metrics) {
			t.Errorf("app %d diverged: %+v vs %+v", i, a.Apps[i], b.Apps[i])
		}
	}
	if a.CtxSwitches != b.CtxSwitches || a.PoolMigrations != b.PoolMigrations {
		t.Errorf("diagnostics diverged: ctx %d/%d mig %d/%d",
			a.CtxSwitches, b.CtxSwitches, a.PoolMigrations, b.PoolMigrations)
	}
	if !a.Metrics.Equal(b.Metrics) {
		t.Error("run metric sets diverged across identical runs")
	}
	aa, ba := a.Adapt, b.Adapt
	if (aa == nil) != (ba == nil) {
		t.Fatal("adaptation presence diverged")
	}
	if aa != nil && (aa.Flips != ba.Flips || aa.MeanLatencyPeriods != ba.MeanLatencyPeriods ||
		aa.Migrations != ba.Migrations || aa.Reclusters != ba.Reclusters) {
		t.Errorf("adaptation diverged: %+v vs %+v", aa, ba)
	}
}

// TestGenSpecChurnAndPhaseGeneration: churn knobs expand into a
// deterministic arrival timeline inside the horizon, and phase knobs
// produce phased VMs.
func TestGenSpecChurnAndPhaseGeneration(t *testing.T) {
	gen := scenario.GenSpec{
		Name:  "churny",
		VCPUs: 6,
		Mix:   map[vcputype.Type]float64{vcputype.LoLCF: 1},
		Seed:  5,
		Phases: []workload.AppPhase{
			{Dur: 500 * sim.Millisecond, Type: vcputype.LLCF},
			{Dur: 500 * sim.Millisecond, Type: vcputype.LoLCF},
		},
		PhaseProb: 1,
		Churn: &scenario.ChurnSpec{
			Rate: 5, MeanLifetime: sim.Millis(400 * sim.Millisecond),
			Horizon: sim.Millis(2 * sim.Second), MaxVMs: 4,
		},
	}
	spec, err := gen.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Arrivals) == 0 || len(spec.Arrivals) > 4 {
		t.Fatalf("%d arrivals, want 1..4 (MaxVMs)", len(spec.Arrivals))
	}
	for i, a := range spec.Arrivals {
		if a.At <= 0 || a.At >= 2*sim.Second {
			t.Errorf("arrival %d at %v outside (0, horizon)", i, a.At)
		}
		if a.Lifetime < 200*sim.Millisecond {
			t.Errorf("arrival %d lifetime %v below the default floor", i, a.Lifetime)
		}
	}
	// PhaseProb 1: every generated VM is phased.
	for _, e := range spec.Apps {
		if len(e.Spec.Phases) == 0 {
			t.Errorf("VM %s not phased despite PhaseProb=1", e.Spec.Name)
		}
	}
	// Same seed, same timeline.
	again := gen.MustGenerate()
	if len(again.Arrivals) != len(spec.Arrivals) {
		t.Fatal("arrival count not reproducible")
	}
	for i := range spec.Arrivals {
		if spec.Arrivals[i].At != again.Arrivals[i].At ||
			spec.Arrivals[i].Lifetime != again.Arrivals[i].Lifetime {
			t.Errorf("arrival %d not reproducible", i)
		}
	}
}

func TestGenSpecDynamicValidation(t *testing.T) {
	base := scenario.GenSpec{
		Name: "v", VCPUs: 4,
		Mix: map[vcputype.Type]float64{vcputype.LoLCF: 1},
	}
	cases := []struct {
		name   string
		mutate func(*scenario.GenSpec)
	}{
		{"single phase", func(g *scenario.GenSpec) {
			g.Phases = []workload.AppPhase{{Dur: sim.Second, Type: vcputype.LoLCF}}
		}},
		{"conspin phase", func(g *scenario.GenSpec) {
			g.Phases = []workload.AppPhase{
				{Dur: sim.Second, Type: vcputype.ConSpin},
				{Dur: sim.Second, Type: vcputype.LoLCF},
			}
		}},
		{"zero-duration phase", func(g *scenario.GenSpec) {
			g.Phases = []workload.AppPhase{
				{Dur: 0, Type: vcputype.LLCF},
				{Dur: sim.Second, Type: vcputype.LoLCF},
			}
		}},
		{"phase prob out of range", func(g *scenario.GenSpec) {
			g.Phases = []workload.AppPhase{
				{Dur: sim.Second, Type: vcputype.LLCF},
				{Dur: sim.Second, Type: vcputype.LoLCF},
			}
			g.PhaseProb = 1.5
		}},
		{"churn without rate", func(g *scenario.GenSpec) {
			g.Churn = &scenario.ChurnSpec{MeanLifetime: sim.Millis(sim.Second), Horizon: sim.Millis(sim.Second)}
		}},
		{"churn without horizon", func(g *scenario.GenSpec) {
			g.Churn = &scenario.ChurnSpec{Rate: 1, MeanLifetime: sim.Millis(sim.Second)}
		}},
		{"churn horizon before start", func(g *scenario.GenSpec) {
			g.Churn = &scenario.ChurnSpec{Rate: 1, MeanLifetime: sim.Millis(sim.Second),
				Start: sim.Millis(2 * sim.Second), Horizon: sim.Millis(1 * sim.Second)}
		}},
		{"churn with nothing to draw", func(g *scenario.GenSpec) {
			g.Mix = nil
			g.Fixed = []workload.AppSpec{workload.ByName("hmmer")}
			g.VCPUs = 1
			g.Churn = &scenario.ChurnSpec{Rate: 1, MeanLifetime: sim.Millis(sim.Second), Horizon: sim.Millis(sim.Second)}
		}},
	}
	for _, c := range cases {
		g := base
		c.mutate(&g)
		if err := g.Validate(); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

// TestChurnHorizonBelowDefaultStartRejected: a horizon at or below the
// effective start (explicit or the 50 ms default) must fail
// validation, not silently produce a churn-free scenario.
func TestChurnHorizonBelowDefaultStartRejected(t *testing.T) {
	g := scenario.GenSpec{
		Name: "tiny", VCPUs: 2,
		Mix:   map[vcputype.Type]float64{vcputype.LoLCF: 1},
		Churn: &scenario.ChurnSpec{Rate: 2, MeanLifetime: sim.Millis(500 * sim.Millisecond), Horizon: sim.Millis(40 * sim.Millisecond)},
	}
	if err := g.Validate(); err == nil {
		t.Error("horizon 40ms below the 50ms default start accepted")
	}
}

// TestChurnVMsGetIndependentRandomStreams: two churn VMs deployed
// around an earlier VM's teardown must not receive identical forked
// RNG streams (the fork label is the monotonic domain-creation count,
// not the live domain count).
func TestChurnVMsGetIndependentRandomStreams(t *testing.T) {
	web := workload.SPECWeb2009()
	web.Name = "web-churn"
	spec := scenario.Spec{
		Name:        "rng-collide",
		GuestPCPUs:  []hw.PCPUID{0},
		Apps:        []scenario.Entry{{Spec: workload.ByName("hmmer"), Count: 1}},
		Warmup:      200 * sim.Millisecond,
		Measure:     1 * sim.Second,
		Seed:        5,
		StartJitter: -1,
		Arrivals: []scenario.Arrival{
			// First churn VM departs before the second arrives: without
			// monotonic fork labels both would be "domain #1".
			{At: 50 * sim.Millisecond, Spec: web, Lifetime: 200 * sim.Millisecond},
			{At: 400 * sim.Millisecond, Spec: web, Lifetime: 700 * sim.Millisecond},
		},
	}
	res := scenario.Run(spec, baselines.XenDefault{})
	var lats []sim.Time
	for _, d := range res.Deps {
		if d.Spec.Name == "web-churn" {
			if len(d.Servers) != 1 {
				t.Fatalf("web VM has %d servers", len(d.Servers))
			}
			lats = append(lats, d.Servers[0].Lat.Max())
		}
	}
	if len(lats) != 2 {
		t.Fatalf("%d web churn VMs, want 2", len(lats))
	}
	if lats[0] == lats[1] {
		t.Errorf("churn VMs produced identical latency maxima (%v) — correlated RNG streams", lats[0])
	}
}
