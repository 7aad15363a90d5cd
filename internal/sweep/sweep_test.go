package sweep

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"aqlsched/internal/scenario"
	"aqlsched/internal/sim"
	"aqlsched/internal/workload"
	"aqlsched/internal/xen"
)

// refs and pols spell Go-constructed Files' axes.
func refs(names ...string) []ScenarioRef {
	out := make([]ScenarioRef, len(names))
	for i, n := range names {
		out[i] = ScenarioRef{Name: n}
	}
	return out
}

func pols(names ...string) []PolicyRef {
	out := make([]PolicyRef, len(names))
	for i, n := range names {
		out[i] = PolicyRef{Name: n}
	}
	return out
}

// quickSpec is a small but real grid: one Table-4 scenario under three
// policies, two seed replications, quick windows.
func quickSpec(t *testing.T) *Spec {
	t.Helper()
	s, err := (&File{
		Name:      "quick",
		Scenarios: refs("S2"),
		Policies:  pols("xen", "microsliced", "aql"),
		Baseline:  "xen-credit",
		Seeds:     2,
		WarmupMS:  400,
		MeasureMS: 900,
	}).Spec()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSweepDeterminism is the subsystem's core guarantee: the same
// spec and seed produce bit-identical aggregates for any worker count.
func TestSweepDeterminism(t *testing.T) {
	spec := quickSpec(t)

	seq, err := Exec(spec, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Exec(spec, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if seq.Failed() != 0 || par.Failed() != 0 {
		t.Fatalf("failed runs: seq=%d par=%d", seq.Failed(), par.Failed())
	}

	var seqJSON, parJSON bytes.Buffer
	if err := seq.WriteJSON(&seqJSON); err != nil {
		t.Fatal(err)
	}
	if err := par.WriteJSON(&parJSON); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seqJSON.Bytes(), parJSON.Bytes()) {
		t.Errorf("JSON aggregates differ between -workers=1 and -workers=8:\n--- seq ---\n%s\n--- par ---\n%s",
			seqJSON.String(), parJSON.String())
	}

	var seqCSV, parCSV bytes.Buffer
	if err := seq.WriteCSV(&seqCSV); err != nil {
		t.Fatal(err)
	}
	if err := par.WriteCSV(&parCSV); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seqCSV.Bytes(), parCSV.Bytes()) {
		t.Error("CSV aggregates differ between -workers=1 and -workers=8")
	}
}

// TestSweepAggregates sanity-checks the cells of a real run: every
// coordinate exists, metrics are finite and positive, the baseline
// normalizes to exactly 1, and per-seed runs carry distinct seeds.
func TestSweepAggregates(t *testing.T) {
	spec := quickSpec(t)
	res, err := Exec(spec, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if want := len(spec.Scenarios) * len(spec.Policies); len(res.Cells) != want {
		t.Fatalf("%d cells, want %d", len(res.Cells), want)
	}
	for _, c := range res.Cells {
		if c.Runs != 2 {
			t.Errorf("cell %s/%s: %d runs, want 2", c.Scenario, c.Policy, c.Runs)
		}
		if len(c.Apps) == 0 {
			t.Errorf("cell %s/%s: no apps", c.Scenario, c.Policy)
		}
		for i := range c.Apps {
			a := &c.Apps[i]
			perf := a.Perf()
			if perf == nil || perf.Stats.N != 2 {
				t.Errorf("%s/%s/%s: primary metric missing or N wrong: %+v", c.Scenario, c.Policy, a.App, perf)
				continue
			}
			if !(perf.Stats.Mean > 0) || math.IsInf(perf.Stats.Mean, 0) {
				t.Errorf("%s/%s/%s: bad metric mean %v", c.Scenario, c.Policy, a.App, perf.Stats.Mean)
			}
			n := a.Norm()
			if n == nil {
				t.Errorf("%s/%s/%s: missing normalized stats", c.Scenario, c.Policy, a.App)
				continue
			}
			if c.Policy == spec.Baseline && (n.Mean != 1 || n.Std != 0) {
				t.Errorf("%s/%s/%s: baseline norm %v±%v, want exactly 1±0",
					c.Scenario, c.Policy, a.App, n.Mean, n.Std)
			}
		}
	}
	// Seed replication 0 must be the base seed (legacy-compatible);
	// replication 1 must differ and be shared across policies.
	r0 := res.RunFor("S2", "aql", 0)
	r1 := res.RunFor("S2", "aql", 1)
	if r0 == nil || r1 == nil {
		t.Fatal("missing runs")
	}
	if r0.Seed != spec.BaseSeed && r0.Seed != DefaultSeed {
		t.Errorf("replication 0 seed %#x, want base seed", r0.Seed)
	}
	if r1.Seed == r0.Seed {
		t.Error("replication 1 reuses replication 0's seed")
	}
	if x := res.RunFor("S2", "xen-credit", 1); x == nil || x.Seed != r1.Seed {
		t.Error("seed replication 1 not shared across policies (breaks paired normalization)")
	}
	// The AQL runs must expose their controllers independently.
	if r0.Controller() == nil || r1.Controller() == nil {
		t.Error("AQL runs lost their controllers")
	}
	if res.RunFor("S2", "xen-credit", 0).Controller() != nil {
		t.Error("xen run unexpectedly has a controller")
	}
}

// TestHeteroAQLFallbackExposesController: on a homogeneous machine
// hetero-aql runs the plain AQL controller. The run must expose it like
// an aql run does, and without KeepRaw it must release the hypervisor
// and monitoring history the controller anchors.
func TestHeteroAQLFallbackExposesController(t *testing.T) {
	spec, err := (&File{
		Name:      "hetero-fallback",
		Scenarios: refs("S2"),
		Policies:  pols("hetero-aql"),
		WarmupMS:  400,
		MeasureMS: 900,
	}).Spec()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Exec(spec, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	rr := res.RunFor("S2", "hetero-aql", 0)
	if rr == nil || rr.Err != nil {
		t.Fatalf("hetero-aql run missing or failed: %+v", rr)
	}
	ctl := rr.Controller()
	if ctl == nil {
		t.Fatal("hetero-aql fallback run exposes no controller")
	}
	if ctl.LastPlan == nil {
		t.Error("hetero-aql fallback controller never applied a cluster layout")
	}
	if ctl.H != nil || ctl.Monitor != nil {
		t.Error("hetero-aql run keeps its hypervisor or monitor reachable without KeepRaw")
	}
}

// TestSweepExpand checks the matrix shape and ordering invariants the
// aggregator indexes by.
func TestSweepExpand(t *testing.T) {
	spec := quickSpec(t)
	runs := spec.Runs()
	if want := 1 * 3 * 2; len(runs) != want {
		t.Fatalf("%d runs, want %d", len(runs), want)
	}
	for i, r := range runs {
		if r.Index != i {
			t.Errorf("run %d has index %d", i, r.Index)
		}
		wantIdx := (r.ScenarioIdx*len(spec.Policies)+r.PolicyIdx)*spec.seeds() + r.SeedIdx
		if wantIdx != i {
			t.Errorf("run %d coordinates (%d,%d,%d) do not match expansion order",
				i, r.ScenarioIdx, r.PolicyIdx, r.SeedIdx)
		}
		if r.Seed != spec.SeedFor(r.SeedIdx) {
			t.Errorf("run %d seed %#x, want %#x", i, r.Seed, spec.SeedFor(r.SeedIdx))
		}
	}
}

func TestSweepValidate(t *testing.T) {
	good := quickSpec(t)
	if err := good.Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
	bad := *good
	bad.Baseline = "nope"
	if err := bad.Validate(); err == nil {
		t.Error("missing baseline accepted")
	}
	bad = *good
	bad.Policies = append(bad.Policies, bad.Policies[0])
	if err := bad.Validate(); err == nil {
		t.Error("duplicate policy accepted")
	}
	bad = *good
	bad.Scenarios = nil
	if err := bad.Validate(); err == nil {
		t.Error("empty scenario axis accepted")
	}
}

func TestSweepSpecFile(t *testing.T) {
	spec, err := Parse([]byte(`{
		"name": "t",
		"scenarios": ["S1", "four-socket"],
		"policies": ["xen", "vturbo", "fixed:10ms", "aql-nocustom:1ms"],
		"quanta": ["90ms"],
		"baseline": "xen-credit",
		"seeds": 4,
		"base_seed": 7,
		"warmup_ms": 100,
		"measure_ms": 200
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Scenarios) != 2 || len(spec.Policies) != 5 {
		t.Fatalf("axes %dx%d, want 2x5", len(spec.Scenarios), len(spec.Policies))
	}
	if spec.Policies[4].Name != "fixed-90.000ms" {
		t.Errorf("quanta shorthand produced %q", spec.Policies[4].Name)
	}
	if spec.Warmup != 100*sim.Millisecond || spec.Measure != 200*sim.Millisecond {
		t.Errorf("windows %v/%v", spec.Warmup, spec.Measure)
	}
	if len(spec.Runs()) != 2*5*4 {
		t.Errorf("%d runs, want 40", len(spec.Runs()))
	}

	// The baseline accepts spec-file syntax as well as resolved names.
	alias, err := Parse([]byte(`{"scenarios":["S1"],"policies":["xen","fixed:10ms"],"baseline":"fixed:10ms"}`))
	if err != nil {
		t.Fatalf("spec-file baseline syntax rejected: %v", err)
	}
	if alias.Baseline != "fixed-10.000ms" {
		t.Errorf("baseline alias resolved to %q", alias.Baseline)
	}

	for _, bad := range []string{
		`{"scenarios":["S9"],"policies":["xen"]}`,
		`{"scenarios":["S1"],"policies":["frob"]}`,
		`{"scenarios":["S1"],"policies":["fixed:-3ms"]}`,
		`{"scenarios":["S1"],"policies":[]}`,
	} {
		if _, err := Parse([]byte(bad)); err == nil {
			t.Errorf("bad spec accepted: %s", bad)
		}
	}
}

func TestSweepBuiltins(t *testing.T) {
	names := BuiltinNames()
	want := []string{"baseline-grid", "bench", "dynmix", "faultfleet", "fig8", "fleet",
		"four-socket", "genmix", "hetero", "policy-grid", "quantum-grid"}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("builtins %v, want %v", names, want)
	}
	for _, n := range names {
		s, ok := Builtin(n)
		if !ok {
			t.Fatalf("builtin %q vanished", n)
		}
		if err := s.Validate(); err != nil {
			t.Errorf("builtin %q invalid: %v", n, err)
		}
	}
	if _, ok := Builtin("definitely-not-a-sweep"); ok {
		t.Error("unknown builtin resolved")
	}
}

func TestSweepStats(t *testing.T) {
	s := NewStats([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.Mean != 5 || s.N != 8 || s.Min != 2 || s.Max != 9 {
		t.Errorf("stats %+v", s)
	}
	if math.Abs(s.Std-2.138) > 0.001 {
		t.Errorf("std %v, want ~2.138 (sample stddev)", s.Std)
	}
	if math.Abs(s.CI95-1.96*s.Std/math.Sqrt(8)) > 1e-12 {
		t.Errorf("ci95 %v inconsistent with std", s.CI95)
	}
	if z := NewStats(nil); z.N != 0 || z.Mean != 0 {
		t.Errorf("empty stats %+v", z)
	}
	if one := NewStats([]float64{3}); one.Std != 0 || one.CI95 != 0 || one.Mean != 3 {
		t.Errorf("single-sample stats %+v", one)
	}
}

// panicPolicy blows up during setup, standing in for a misconfigured
// grid cell.
type panicPolicy struct{}

func (panicPolicy) Name() string { return "boom" }
func (panicPolicy) Setup(h *xen.Hypervisor, deps []*workload.Deployment) {
	panic("configured to fail")
}

// TestSweepFailureIsolated proves one panicking run cannot sink the
// sweep: its cell reports zero runs while the others aggregate fine.
func TestSweepFailureIsolated(t *testing.T) {
	spec := quickSpec(t)
	spec.Baseline = ""
	spec.Seeds = 1
	spec.Policies = append(spec.Policies, Policy{
		Name: "boom",
		New:  func() scenario.Policy { return panicPolicy{} },
	})
	res, err := Exec(spec, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed() != 1 {
		t.Fatalf("%d failed runs, want exactly 1", res.Failed())
	}
	boom := res.Cell("S2", "boom")
	if boom == nil || boom.Runs != 0 || len(boom.Apps) != 0 {
		t.Errorf("failed cell not empty: %+v", boom)
	}
	ok := res.Cell("S2", "aql")
	if ok == nil || ok.Runs != 1 || len(ok.Apps) == 0 {
		t.Errorf("healthy cell damaged by the failure: %+v", ok)
	}
	if rr := res.RunFor("S2", "boom", 0); rr == nil || rr.Err == nil ||
		!strings.Contains(rr.Err.Error(), "configured to fail") {
		t.Errorf("panic not captured: %+v", rr)
	}
	// The CSV must carry a marker for the failed cell, not skip it.
	var csv bytes.Buffer
	if err := res.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(csv.String(), "S2,boom,,,FAILED") {
		t.Errorf("failed cell missing from CSV:\n%s", csv.String())
	}
}
