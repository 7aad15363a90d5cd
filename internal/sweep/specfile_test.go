package sweep

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// genSpecJSON is a complete generated-scenario sweep defined purely in
// JSON: an inline two-socket machine, a generated mix with pinned
// catalog apps, and three policies.
const genSpecJSON = `{
	"name": "gen-quick",
	"topologies": {
		"dual-4": {"sockets": 2, "cores_per_socket": 4, "llc_mb": 6, "mem_gbps": 10}
	},
	"scenarios": [
		{"gen": {
			"name": "mix-a",
			"topology": "dual-4",
			"vcpus": 16,
			"oversub": 4,
			"mix": {"IOInt": 0.3, "ConSpin": 0.2, "LLCF": 0.25, "LLCO": 0.25},
			"apps": ["bzip2"]
		}}
	],
	"policies": ["xen", "aql"],
	"baseline": "xen-credit",
	"seeds": 2,
	"warmup_ms": 300,
	"measure_ms": 600
}`

func TestSpecFileGeneratorBlock(t *testing.T) {
	spec, err := Parse([]byte(genSpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Scenarios) != 1 || spec.Scenarios[0].Name != "mix-a" {
		t.Fatalf("scenario axis %+v", spec.Scenarios)
	}
	s := spec.Scenarios[0].New()
	if s.Topo.Sockets != 2 || s.Topo.CoresPerSocket != 4 {
		t.Errorf("generated scenario machine %dx%d, want the inline dual-4", s.Topo.Sockets, s.Topo.CoresPerSocket)
	}
	if len(s.GuestPCPUs) != 4 {
		t.Errorf("%d guest pCPUs, want 4 (16 vCPUs / oversub 4)", len(s.GuestPCPUs))
	}
	if s.Apps[0].Spec.Name != "bzip2" {
		t.Errorf("pinned app missing: first app %q", s.Apps[0].Spec.Name)
	}
	// The axis constructor must re-expand to the identical population
	// every time it is called (one call per sweep run).
	if again := spec.Scenarios[0].New(); !reflect.DeepEqual(s, again) {
		t.Error("generator axis point expands differently across calls")
	}
}

// TestSpecFileGeneratedSweepDeterminism is the end-to-end acceptance
// criterion: a generated-scenario sweep defined purely in JSON produces
// byte-identical JSON/CSV artifacts for any -workers value.
func TestSpecFileGeneratedSweepDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	exec := func(workers int) (string, string) {
		spec, err := Parse([]byte(genSpecJSON))
		if err != nil {
			t.Fatal(err)
		}
		res, err := Exec(spec, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed() != 0 {
			t.Fatalf("workers=%d: %d runs failed", workers, res.Failed())
		}
		var j, c bytes.Buffer
		if err := res.WriteJSON(&j); err != nil {
			t.Fatal(err)
		}
		if err := res.WriteCSV(&c); err != nil {
			t.Fatal(err)
		}
		return j.String(), c.String()
	}
	j1, c1 := exec(1)
	j8, c8 := exec(8)
	if j1 != j8 {
		t.Error("generated sweep JSON differs between -workers 1 and 8")
	}
	if c1 != c8 {
		t.Error("generated sweep CSV differs between -workers 1 and 8")
	}
}

func TestSpecFileTopologyOverride(t *testing.T) {
	spec, err := Parse([]byte(`{
		"scenarios": [{"name": "S1", "topology": "xeon-e5-4603"}],
		"policies": ["xen"]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	sc := spec.Scenarios[0]
	if sc.Name != "S1@xeon-e5-4603" {
		t.Errorf("override axis name %q", sc.Name)
	}
	s := sc.New()
	if s.Topo.Sockets != 4 {
		t.Errorf("override machine has %d sockets, want 4", s.Topo.Sockets)
	}
	if s.GuestPCPUs != nil {
		t.Errorf("override kept stale guest pCPUs %v", s.GuestPCPUs)
	}
	// The population is still S1's.
	if len(s.Apps) == 0 || s.Apps[0].Spec.Name != "fluidanimate" {
		t.Errorf("override lost the S1 population: %+v", s.Apps)
	}
	// Two runs must not share the topology value.
	if a, b := sc.New(), sc.New(); a.Topo == b.Topo {
		t.Error("override runs share one *hw.Topology")
	}
}

// specFileErrorCases are malformed specs that must fail the parse with
// a useful error, never a panic at run time.
var specFileErrorCases = []specErrorCase{
	{"unknown scenario", `{"scenarios":["S9"],"policies":["xen"]}`, "S9"},
	{"unknown policy", `{"scenarios":["S1"],"policies":["frob"]}`, "frob"},
	{"unknown topology override", `{"scenarios":[{"name":"S1","topology":"cray-1"}],"policies":["xen"]}`, "cray-1"},
	{"unknown gen topology", `{"scenarios":[{"gen":{"vcpus":8,"mix":{"LLCF":1},"topology":"cray-1"}}],"policies":["xen"]}`, "cray-1"},
	{"missing mix", `{"scenarios":[{"gen":{"vcpus":8}}],"policies":["xen"]}`, "mix"},
	{"bad mix type", `{"scenarios":[{"gen":{"vcpus":8,"mix":{"IOBound":1}}}],"policies":["xen"]}`, "IOBound"},
	{"bad mix weight", `{"scenarios":[{"gen":{"vcpus":8,"mix":{"IOInt":-1}}}],"policies":["xen"]}`, "positive"},
	{"zero vcpus", `{"scenarios":[{"gen":{"mix":{"IOInt":1}}}],"policies":["xen"]}`, "vCPU"},
	{"unknown pinned app", `{"scenarios":[{"gen":{"vcpus":8,"mix":{"IOInt":1},"apps":["quake3"]}}],"policies":["xen"]}`, "quake3"},
	{"empty scenario entry", `{"scenarios":[{}],"policies":["xen"]}`, "no generator"},
	{"name plus gen", `{"scenarios":[{"name":"S1","gen":{"vcpus":8,"mix":{"IOInt":1}}}],"policies":["xen"]}`, "both"},
	{"entry topology plus gen", `{"scenarios":[{"topology":"xeon-e5-4603","gen":{"vcpus":8,"mix":{"IOInt":1}}}],"policies":["xen"]}`, "inside the generator block"},
	{"unknown top-level key", `{"scenarioz":["S1"],"policies":["xen"]}`, "scenarioz"},
	{"typo in topology builder", `{"topologies":{"t":{"sockets":1,"cores_per_socket":4,"llcmb":24}},"scenarios":["S1"],"policies":["xen"]}`, "llcmb"},
	{"typo in gen block", `{"scenarios":[{"gen":{"vcpus":8,"mix":{"IOInt":1},"over_sub":8}}],"policies":["xen"]}`, "over_sub"},
	{"typo in scenario ref", `{"scenarios":[{"nam":"S1"}],"policies":["xen"]}`, "nam"},
	{"bad inline topology", `{"topologies":{"t":{"sockets":0,"cores_per_socket":4}},"scenarios":[{"gen":{"vcpus":8,"mix":{"IOInt":1},"topology":"t"}}],"policies":["xen"]}`, "socket"},
	{"fixed oversubscribed budget", `{"scenarios":[{"gen":{"vcpus":1,"mix":{"IOInt":1},"apps":["facesim"]}}],"policies":["xen"]}`, "budget"},
	{"overflowing measure_ms", `{"scenarios":["S1"],"policies":["xen"],"measure_ms":18446744073709552}`, "measure_ms"},
	{"negative warmup_ms", `{"scenarios":["S1"],"policies":["xen"],"warmup_ms":-5}`, "warmup_ms"},
}

func TestSpecFileErrorPaths(t *testing.T) {
	checkSpecErrors(t, specFileErrorCases)
}

// TestSpecFileGenSeedIndependence: the generator seed fixes the
// population; the file's base seed only moves the simulation streams.
func TestSpecFileGenSeeds(t *testing.T) {
	parse := func(blob string) *Spec {
		s, err := Parse([]byte(blob))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	const a = `{"scenarios":[{"gen":{"vcpus":8,"mix":{"LLCF":1},"seed":7}}],"policies":["xen"]}`
	const b = `{"scenarios":[{"gen":{"vcpus":8,"mix":{"LLCF":1},"seed":8}}],"policies":["xen"]}`
	sa, sb := parse(a), parse(b)
	if reflect.DeepEqual(sa.Scenarios[0].New().Apps, sb.Scenarios[0].New().Apps) {
		t.Error("different generator seeds drew identical populations")
	}
	// Default generator seed follows base_seed.
	const c = `{"base_seed":11,"scenarios":[{"gen":{"vcpus":8,"mix":{"LLCF":1}}}],"policies":["xen"]}`
	const d = `{"base_seed":12,"scenarios":[{"gen":{"vcpus":8,"mix":{"LLCF":1}}}],"policies":["xen"]}`
	sc, sd := parse(c), parse(d)
	if reflect.DeepEqual(sc.Scenarios[0].New().Apps, sd.Scenarios[0].New().Apps) {
		t.Error("base_seed change did not move the default generator seed")
	}
	// Default axis name is deterministic and descriptive.
	if got := sc.Scenarios[0].Name; got != "gen0-i7-3770-8v" {
		t.Errorf("default gen axis name %q", got)
	}
}

func TestGenmixBuiltin(t *testing.T) {
	s, ok := Builtin("genmix")
	if !ok {
		t.Fatal("genmix builtin missing")
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	sc := s.Scenarios[0].New()
	if sc.Topo.TotalPCPUs() != 16 {
		t.Errorf("genmix machine has %d pCPUs, want 16", sc.Topo.TotalPCPUs())
	}
	if len(sc.GuestPCPUs) != 8 {
		t.Errorf("genmix guest pCPUs %d, want 8 (32 vCPUs / oversub 4)", len(sc.GuestPCPUs))
	}
}

// TestExampleBuiltinShapes: each built-in parsed from an embedded
// example spec still exercises the layer it demonstrates.
func TestExampleBuiltinShapes(t *testing.T) {
	builtin := func(name string) *Spec {
		s, ok := Builtin(name)
		if !ok {
			t.Fatalf("%s builtin missing", name)
		}
		return s
	}
	if sc := builtin("dynmix").Scenarios[0].New(); !sc.Dynamic() || len(sc.Arrivals) == 0 {
		t.Error("dynmix scenario is not dynamic (no churn expanded)")
	}
	if sc := builtin("hetero").Scenarios[0].New(); !sc.Topo.Heterogeneous() {
		t.Error("hetero sweep machine is homogeneous")
	}
	if fl := builtin("fleet"); len(fl.Scenarios) != 2 {
		t.Errorf("fleet builtin has %d placement axis points, want 2", len(fl.Scenarios))
	}
	for _, sc := range builtin("faultfleet").Scenarios {
		if sc.NewFleet().Faults == nil {
			t.Errorf("faultfleet scenario %q lost its fault plan", sc.Name)
		}
	}
}

// dynSpecJSON exercises the dynamic-scenario schema end to end: a
// phased + churning generated population.
const dynSpecJSON = `{
	"name": "dyn-quick",
	"scenarios": [
		{"gen": {
			"name": "dyn-a",
			"vcpus": 8,
			"oversub": 2,
			"mix": {"IOInt": 0.5, "LoLCF": 0.5},
			"phases": [
				{"type": "LoLCF", "ms": 400},
				{"type": "LLCO", "ms": 400}
			],
			"phase_prob": 0.5,
			"churn": {"rate_per_sec": 3, "mean_life_ms": 500, "horizon_ms": 800, "max_vms": 3}
		}}
	],
	"policies": ["xen", "aql"],
	"baseline": "xen-credit",
	"seeds": 2,
	"warmup_ms": 300,
	"measure_ms": 600
}`

func TestSpecFileDynamicBlocks(t *testing.T) {
	spec, err := Parse([]byte(dynSpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	sc := spec.Scenarios[0].New()
	if !sc.Dynamic() {
		t.Fatal("spec-file scenario with phases+churn not dynamic")
	}
	if len(sc.Arrivals) == 0 || len(sc.Arrivals) > 3 {
		t.Errorf("%d arrivals, want 1..3 (max_vms)", len(sc.Arrivals))
	}
	phased := 0
	for _, e := range sc.Apps {
		if len(e.Spec.Phases) > 0 {
			phased++
		}
	}
	if phased == 0 {
		t.Error("no phased VMs generated at phase_prob 0.5")
	}
}

// dynErrorCases are malformed phase and churn blocks.
var dynErrorCases = []specErrorCase{
	{"unknown phase type", `{"name":"x","scenarios":[{"gen":{"vcpus":4,"mix":{"LoLCF":1},
		"phases":[{"type":"Bogus","ms":400},{"type":"LoLCF","ms":400}]}}],"policies":["xen"]}`, ""},
	{"single phase", `{"name":"x","scenarios":[{"gen":{"vcpus":4,"mix":{"LoLCF":1},
		"phases":[{"type":"LoLCF","ms":400}]}}],"policies":["xen"]}`, ""},
	{"conspin phase", `{"name":"x","scenarios":[{"gen":{"vcpus":4,"mix":{"LoLCF":1},
		"phases":[{"type":"ConSpin","ms":400},{"type":"LoLCF","ms":400}]}}],"policies":["xen"]}`, ""},
	{"churn without horizon", `{"name":"x","scenarios":[{"gen":{"vcpus":4,"mix":{"LoLCF":1},
		"churn":{"rate_per_sec":2,"mean_life_ms":500}}}],"policies":["xen"]}`, ""},
	{"churn unknown key", `{"name":"x","scenarios":[{"gen":{"vcpus":4,"mix":{"LoLCF":1},
		"churn":{"rate_per_sec":2,"mean_life_ms":500,"horizon_ms":800,"oops":1}}}],"policies":["xen"]}`, ""},
	{"negative phase ms", `{"name":"x","scenarios":[{"gen":{"vcpus":4,"mix":{"LoLCF":1},
		"phases":[{"type":"LoLCF","ms":-5},{"type":"LLCO","ms":400}]}}],"policies":["xen"]}`, ""},
	{"overflowing phase ms", `{"name":"x","scenarios":[{"gen":{"vcpus":4,"mix":{"LoLCF":1},
		"phases":[{"type":"LoLCF","ms":18446744073709552},{"type":"LLCO","ms":400}]}}],"policies":["xen"]}`, "overflows"},
	// An explicit "phase_prob": 0 drops the phases, but their legs are
	// still decoded: a bad leg fails the load.
	{"unknown phase type under phase_prob 0", `{"name":"x","scenarios":[{"gen":{"vcpus":4,"mix":{"LoLCF":1},"phase_prob":0,
		"phases":[{"type":"Bogus","ms":400},{"type":"LoLCF","ms":400}]}}],"policies":["xen"]}`, "Bogus"},
	{"overflowing phase ms under phase_prob 0", `{"name":"x","scenarios":[{"gen":{"vcpus":4,"mix":{"LoLCF":1},"phase_prob":0,
		"phases":[{"type":"LoLCF","ms":18446744073709552},{"type":"LLCO","ms":400}]}}],"policies":["xen"]}`, "overflows"},
}

func TestSpecFileDynamicErrorPaths(t *testing.T) {
	checkSpecErrors(t, dynErrorCases)
}

// TestSweepDynamicDeterminism extends the subsystem's core guarantee
// to churn + phased scenarios: bit-identical JSON and CSV artifacts at
// any worker count, adaptation aggregates included.
func TestSweepDynamicDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the dynmix grid twice; skipped in -short")
	}
	spec1, ok := Builtin("dynmix")
	if !ok {
		t.Fatal("dynmix builtin missing")
	}
	spec4, _ := Builtin("dynmix")
	emit := func(spec *Spec, workers int) (string, string) {
		res, err := Exec(spec, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed() != 0 {
			t.Fatalf("%d failed runs at workers=%d", res.Failed(), workers)
		}
		var js, cs bytes.Buffer
		if err := res.WriteJSON(&js); err != nil {
			t.Fatal(err)
		}
		if err := res.WriteCSV(&cs); err != nil {
			t.Fatal(err)
		}
		return js.String(), cs.String()
	}
	j1, c1 := emit(spec1, 1)
	j4, c4 := emit(spec4, 4)
	if j1 != j4 {
		t.Error("dynmix JSON differs between workers=1 and workers=4")
	}
	if c1 != c4 {
		t.Error("dynmix CSV differs between workers=1 and workers=4")
	}
	// The dynamic sweep must actually emit adaptation data for the
	// recognizing policy — as ordinary schema-driven metric rows.
	if !strings.Contains(c1, "adapt_latency_periods") {
		t.Error("adaptation rows missing from dynamic CSV")
	}
	if !strings.Contains(j1, `"adapt_match_frac"`) {
		t.Error("adaptation aggregate missing from dynamic JSON")
	}
}

// TestSpecFileExplicitPhaseProbZero: "phase_prob": 0 must mean "no
// phased VMs", not silently default to 1.
func TestSpecFileExplicitPhaseProbZero(t *testing.T) {
	spec, err := Parse([]byte(`{
		"name": "p0",
		"scenarios": [{"gen": {"vcpus": 4, "mix": {"LoLCF": 1},
			"phases": [{"type": "LoLCF", "ms": 400}, {"type": "LLCO", "ms": 400}],
			"phase_prob": 0}}],
		"policies": ["xen"]}`))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range spec.Scenarios[0].New().Apps {
		if len(e.Spec.Phases) > 0 {
			t.Fatalf("VM %s is phased despite phase_prob 0", e.Spec.Name)
		}
	}
	if _, err := Parse([]byte(`{
		"name": "p2",
		"scenarios": [{"gen": {"vcpus": 4, "mix": {"LoLCF": 1},
			"phases": [{"type": "LoLCF", "ms": 400}, {"type": "LLCO", "ms": 400}],
			"phase_prob": 1.5}}],
		"policies": ["xen"]}`)); err == nil {
		t.Error("phase_prob 1.5 accepted")
	}
}

// TestSpecFilePolicyBlocks: the structured {"policy": {...}} spelling
// expands to the same axis point as the string grammar.
func TestSpecFilePolicyBlocks(t *testing.T) {
	const blob = `{
		"scenarios": ["S1"],
		"policies": [
			"xen",
			{"policy": {"name": "fixed", "params": {"q": "5ms"}}},
			{"policy": {"name": "aql", "params": {"window": 8}}},
			{"policy": {"name": "aql"}},
			{"policy": {"name": "edf", "params": {"deadline": "10ms"}}}
		]
	}`
	s, err := Parse([]byte(blob))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, p := range s.Policies {
		names = append(names, p.Name)
	}
	want := []string{"xen-credit", "fixed-5.000ms", "aql-w8", "aql", "edf-10.000ms"}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("policy axis %v, want %v", names, want)
	}
}

// policyBlockErrorCases are malformed policy entries: each fails with an
// error naming the problem, not silently skewing the axis.
var policyBlockErrorCases = []specErrorCase{
	{"missing name", `{"scenarios":["S1"],"policies":[{"policy":{"params":{"q":"5ms"}}}]}`, "name"},
	{"empty block", `{"scenarios":["S1"],"policies":[{}]}`, "policy"},
	{"typo at entry level", `{"scenarios":["S1"],"policies":[{"polcy":{"name":"xen"}}]}`, "polcy"},
	{"typo in block", `{"scenarios":["S1"],"policies":[{"policy":{"name":"xen","prams":{}}}]}`, "prams"},
	{"unknown policy", `{"scenarios":["S1"],"policies":[{"policy":{"name":"frob"}}]}`, "frob"},
	{"unknown param", `{"scenarios":["S1"],"policies":[{"policy":{"name":"aql","params":{"widnow":4}}}]}`, "widnow"},
	{"out of range", `{"scenarios":["S1"],"policies":[{"policy":{"name":"aql","params":{"window":65}}}]}`, "65"},
	{"numeric duration", `{"scenarios":["S1"],"policies":[{"policy":{"name":"fixed","params":{"q":5}}}]}`, "duration"},
	{"missing required", `{"scenarios":["S1"],"policies":[{"policy":{"name":"edf"}}]}`, "deadline"},
	{"args in block name", `{"scenarios":["S1"],"policies":[{"policy":{"name":"fixed:5ms"}}]}`, "params"},
}

func TestSpecFilePolicyBlockErrors(t *testing.T) {
	checkSpecErrors(t, policyBlockErrorCases)
}
