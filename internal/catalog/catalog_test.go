package catalog

import (
	"reflect"
	"strings"
	"testing"

	"aqlsched/internal/scenario"
	"aqlsched/internal/sim"
)

func TestRegistryRoundTrip(t *testing.T) {
	r := NewRegistry[int]("widget")
	r.Register("a", 1)
	r.Register("b", 2)
	if v, err := r.Lookup("a"); err != nil || v != 1 {
		t.Errorf("Lookup(a) = %d, %v", v, err)
	}
	if !r.Has("b") || r.Has("c") {
		t.Error("Has is wrong")
	}
	if got := r.Names(); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Errorf("Names = %v", got)
	}
	if _, err := r.Lookup("c"); err == nil || !strings.Contains(err.Error(), "widget") {
		t.Errorf("miss error = %v", err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("duplicate Register did not panic")
			}
		}()
		r.Register("a", 3)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("empty-name Register did not panic")
			}
		}()
		r.Register("", 3)
	}()
}

// TestPaperScenariosRegistered: the catalog resolves every paper
// scenario to exactly what the scenario package constructs directly.
func TestPaperScenariosRegistered(t *testing.T) {
	for _, name := range []string{"S1", "S2", "S3", "S4", "S5"} {
		newSpec, err := Scenarios.Lookup(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := newSpec()
		want := scenario.ScenarioByName(name, 0)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: catalog spec differs from scenario.ScenarioByName", name)
		}
	}
	fs, err := Scenarios.Lookup("four-socket")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fs(), scenario.FourSocket(0); !reflect.DeepEqual(got, want) {
		t.Error("four-socket: catalog spec differs from scenario.FourSocket")
	}
	if _, err := Scenarios.Lookup("S9"); err == nil {
		t.Error("unknown scenario resolved")
	}
}

func TestWorkloadsRegistered(t *testing.T) {
	names := Workloads.Names()
	if len(names) < 20 {
		t.Fatalf("only %d workloads registered: %v", len(names), names)
	}
	s, err := WorkloadByName("bzip2")
	if err != nil || s.Name != "bzip2" {
		t.Fatalf("WorkloadByName(bzip2) = %+v, %v", s, err)
	}
	if _, err := WorkloadByName("quake3"); err == nil {
		t.Error("unknown workload resolved")
	}
}

func TestPolicyGrammar(t *testing.T) {
	for name, want := range map[string]string{
		"xen":              "xen-credit",
		"xen-credit":       "xen-credit",
		"aql":              "aql",
		"vturbo":           "vturbo",
		"vslicer":          "vslicer",
		"microsliced":      "microsliced",
		"fixed:10ms":       "fixed-10.000ms",
		"aql-nocustom:1ms": "",
	} {
		p, err := PolicyByName(name)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if want != "" && p.Name != want {
			t.Errorf("%s resolved to %q, want %q", name, p.Name, want)
		}
		if p.New == nil || p.New() == nil {
			t.Errorf("%s: no constructor", name)
		}
	}
	for _, bad := range []string{"", "frob", "fixed:", "fixed:-3ms", "fixed:zebra", "aql-nocustom:0"} {
		if _, err := PolicyByName(bad); err == nil {
			t.Errorf("bad policy %q resolved", bad)
		}
	}
	grammar := PolicyGrammar()
	joined := strings.Join(grammar, " ")
	for _, want := range []string{"xen", "aql", "fixed:<duration>", "aql-nocustom:<duration>"} {
		if !strings.Contains(joined, want) {
			t.Errorf("grammar %v missing %q", grammar, want)
		}
	}
}

// TestPolicyInstancesAreFresh: each New() must build independent state
// (the AQL controller slot) so concurrent sweep runs never share it.
func TestPolicyInstancesAreFresh(t *testing.T) {
	p, err := PolicyByName("aql")
	if err != nil {
		t.Fatal(err)
	}
	a, b := p.New(), p.New()
	if a == b {
		t.Error("aql policy instances are shared")
	}
}

func TestTopologiesExposed(t *testing.T) {
	names := Topologies.Names()
	joined := strings.Join(names, " ")
	if !strings.Contains(joined, "i7-3770") || !strings.Contains(joined, "xeon-e5-4603") {
		t.Fatalf("paper machines missing from catalog: %v", names)
	}
	topo, err := TopologyByName("xeon-e5-4603")
	if err != nil || topo.Sockets != 4 {
		t.Errorf("TopologyByName(xeon-e5-4603) = %+v, %v", topo, err)
	}
}

func TestParseQuantum(t *testing.T) {
	q, err := ParseQuantum("10ms")
	if err != nil || q != 10*sim.Millisecond {
		t.Errorf("ParseQuantum(10ms) = %v, %v", q, err)
	}
	for _, bad := range []string{"", "-3ms", "0", "zebra"} {
		if _, err := ParseQuantum(bad); err == nil {
			t.Errorf("ParseQuantum(%q) accepted", bad)
		}
	}
}

func TestAQLWindowPolicyGrammar(t *testing.T) {
	p, err := PolicyByName("aql-w:2")
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "aql-w2" {
		t.Errorf("policy name %q, want aql-w2", p.Name)
	}
	if p.New() == nil {
		t.Error("nil policy instance")
	}
	for _, bad := range []string{"aql-w:", "aql-w:0", "aql-w:-3", "aql-w:x", "aql-w:999"} {
		if _, err := PolicyByName(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}

func TestDynphaseScenarioRegistered(t *testing.T) {
	newSpec, err := Scenarios.Lookup("dynphase")
	if err != nil {
		t.Fatal(err)
	}
	spec := newSpec()
	if !spec.Dynamic() {
		t.Error("dynphase catalog entry is not dynamic")
	}
	// Fresh state per lookup: two constructions must not share slices.
	other := newSpec()
	if &spec.Apps[0] == &other.Apps[0] {
		t.Error("dynphase constructions share app state")
	}
}

func TestMetricCatalog(t *testing.T) {
	descs := MetricDescs()
	if len(descs) == 0 {
		t.Fatal("metric registry empty — importing the catalog must load the scenario registrations")
	}
	seen := map[string]bool{}
	for _, d := range descs {
		seen[d.Name] = true
	}
	for _, want := range []string{
		"latency_mean", "time_per_job", "latency_p95", "fairness_jain",
		"pool_migrations", "adapt_latency_periods",
	} {
		if !seen[want] {
			t.Errorf("metric %q missing from the catalog", want)
		}
	}
	d, err := MetricByName("latency_mean")
	if err != nil || !d.Primary {
		t.Errorf("latency_mean lookup: %+v, %v", d, err)
	}
	if _, err := MetricByName("nope"); err == nil {
		t.Error("unknown metric resolved")
	}
}
