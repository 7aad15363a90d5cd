package sweep

import (
	"bytes"
	"strings"
	"testing"
)

// fleetSpecJSON is a small but complete fleet block: multi-placement,
// multi-tenant, churn and rebalancing — big enough to migrate, small
// enough for the determinism test to run the grid twice.
const fleetSpecJSON = `{
	"name": "fleet-quick",
	"scenarios": [
		{"fleet": {
			"name": "dc",
			"hosts": 4,
			"oversub": 2,
			"placement": ["least-loaded", "bin-pack"],
			"tenants": {"alpha": 2, "beta": 1},
			"vcpus": 48,
			"mix": {"IOInt": 0.3, "ConSpin": 0.3, "LLCF": 0.4},
			"churn": {"rate_per_sec": 25, "mean_life_ms": 120, "min_life_ms": 40, "horizon_ms": 260},
			"rebalance": {"every_ms": 40, "threshold": 0.08, "migration_ms": 15, "max_per_tick": 4}
		}}
	],
	"policies": ["xen"],
	"seeds": 2,
	"warmup_ms": 80,
	"measure_ms": 220
}`

func TestSpecFileFleetBlock(t *testing.T) {
	s, err := Parse([]byte(fleetSpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Scenarios) != 2 {
		t.Fatalf("placement expansion produced %d scenarios, want 2", len(s.Scenarios))
	}
	wantNames := []string{"dc+least-loaded", "dc+bin-pack"}
	for i, sc := range s.Scenarios {
		if sc.Name != wantNames[i] {
			t.Errorf("scenario %d named %q, want %q", i, sc.Name, wantNames[i])
		}
		if sc.NewFleet == nil || sc.New != nil {
			t.Fatalf("scenario %q: want a fleet constructor only", sc.Name)
		}
		fs := sc.NewFleet()
		if fs.Placement != strings.TrimPrefix(sc.Name, "dc+") {
			t.Errorf("scenario %q builds placement %q", sc.Name, fs.Placement)
		}
		if fs.Hosts != 4 || fs.VCPUs != 48 {
			t.Errorf("scenario %q: hosts=%d vcpus=%d, want 4/48", sc.Name, fs.Hosts, fs.VCPUs)
		}
		// Tenant order is sorted by name for determinism.
		if fs.Tenants[0].Name != "alpha" || fs.Tenants[1].Name != "beta" {
			t.Errorf("tenant order %v, want alpha then beta", fs.Tenants)
		}
		// Constructors must return independent copies.
		if sc.NewFleet() == fs {
			t.Error("NewFleet returned a shared spec pointer")
		}
	}
}

// fleetErrorCases are malformed fleet blocks.
var fleetErrorCases = []specErrorCase{
	{
		"zero hosts",
		`{"scenarios": [{"fleet": {"hosts": 0, "vcpus": 8, "mix": {"IOInt": 1}}}], "policies": ["xen"]}`,
		"at least one host",
	},
	{
		"unknown placement",
		`{"scenarios": [{"fleet": {"hosts": 2, "vcpus": 8, "placement": "round-robin", "mix": {"IOInt": 1}}}], "policies": ["xen"]}`,
		"unknown placement",
	},
	{
		"insane tenant weight",
		`{"scenarios": [{"fleet": {"hosts": 2, "vcpus": 8, "tenants": {"a": -3}, "mix": {"IOInt": 1}}}], "policies": ["xen"]}`,
		"must be positive",
	},
	{
		"missing population",
		`{"scenarios": [{"fleet": {"hosts": 2, "mix": {"IOInt": 1}}}], "policies": ["xen"]}`,
		"vCPU budget",
	},
	{
		"unknown mix type",
		`{"scenarios": [{"fleet": {"hosts": 2, "vcpus": 8, "mix": {"TurboBoost": 1}}}], "policies": ["xen"]}`,
		"unknown",
	},
	{
		"fleet plus name",
		`{"scenarios": [{"name": "S1", "fleet": {"hosts": 2, "vcpus": 8, "mix": {"IOInt": 1}}}], "policies": ["xen"]}`,
		"combines a fleet block",
	},
	{
		"fleet plus gen",
		`{"scenarios": [{"gen": {"vcpus": 8, "mix": {"IOInt": 1}}, "fleet": {"hosts": 2, "vcpus": 8, "mix": {"IOInt": 1}}}], "policies": ["xen"]}`,
		"combines a fleet block",
	},
	{
		"unknown fleet key",
		`{"scenarios": [{"fleet": {"hosts": 2, "vcpus": 8, "mix": {"IOInt": 1}, "hypervisor": "kvm"}}], "policies": ["xen"]}`,
		"hypervisor",
	},
	{
		// Execution tuning lives in Options.FleetWorkers, never in the
		// spec: the old {"workers": N} hint is an unknown key now.
		"workers hint key",
		`{"scenarios": [{"fleet": {"hosts": 2, "vcpus": 8, "mix": {"IOInt": 1}, "workers": 3}}], "policies": ["xen"]}`,
		"workers",
	},
	{
		"overflowing every_ms",
		`{"scenarios": [{"fleet": {"hosts": 2, "vcpus": 8, "mix": {"IOInt": 1}, "rebalance": {"every_ms": 18446744073709552}}}], "policies": ["xen"]}`,
		"overflows",
	},
}

func TestSpecFileFleetErrorPaths(t *testing.T) {
	checkSpecErrors(t, fleetErrorCases)
}

// TestFleetSweepDeterminism: fleet sweep artifacts must be byte-
// identical at any worker count — the cross-host event merge is ordered
// by (time, sequence), never by goroutine scheduling.
func TestFleetSweepDeterminism(t *testing.T) {
	artifacts := func(workers int) (string, string) {
		spec, err := Parse([]byte(fleetSpecJSON))
		if err != nil {
			t.Fatal(err)
		}
		res, err := Exec(spec, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed() > 0 {
			for _, rr := range res.Runs {
				if rr.Err != nil {
					t.Fatalf("run %s/%s failed: %v", rr.Scenario, rr.Policy, rr.Err)
				}
			}
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
	j1, c1 := artifacts(1)
	j4, c4 := artifacts(4)
	if j1 != j4 {
		t.Error("JSON artifacts differ between -workers 1 and 4")
	}
	if c1 != c4 {
		t.Error("CSV artifacts differ between -workers 1 and 4")
	}
	if !strings.Contains(j1, "fleet_migrations") || !strings.Contains(j1, "fleet_tenant_jain") {
		t.Error("fleet metrics missing from the JSON artifact")
	}
	if !strings.Contains(c1, "tenant:alpha") {
		t.Error("per-tenant rows missing from the CSV artifact")
	}
}
