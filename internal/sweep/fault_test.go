package sweep

import (
	"bytes"
	"strings"
	"testing"
)

// faultSpecJSON is fleetSpecJSON under fire: a crash storm, a degrade
// storm, flaky migrations and a bounded-retry recovery policy. Small
// enough to execute twice in the determinism test.
const faultSpecJSON = `{
	"name": "fault-quick",
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
			"rebalance": {"every_ms": 40, "threshold": 0.08, "migration_ms": 15, "max_per_tick": 4},
			"faults": {
				"crashes": [{"host": 0, "at_ms": 120, "down_ms": 60}],
				"crash_storm": {"rate_per_sec": 8, "start_ms": 90, "horizon_ms": 280, "mean_down_ms": 50},
				"degrade_storm": {"rate_per_sec": 6, "horizon_ms": 280, "mean_down_ms": 70, "factor": 0.5},
				"migration_fail_prob": 0.25,
				"recovery": {"max_retries": 4, "retry_delay_ms": 8, "backoff": 2, "on_exhaust": "requeue"}
			}
		}}
	],
	"policies": ["xen"],
	"seeds": 2,
	"warmup_ms": 80,
	"measure_ms": 220
}`

// TestFaultSweepDeterminism: failure injection must not cost the
// worker-count determinism guarantee — fault timelines are seeded and
// merged into the same (time, sequence) event order as everything else.
func TestFaultSweepDeterminism(t *testing.T) {
	artifacts := func(workers int) (string, string) {
		spec, err := Parse([]byte(faultSpecJSON))
		if err != nil {
			t.Fatal(err)
		}
		res, err := Exec(spec, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for _, rr := range res.Runs {
			if rr.Err != nil {
				t.Fatalf("run %s/%s failed: %v", rr.Scenario, rr.Policy, rr.Err)
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
		t.Error("JSON artifacts differ between -workers 1 and 4 under failure injection")
	}
	if c1 != c4 {
		t.Error("CSV artifacts differ between -workers 1 and 4 under failure injection")
	}
	for _, m := range []string{"fleet_faults_injected", "fleet_vms_replaced", "fleet_downtime_vm_seconds"} {
		if !strings.Contains(j1, m) {
			t.Errorf("fault metric %s missing from the JSON artifact", m)
		}
	}
}

// faultSpec wraps a "faults" block value in a minimal fleet spec.
func faultSpec(faults string) string {
	return `{"scenarios": [{"fleet": {"hosts": 2, "vcpus": 8, "mix": {"IOInt": 1},
		"faults": ` + faults + `}}], "policies": ["xen"]}`
}

// faultErrorCases are malformed fault blocks.
var faultErrorCases = []specErrorCase{
	{"crash out of range", faultSpec(`{"crashes": [{"host": 7, "at_ms": 1}]}`), "targets host 7"},
	{"bad factor", faultSpec(`{"degrades": [{"host": 0, "for_ms": 5, "factor": 2}]}`), "must be in (0, 1]"},
	{"bad probability", faultSpec(`{"migration_fail_prob": 2}`), "must be in [0, 1]"},
	{"bad exhaust policy", faultSpec(`{"recovery": {"on_exhaust": "panic"}}`), "on-exhaust"},
	{"unknown key", faultSpec(`{"chaos_monkey": true}`), "chaos_monkey"},
}

func TestSpecFileFaultErrorPaths(t *testing.T) {
	checkSpecErrors(t, faultErrorCases)
}
