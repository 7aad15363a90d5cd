package sweep

import (
	"bytes"
	"testing"
)

// TestFleetWorkersDeterminism: intra-run sharding, alone and nested
// under sweep-level parallelism, must leave every artifact byte
// untouched — the faultSpecJSON grid exercises crashes, storms, flaky
// migrations and recovery retries through the epoch loop, with one
// shard worker as the reference.
func TestFleetWorkersDeterminism(t *testing.T) {
	artifacts := func(opts Options) (string, string) {
		spec, err := Parse([]byte(faultSpecJSON))
		if err != nil {
			t.Fatal(err)
		}
		res, err := Exec(spec, opts)
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

	jOne, cOne := artifacts(Options{Workers: 1, FleetWorkers: 1})
	cases := []struct {
		name string
		opts Options
	}{
		{"fleet-workers=4", Options{Workers: 1, FleetWorkers: 4}},
		{"nested workers=4 fleet-workers=4", Options{Workers: 4, FleetWorkers: 4}},
	}
	for _, c := range cases {
		j, cs := artifacts(c.opts)
		if j != jOne {
			t.Errorf("%s: JSON artifact differs from the one-worker run", c.name)
		}
		if cs != cOne {
			t.Errorf("%s: CSV artifact differs from the one-worker run", c.name)
		}
	}
}
