package sweep

import (
	"os"
	"path/filepath"
	"testing"
)

// fuzzSeedSpecs seed FuzzSpecParse after the shipped example specs:
// hostile sizes, non-JSON, and edge spellings of the fleet sub-blocks
// (null and empty objects, fractional and quoted millisecond counts, a
// non-object fault block).
var fuzzSeedSpecs = []string{
	`{"scenarios": [{"gen": {"vcpus": 999999999, "mix": {"IOInt": 1}}}], "policies": ["xen"]}`,
	`{"scenarios": [{"fleet": {"hosts": 1e9, "vcpus": 8, "mix": {"IOInt": 1}}}], "policies": ["xen"]}`,
	`not json at all`,
	faultSpec(`{"recovery": null}`),
	`{"scenarios": [{"fleet": {"hosts": 2, "vcpus": 8, "mix": {"IOInt": 1}, "rebalance": {}}}], "policies": ["xen"]}`,
	faultSpec(`{"crashes": [{"host": 0, "at_ms": 1.5}]}`),
	faultSpec(`{"crashes": [{"host": 0, "at_ms": "10"}]}`),
	faultSpec(`{"crashes": [{"host": 0, "at_ms": 10, "down_ms": null}]}`),
	faultSpec(`{"crashes": [{"host": 0, "at_ms": 9223372036854775807}]}`),
	faultSpec(`5`),
	faultSpec(`[]`),
	faultSpec(`null`),
	`{"scenarios": [{"gen": {"vcpus": 4, "mix": {"LoLCF": 1},
		"churn": {"rate_per_sec": 2, "mean_life_ms": 1.5, "horizon_ms": 800}}}], "policies": ["xen"]}`,
	`{"scenarios": [{"gen": {"vcpus": 4, "mix": {"LoLCF": 1}, "churn": null}}], "policies": ["xen"]}`,
}

// FuzzSpecParse throws arbitrary bytes at the spec-file parser, seeded
// with every shipped example spec. The property under test: Parse never
// panics and never hangs — rejected input gets an error, accepted input
// yields a spec whose grid expands within the validation caps (host
// count, vCPU budgets, churn arrival count, storm event count), so a
// hostile spec file can fail but cannot wedge or OOM the process.
func FuzzSpecParse(f *testing.F) {
	specs, err := filepath.Glob("../../examples/specs/*.json")
	if err != nil || len(specs) == 0 {
		f.Fatalf("no example specs found to seed the corpus: %v", err)
	}
	for _, p := range specs {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, s := range fuzzSeedSpecs {
		f.Add([]byte(s))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := Parse(data)
		if err != nil {
			return
		}
		// Accepted specs must expand and re-validate cleanly: the grid is
		// what Exec would iterate, so expansion itself has to be cheap and
		// panic-free for anything Parse lets through.
		if err := spec.Validate(); err != nil {
			t.Fatalf("Parse accepted a spec that fails Validate: %v", err)
		}
		if len(spec.Runs()) == 0 {
			t.Fatal("accepted spec expands to an empty grid")
		}
	})
}
