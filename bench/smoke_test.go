package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (e2e, layer map[string]string) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
		Workloads []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	e2e, layer = map[string]string{}, map[string]string{}
	for _, m := range bf.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range bf.PerLayer {
		layer[m.Name] = m.Unit
	}
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if i < len(workloads) && w.Name != workloads[i].name {
			t.Errorf("BENCHMARK.json workload %d is %q, the benchmark's is %q", i, w.Name, workloads[i].name)
		}
	}
	return e2e, layer
}

// TestSmokeEveryWorkload runs every workload in-process at a tiny size,
// untraced and traced, and checks that the summary line carries exactly
// the metrics BENCHMARK.json declares, with their units, and no failure.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	e2e, layer := declared(t)
	for _, def := range workloads {
		for _, trace := range []bool{false, true} {
			want := e2e
			minReps := 1
			if trace {
				want, minReps = layer, 2
			}
			out := t.TempDir()
			e := &env{root: "..", seed: 0xA91, tiny: true, work: filepath.Join(out, "work")}
			res, err := runWorkload(def, e, options{minReps: minReps, trace: trace, out: out})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", def.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.FailedRatio != 0 {
				t.Errorf("%s trace=%v: failed %d of %d: %v", def.name, trace, res.Failed, res.Attempted, res.Errors)
			}
			var buf bytes.Buffer
			report(&buf, res)
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			var line struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
				t.Fatalf("%s: last line is not the JSON summary: %v", def.name, err)
			}
			if !line.Correct || line.Attempted < 1 || line.Failed != 0 {
				t.Errorf("%s trace=%v: summary line %+v", def.name, trace, line)
			}
			for name, unit := range want {
				got, ok := line.Metrics[name]
				if !ok || got.Unit != unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", def.name, trace, name, got, unit)
				}
			}
			if len(line.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json declares %d", def.name, trace, len(line.Metrics), len(want))
			}
			if !trace {
				for name, m := range line.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %g, must be positive", def.name, name, m.Value)
					}
				}
				continue
			}
			sum := 0.0
			for _, b := range cpuBuckets {
				sum += line.Metrics[b+".cpu_share"].Value
			}
			if sum < 0.99 || sum > 1.01 {
				t.Errorf("%s: cpu shares sum to %g", def.name, sum)
			}
			if _, err := os.Stat(filepath.Join(out, "spans.json")); err != nil {
				t.Errorf("%s: %v", def.name, err)
			}
		}
	}
}
