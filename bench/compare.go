package main

import (
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json -compare reads: each
// end-to-end metric's direction and regression bound.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// side is one (workload, metric) on one side of a comparison.
type side struct {
	runs   []float64 // each run's median
	values []float64 // the runs' medians, or one run's repetitions
}

func (s side) stats() (med, q1, q3 float64) {
	q1, q3 = quartiles(s.values)
	return median(s.values), q1, q3
}

// loadResults reads every untraced result.json under dir, keyed by
// workload and metric, in path order.
func loadResults(dir string) (map[string]map[string]side, error) {
	var paths []string
	err := filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && d.Name() == "result.json" {
			paths = append(paths, p)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	out := map[string]map[string]side{}
	reps := map[string]map[string][]float64{}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if r.Trace {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string]side{}
			reps[r.Workload] = map[string][]float64{}
		}
		for name, s := range r.Metrics {
			sd := out[r.Workload][name]
			sd.runs = append(sd.runs, s.Median)
			out[r.Workload][name] = sd
			reps[r.Workload][name] = s.Values
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no untraced result.json under %s", dir)
	}
	// With one run per side, the spread comes from its repetitions.
	for w, metrics := range out {
		for name, sd := range metrics {
			sd.values = sd.runs
			if len(sd.runs) == 1 {
				sd.values = reps[w][name]
			}
			metrics[name] = sd
		}
	}
	return out, nil
}

// verdict compares side b (the change) with side a (the parent) for a
// metric where lower is better when lowerBetter. Following the
// choosing-metrics method: a spread wider than the bound leaves the
// metric unresolved unless every value of b beats every value of a; a
// gain needs nine tenths of the pairs won and a median difference
// beyond a's own quartile spread.
func verdict(a, b side, lowerBetter bool, bound float64) (string, int, int) {
	better := func(x, y float64) bool { // x better than y
		if lowerBetter {
			return x < y
		}
		return x > y
	}
	won, pairs := 0, min(len(a.runs), len(b.runs))
	for i := 0; i < pairs; i++ {
		if better(b.runs[i], a.runs[i]) {
			won++
		}
	}
	allBetter := true
	for _, x := range b.values {
		for _, y := range a.values {
			if !better(x, y) {
				allBetter = false
			}
		}
	}
	medA, q1A, q3A := a.stats()
	medB, q1B, q3B := b.stats()
	spread := max((q3A-q1A)/medA, (q3B-q1B)/medB)
	worse := (medB - medA) / medA // relative change, positive = worse
	if !lowerBetter {
		worse = -worse
	}
	switch {
	case allBetter && len(a.values) > 1:
		return "better", won, pairs
	case spread > bound:
		return "unresolved", won, pairs
	case worse > bound:
		return "worse", won, pairs
	case -worse > (q3A-q1A)/medA && pairs > 0 && float64(won) >= 0.9*float64(pairs):
		return "better", won, pairs
	}
	return "within-bound", won, pairs
}

func compareDirs(dirA, dirB, benchJSON string, stdout, stderr io.Writer) int {
	data, err := os.ReadFile(benchJSON)
	if err != nil {
		fmt.Fprintf(stderr, "bench: -compare needs the bounds in %s: %v\n", benchJSON, err)
		return 2
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", benchJSON, err)
		return 2
	}
	a, err := loadResults(dirA)
	if err == nil {
		var b map[string]map[string]side
		if b, err = loadResults(dirB); err == nil {
			printComparison(stdout, bf, a, b)
			return 0
		}
	}
	fmt.Fprintf(stderr, "bench: %v\n", err)
	return 2
}

func printComparison(w io.Writer, bf benchmarkFile, a, b map[string]map[string]side) {
	fmt.Fprintf(w, "%-13s %-21s %-6s %31s %31s %6s %7s  %s\n",
		"workload", "metric", "unit", "A median [q1 q3]", "B median [q1 q3]", "pairs", "bound", "verdict")
	for _, wl := range workloads {
		ma, mb := a[wl.name], b[wl.name]
		if ma == nil || mb == nil {
			continue
		}
		for _, m := range bf.EndToEnd {
			sa, okA := ma[m.Name]
			sb, okB := mb[m.Name]
			if !okA || !okB {
				continue
			}
			v, won, pairs := verdict(sa, sb, m.Better == "lower", m.Bound)
			medA, q1A, q3A := sa.stats()
			medB, q1B, q3B := sb.stats()
			fmt.Fprintf(w, "%-13s %-21s %-6s %11.5g [%8.5g %8.5g] %11.5g [%8.5g %8.5g] %3d/%-2d %6.0f%%  %s\n",
				wl.name, m.Name, m.Unit, medA, q1A, q3A, medB, q1B, q3B, won, pairs, m.Bound*100, v)
		}
	}
}
