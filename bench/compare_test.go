package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestVerdicts(t *testing.T) {
	base := side{runs: []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}}
	base.values = base.runs
	shift := func(f float64) side {
		s := side{}
		for _, v := range base.runs {
			s.runs = append(s.runs, v*f)
		}
		s.values = s.runs
		return s
	}
	noisy := side{runs: []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}}
	noisy.values = noisy.runs
	cases := []struct {
		name        string
		b           side
		lowerBetter bool
		want        string
	}{
		{"same", shift(1), true, "within-bound"},
		{"slightly slower", shift(1.03), true, "within-bound"},
		{"much slower", shift(1.2), true, "worse"},
		{"much faster", shift(0.8), true, "better"},
		{"throughput dropped", shift(0.8), false, "worse"},
		{"too noisy", noisy, true, "unresolved"},
	}
	for _, c := range cases {
		if got, _, _ := verdict(base, c.b, c.lowerBetter, 0.1); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
	// Spread wider than the bound, but every run of b beats every run of
	// a: better, not unresolved.
	wideA := side{runs: []float64{100, 130, 160}}
	wideA.values = wideA.runs
	wideB := side{runs: []float64{50, 60, 70}}
	wideB.values = wideB.runs
	if got, won, pairs := verdict(wideA, wideB, true, 0.1); got != "better" || won != 3 || pairs != 3 {
		t.Errorf("disjoint spreads: %s %d/%d, want better 3/3", got, won, pairs)
	}
}

func TestCompareDirsReadsResultFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(sub string, wall float64) {
		res := &result{Workload: "sweep-grid", Metrics: map[string]summary{
			"wall_s": summarize("s", []float64{wall, wall * 1.01, wall * 0.99}),
		}}
		p := filepath.Join(dir, sub)
		if err := os.MkdirAll(p, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := writeJSON(filepath.Join(p, "result.json"), res); err != nil {
			t.Fatal(err)
		}
	}
	write("a/1", 2.0)
	write("a/2", 2.02)
	write("b/1", 2.5)
	write("b/2", 2.52)
	bj := filepath.Join(dir, "BENCHMARK.json")
	os.WriteFile(bj, []byte(`{"end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1}]}`), 0o644)
	var out, errb bytes.Buffer
	if code := compareDirs(filepath.Join(dir, "a"), filepath.Join(dir, "b"), bj, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "sweep-grid") || !strings.Contains(out.String(), "worse") {
		t.Errorf("comparison output lacks the worse row:\n%s", out.String())
	}
}
