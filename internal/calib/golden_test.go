package calib

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"aqlsched/internal/sim"
	"aqlsched/internal/vcputype"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/calib.golden from the current simulator output")

// TestGoldenCalibration pins a two-ratio calibration byte for byte:
// every curve point (raw and normalized, printed with %v so the float
// bits show), the lock durations, the derived best-quantum table and
// the agnostic types. The quick evaluation golden calibrates at one
// ratio only; this one also pins how the per-ratio baselines and the
// repeat averages are folded for a second ratio. If a change is meant
// to alter the calibration, regenerate with:
//
//	go test ./internal/calib/ -run Golden -update-golden
//
// and justify the new golden in the PR.
func TestGoldenCalibration(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a two-ratio calibration; skipped in -short")
	}
	rep := Run(Options{PerPCPU: []int{2, 4}, Warmup: 500 * sim.Millisecond, Measure: 2 * sim.Second})

	var buf bytes.Buffer
	for _, c := range rep.Curves {
		fmt.Fprintf(&buf, "curve %q type=%v table=%v\n", c.Case.Label, c.Case.Type, c.Case.UseForTable)
		for _, p := range c.Points {
			fmt.Fprintf(&buf, "  q=%v k=%d norm=%v raw=%v\n", p.Quantum, p.PerPCPU, p.Norm, p.Raw)
		}
	}
	for _, l := range rep.LockDurations {
		fmt.Fprintf(&buf, "lock q=%v mean=%v max=%v\n", l.Quantum, l.MeanHold, l.MaxHold)
	}
	for _, ty := range vcputype.All() {
		if q, ok := rep.Table.Best[ty]; ok {
			fmt.Fprintf(&buf, "best %v=%v\n", ty, q)
		}
	}
	fmt.Fprintf(&buf, "default=%v\nagnostic=%v\n", rep.Table.Default, rep.AgnosticTypes)
	got := buf.Bytes()

	path := filepath.Join("testdata", "calib.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update-golden to create): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		n := 0
		for n < len(got) && n < len(want) && got[n] == want[n] {
			n++
		}
		line := bytes.Count(got[:n], []byte("\n")) + 1
		t.Errorf("calibration drifted from %s at line %d (%d bytes got, %d want)", path, line, len(got), len(want))
	}
}
