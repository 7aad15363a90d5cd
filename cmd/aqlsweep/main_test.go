package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// specJSON is a tiny fleet sweep (2 placements x 2 seeds = 4 runs),
// fast enough to execute for real in the success case.
const specJSON = `{
	"name": "exitcode-quick",
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

func buildBinary(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "aqlsweep")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("building aqlsweep: %v\n%s", err, out)
	}
	return bin
}

func writeSpec(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, []byte(specJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func exitCode(t *testing.T, bin string, args ...string) (int, string) {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err == nil {
		return 0, string(out)
	}
	if ee, ok := err.(*exec.ExitError); ok {
		return ee.ExitCode(), string(out)
	}
	t.Fatalf("running aqlsweep: %v\n%s", err, out)
	return -1, ""
}

// TestExitCodeOnFailedCells is the regression test for the failure
// contract: a sweep with FAILED cells exits non-zero so CI pipelines
// cannot silently pass over empty artifacts, and -allow-failed is the
// explicit escape hatch.
func TestExitCodeOnFailedCells(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary")
	}
	bin := buildBinary(t)
	spec := writeSpec(t)

	// -run-timeout 1ns makes the watchdog fail every run instantly:
	// every cell is FAILED.
	code, out := exitCode(t, bin, "-q", "-spec", spec, "-run-timeout", "1ns")
	if code != 1 {
		t.Fatalf("aqlsweep with all cells FAILED exited %d, want 1\n%s", code, out)
	}

	code, out = exitCode(t, bin, "-q", "-spec", spec, "-run-timeout", "1ns", "-allow-failed")
	if code != 0 {
		t.Fatalf("aqlsweep -allow-failed exited %d, want 0\n%s", code, out)
	}

	// A clean sweep still exits 0 without the escape hatch.
	code, out = exitCode(t, bin, "-q", "-spec", spec)
	if code != 0 {
		t.Fatalf("clean sweep exited %d, want 0\n%s", code, out)
	}
}

// TestRunMatrixCap: a -seeds override that pushes the run matrix past
// the sanity cap is a usage error (exit 2) reported before the matrix is
// expanded, not an allocation panic.
func TestRunMatrixCap(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary")
	}
	bin := buildBinary(t)
	code, out := exitCode(t, bin, "-q", "-spec", "bench", "-seeds", "1099511627776")
	if code != 2 || !strings.Contains(out, "sanity cap") || strings.Contains(out, "panic:") {
		t.Fatalf("aqlsweep -seeds 1099511627776 exited %d, want 2 with the cap message and no panic\n%s", code, out)
	}
}
