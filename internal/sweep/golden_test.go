package sweep

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata golden artifacts from the current simulator output")

// TestGoldenBenchArtifacts executes the built-in "bench" sweep and
// compares its JSON and CSV artifacts byte for byte against committed
// golden files. The simulator is fully deterministic, so any diff means
// an optimization or refactor changed simulation results — exactly the
// silent drift this test exists to catch. If a change is *meant* to
// alter results, regenerate with:
//
//	go test ./internal/sweep/ -run Golden -update-golden
//
// and justify the new goldens in the PR.
func TestGoldenBenchArtifacts(t *testing.T) {
	if testing.Short() {
		t.Skip("bench sweep is ~100ms per worker; skipped in -short")
	}
	var jsonBuf, csvBuf bytes.Buffer
	writeBuiltinArtifacts(t, "bench", Options{}, &jsonBuf, &csvBuf)
	checkGolden(t, "bench.golden.json", jsonBuf.Bytes())
	checkGolden(t, "bench.golden.csv", csvBuf.Bytes())
}

// TestGoldenFleetArtifacts pins the fleet layer the same way: the JSON
// and CSV artifacts of the "fleet" and "faultfleet" builtins, written
// one after the other into fleet.golden.json and fleet.golden.csv.
// Between them they drive the central timeline through arrivals, churn,
// rebalancing, live migration, crashes, degradations and recovery
// retries, so a change to event order or to the population draws shows
// up here as a byte diff. It runs at one and at three shard workers
// against the same golden, so the file pins the epoch loop at a fixed
// worker count whatever GOMAXPROCS the machine has.
func TestGoldenFleetArtifacts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the 100-host fleet; skipped in -short")
	}
	for _, fw := range []int{1, 3} {
		t.Run(fmt.Sprintf("fleet-workers=%d", fw), func(t *testing.T) {
			var jsonBuf, csvBuf bytes.Buffer
			for _, name := range []string{"fleet", "faultfleet"} {
				writeBuiltinArtifacts(t, name, Options{FleetWorkers: fw}, &jsonBuf, &csvBuf)
			}
			checkGolden(t, "fleet.golden.json", jsonBuf.Bytes())
			checkGolden(t, "fleet.golden.csv", csvBuf.Bytes())
		})
	}
}

// writeBuiltinArtifacts executes the named built-in sweep under opts and
// appends its JSON and CSV artifacts to the two buffers.
func writeBuiltinArtifacts(t *testing.T, name string, opts Options, jsonBuf, csvBuf *bytes.Buffer) {
	t.Helper()
	spec, ok := Builtin(name)
	if !ok {
		t.Fatalf("built-in %s sweep missing", name)
	}
	res, err := Exec(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if f := res.Failed(); f > 0 {
		t.Fatalf("%s: %d of %d runs failed", name, f, len(res.Runs))
	}
	if err := res.WriteJSON(jsonBuf); err != nil {
		t.Fatal(err)
	}
	if err := res.WriteCSV(csvBuf); err != nil {
		t.Fatal(err)
	}
}

// checkGolden compares got with testdata/<name>, or rewrites the file
// under -update-golden.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
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
		t.Errorf("%s drifted from golden (%d bytes got, %d want).\n"+
			"Simulation results changed — if intentional, regenerate with -update-golden and explain in the PR.\n"+
			"First divergence at byte %d.", name, len(got), len(want), firstDiff(got, want))
	}
}

func firstDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
