package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/quick.golden from the current simulator output")

// TestGoldenQuickEvaluation pins the whole quick paper evaluation byte
// for byte: every table experiments.All renders at QuickConfig. The
// simulator is deterministic, so any diff means a change altered what
// some experiment computes or how it renders. If that is intended,
// regenerate with:
//
//	go test ./internal/experiments/ -run Golden -update-golden
//
// and justify the new golden in the PR.
func TestGoldenQuickEvaluation(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole quick evaluation; skipped in -short")
	}
	var buf bytes.Buffer
	All(QuickConfig(), &buf)
	got := buf.Bytes()

	path := filepath.Join("testdata", "quick.golden")
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
		t.Errorf("quick evaluation drifted from %s at line %d (%d bytes got, %d want)", path, line, len(got), len(want))
	}
}
