package serve

import (
	"bytes"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/catalog.golden.json from the current GET /v1/catalog body")

// TestGoldenCatalog pins the GET /v1/catalog body byte for byte: every
// registered scenario, workload, machine, policy plugin with its typed
// knobs, metric and extra axis, in the order and spelling clients
// read. If a change is meant to alter the document, regenerate with:
//
//	go test ./internal/serve/ -run Golden -update-golden
//
// and justify the new golden in the PR.
func TestGoldenCatalog(t *testing.T) {
	rec := httptest.NewRecorder()
	bareServer().Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/catalog", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /v1/catalog returned %d: %s", rec.Code, rec.Body)
	}
	got := rec.Body.Bytes()

	path := filepath.Join("testdata", "catalog.golden.json")
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
		t.Errorf("GET /v1/catalog drifted from %s at line %d (%d bytes got, %d want)", path, line, len(got), len(want))
	}
}
