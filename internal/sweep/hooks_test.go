package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestOnRunCalledPerRun: the per-run completion callback fires exactly
// once per newly executed run, with the run's grid coordinates.
func TestOnRunCalledPerRun(t *testing.T) {
	spec := journalSpec(t)
	seen := map[int]int{}
	res, err := Exec(spec, Options{Workers: 2, OnRun: func(rr *RunResult) {
		seen[rr.Index]++ // serialized by contract: no locking here
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(res.Runs) {
		t.Fatalf("OnRun saw %d distinct runs, want %d", len(seen), len(res.Runs))
	}
	for idx, n := range seen {
		if n != 1 {
			t.Fatalf("OnRun fired %d times for run %d, want 1", n, idx)
		}
	}
}

// TestOnRunSkipsRestored: journal-restored runs are not re-reported.
func TestOnRunSkipsRestored(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "j")
	spec := journalSpec(t)
	m := NewManifest(spec, []byte(fleetSpecJSON), "")
	j, err := CreateJournal(dir, m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Exec(spec, Options{Workers: 2, Journal: j}); err != nil {
		t.Fatal(err)
	}

	j2, _, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if j2.RestoredCount() != len(spec.Runs()) {
		t.Fatalf("restored %d, want %d", j2.RestoredCount(), len(spec.Runs()))
	}
	calls := 0
	if _, err := Exec(journalSpec(t), Options{Workers: 2, Journal: j2, OnRun: func(*RunResult) { calls++ }}); err != nil {
		t.Fatal(err)
	}
	if calls != 0 {
		t.Fatalf("OnRun fired %d times on a fully restored sweep, want 0", calls)
	}
}

// TestContextCancelStopsDispatch: a canceled context stops the sweep
// between runs; completed cells stay journaled so a resume can finish
// the grid.
func TestContextCancelStopsDispatch(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "j")
	spec := journalSpec(t)
	m := NewManifest(spec, []byte(fleetSpecJSON), "")
	j, err := CreateJournal(dir, m)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	executed := 0
	_, err = Exec(spec, Options{Workers: 1, Journal: j, Context: ctx, OnRun: func(*RunResult) {
		executed++
		cancel() // cancel after the first completed run
	}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Exec error = %v, want context.Canceled", err)
	}
	if executed == 0 || executed >= len(spec.Runs()) {
		t.Fatalf("executed %d runs before cancel took effect, want in [1, %d)", executed, len(spec.Runs()))
	}

	// The journal lets a resume complete the grid with byte-identical
	// artifacts (cells are deterministic).
	j2, _, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if j2.RestoredCount() != executed {
		t.Fatalf("journal restored %d runs, want %d", j2.RestoredCount(), executed)
	}
	res, err := Exec(journalSpec(t), Options{Workers: 2, Journal: j2})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Exec(journalSpec(t), Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, gotCSV := render(t, res)
	wantJSON, wantCSV := render(t, ref)
	if gotJSON != wantJSON || gotCSV != wantCSV {
		t.Fatal("resumed-after-cancel artifacts differ from uninterrupted run")
	}
}

// TestContextPreCanceled: an already-canceled context executes nothing.
func TestContextPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	calls := 0
	_, err := Exec(journalSpec(t), Options{Workers: 2, Context: ctx, OnRun: func(*RunResult) { calls++ }})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Exec error = %v, want context.Canceled", err)
	}
	if calls != 0 {
		t.Fatalf("executed %d runs under a pre-canceled context, want 0", calls)
	}
}

// TestManifestRebuildRoundTrip: NewManifest → Rebuild reproduces the
// exact grid, and tampering with the manifest fails the rebuild.
func TestManifestRebuildRoundTrip(t *testing.T) {
	spec := journalSpec(t)
	m := NewManifest(spec, []byte(fleetSpecJSON), "")
	re, err := m.Rebuild()
	if err != nil {
		t.Fatal(err)
	}
	if len(re.Runs()) != len(spec.Runs()) || re.Name != spec.Name {
		t.Fatalf("rebuilt spec differs: %d runs/%q, want %d/%q", len(re.Runs()), re.Name, len(spec.Runs()), spec.Name)
	}

	bad := m
	bad.Seeds = m.Seeds + 1 // override drift must break the fingerprint
	if _, err := bad.Rebuild(); err == nil {
		t.Fatal("Rebuild accepted a manifest with edited overrides")
	}

	empty := Manifest{Runs: 1}
	if _, err := empty.Rebuild(); err == nil {
		t.Fatal("Rebuild accepted a manifest with no spec source")
	}

	// Resolve applies the overrides and snapshots them: the manifest
	// rebuilds the same grid without them.
	bi, bm, err := Resolve(nil, "bench", 1, 7, true)
	if err != nil {
		t.Fatal(err)
	}
	if bi.Seeds != 1 || bi.BaseSeed != 7 || bi.Warmup != QuickWarmup || bi.Measure != QuickMeasure {
		t.Fatalf("Resolve ignored overrides: seeds %d, base %d, windows %v/%v", bi.Seeds, bi.BaseSeed, bi.Warmup, bi.Measure)
	}
	if re, err := bm.Rebuild(); err != nil || !reflect.DeepEqual(re.Runs(), bi.Runs()) {
		t.Fatalf("Rebuild of a resolved built-in: %v", err)
	}
	if _, _, err := Resolve([]byte(fleetSpecJSON), "bench", 0, 0, false); err == nil {
		t.Fatal("Resolve accepted both spec bytes and a built-in name")
	}
}

// TestJournalCheckpointBytes: Checkpoint returns the exact journaled
// line, newline-terminated single-line JSON, with its top-level keys
// in the order journals on disk and result streams already carry: the
// grid coordinates, then apps and per_vm when present, then metrics.
func TestJournalCheckpointBytes(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "j")
	spec := journalSpec(t)
	j, err := CreateJournal(dir, NewManifest(spec, []byte(fleetSpecJSON), ""))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Exec(spec, Options{Workers: 1, Journal: j}); err != nil {
		t.Fatal(err)
	}
	j2, _, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	idxs := j2.RestoredIndexes()
	if len(idxs) != len(spec.Runs()) {
		t.Fatalf("RestoredIndexes = %v, want %d entries", idxs, len(spec.Runs()))
	}
	for i := 1; i < len(idxs); i++ {
		if idxs[i] <= idxs[i-1] {
			t.Fatalf("RestoredIndexes not ascending: %v", idxs)
		}
	}
	line, err := j2.Checkpoint(idxs[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(line) == 0 || line[len(line)-1] != '\n' {
		t.Fatal("checkpoint line is not newline-terminated")
	}
	for _, b := range line[:len(line)-1] {
		if b == '\n' {
			t.Fatal("checkpoint spans multiple lines")
		}
	}

	// The fleet runs above carry apps but no per_vm; the genmix
	// builtin's single-host runs carry both.
	gspec, ok := Builtin("genmix")
	if !ok {
		t.Fatal("built-in genmix sweep missing")
	}
	gdir := filepath.Join(t.TempDir(), "g")
	gj, err := CreateJournal(gdir, NewManifest(gspec, nil, "genmix"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Exec(gspec, Options{Workers: 2, Journal: gj}); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, d := range []string{dir, gdir} {
		jd, _, err := OpenJournal(d)
		if err != nil {
			t.Fatal(err)
		}
		for _, idx := range jd.RestoredIndexes() {
			line, err := jd.Checkpoint(idx)
			if err != nil {
				t.Fatal(err)
			}
			got := topLevelKeys(t, line)
			present := map[string]bool{}
			for _, k := range got {
				present[k] = true
				seen[k] = true
			}
			want := []string{"index", "scenario_idx", "policy_idx", "seed_idx", "scenario", "policy", "seed"}
			for _, k := range []string{"apps", "per_vm"} {
				if present[k] {
					want = append(want, k)
				}
			}
			want = append(want, "metrics")
			if strings.Join(got, ",") != strings.Join(want, ",") {
				t.Fatalf("%s run %d checkpoint keys = %v, want %v", filepath.Base(d), idx, got, want)
			}
		}
	}
	if !seen["apps"] || !seen["per_vm"] {
		t.Fatalf("no checkpoint carried apps and per_vm (saw %v)", seen)
	}
}

// topLevelKeys lists the keys of a JSON object in the order they
// appear in data.
func topLevelKeys(t *testing.T, data []byte) []string {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(data))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		t.Fatalf("checkpoint is not a JSON object: %v %v", tok, err)
	}
	var keys []string
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, tok.(string))
		var skip json.RawMessage
		if err := dec.Decode(&skip); err != nil {
			t.Fatal(err)
		}
	}
	return keys
}
