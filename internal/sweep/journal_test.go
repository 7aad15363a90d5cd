package sweep

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func journalSpec(t *testing.T) *Spec {
	t.Helper()
	spec, err := Parse([]byte(fleetSpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func render(t *testing.T, res *Result) (string, string) {
	t.Helper()
	var j, c bytes.Buffer
	if err := res.WriteJSON(&j); err != nil {
		t.Fatal(err)
	}
	if err := res.WriteCSV(&c); err != nil {
		t.Fatal(err)
	}
	return j.String(), c.String()
}

// TestJournalResumeByteIdentical is the crash-safety contract end to
// end (in-process): execute with a journal, then re-execute resuming
// from it — every run restores instead of re-executing, and the
// artifacts are byte-identical to the uninterrupted ones.
func TestJournalResumeByteIdentical(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "quick.journal")
	spec := journalSpec(t)
	fp := fingerprint([]byte(fleetSpecJSON))
	j1, err := CreateJournal(dir, Manifest{Name: spec.Name, Fingerprint: fp, Runs: len(spec.Runs())})
	if err != nil {
		t.Fatal(err)
	}
	res1, err := Exec(spec, Options{Workers: 2, Journal: j1})
	if err != nil {
		t.Fatal(err)
	}
	json1, csv1 := render(t, res1)

	// Simulate a crash that lost some progress: delete one checkpoint.
	if err := os.Remove(filepath.Join(dir, "run-00001.json")); err != nil {
		t.Fatal(err)
	}

	j2, m, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if m.Fingerprint != fp {
		t.Fatalf("manifest fingerprint %q, want %q", m.Fingerprint, fp)
	}
	want := len(spec.Runs()) - 1
	if j2.RestoredCount() != want {
		t.Fatalf("restored %d runs, want %d", j2.RestoredCount(), want)
	}
	var progress bytes.Buffer
	res2, err := Exec(journalSpec(t), Options{Workers: 2, Journal: j2, Progress: &progress})
	if err != nil {
		t.Fatal(err)
	}
	json2, csv2 := render(t, res2)
	if json1 != json2 {
		t.Error("resumed JSON artifact differs from the uninterrupted one")
	}
	if csv1 != csv2 {
		t.Error("resumed CSV artifact differs from the uninterrupted one")
	}
	if n := strings.Count(progress.String(), "skipped (journaled)"); n != want {
		t.Errorf("progress reports %d skipped runs, want %d:\n%s", n, want, progress.String())
	}
}

// TestJournalWriteFailureFailsRun: a run whose checkpoint could not be
// written fails with an error naming the journal checkpoint, so neither
// the progress output nor the daemon counts it as journaled.
func TestJournalWriteFailureFailsRun(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "j")
	spec := journalSpec(t)
	jl, err := CreateJournal(dir, Manifest{Name: spec.Name, Fingerprint: fingerprint([]byte(fleetSpecJSON)), Runs: len(spec.Runs())})
	if err != nil {
		t.Fatal(err)
	}
	// Replace the journal directory with a regular file: every
	// checkpoint write now fails.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := Exec(spec, Options{Workers: 2, Journal: jl})
	if err != nil {
		t.Fatal(err)
	}
	for _, rr := range res.Runs {
		if rr.Err == nil || !strings.Contains(rr.Err.Error(), "journal") {
			t.Errorf("run %d: Err = %v, want a journal checkpoint error", rr.Index, rr.Err)
		}
	}
}

// TestManifestSpecBytesRoundTrip: the fingerprint covers the exact
// spec-file bytes, so the manifest's own write/read cycle must hand
// them back unchanged — indentation, trailing newline and all.
func TestManifestSpecBytesRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "j")
	src := "{\n\t\"oddly\": \"formatted\"\n}\n"
	if _, err := CreateJournal(dir, Manifest{Name: "rt", Fingerprint: fingerprint([]byte(src)), SpecJSON: src, Runs: 1}); err != nil {
		t.Fatal(err)
	}
	_, m, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if m.SpecJSON != src {
		t.Errorf("spec bytes mangled by the manifest round trip:\nwrote %q\nread  %q", src, m.SpecJSON)
	}
	if fingerprint([]byte(m.SpecJSON)) != m.Fingerprint {
		t.Error("fingerprint no longer matches the restored spec bytes")
	}
}

// TestManifestRebuildRejectsHugeMatrix: a manifest whose seed override
// pushes the run matrix past the cap fails Rebuild with an error, not
// with a panic while the matrix is expanded.
func TestManifestRebuildRejectsHugeMatrix(t *testing.T) {
	m := Manifest{Builtin: "bench", Seeds: 1 << 40}
	if _, err := m.Rebuild(); err == nil || !strings.Contains(err.Error(), "sanity cap") {
		t.Fatalf("Rebuild of a %d-seed manifest: err = %v, want the run cap", m.Seeds, err)
	}
}

func TestJournalRejectsForeignSpec(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "j")
	if _, err := CreateJournal(dir, Manifest{Name: "a", Fingerprint: fingerprint([]byte("spec-a")), Runs: 4}); err != nil {
		t.Fatal(err)
	}
	_, err := CreateJournal(dir, Manifest{Name: "b", Fingerprint: fingerprint([]byte("spec-b")), Runs: 4})
	if err == nil || !strings.Contains(err.Error(), "belongs to another spec") {
		t.Fatalf("journal reuse across specs not rejected: %v", err)
	}
}

// TestJournalSkipsCorruptCheckpoint: a mangled run file must not wedge
// a resume — the run simply re-executes.
func TestJournalSkipsCorruptCheckpoint(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "j")
	spec := journalSpec(t)
	j, err := CreateJournal(dir, Manifest{Name: spec.Name, Fingerprint: "fp", Runs: len(spec.Runs())})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Exec(spec, Options{Journal: j}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "run-00000.json"), []byte("{truncated"), 0o644); err != nil {
		t.Fatal(err)
	}
	// An out-of-range index must be ignored too.
	if err := os.WriteFile(filepath.Join(dir, "run-00099.json"), []byte(`{"index": 99}`), 0o644); err != nil {
		t.Fatal(err)
	}
	j2, _, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(spec.Runs()) - 1; j2.RestoredCount() != want {
		t.Errorf("restored %d runs, want %d (corrupt and out-of-range files skipped)", j2.RestoredCount(), want)
	}
}

// TestRunTimeoutMarksFailed: the watchdog must convert a hung cell into
// a failed run instead of hanging the whole sweep. A 1 ns budget makes
// every real run overrun.
func TestRunTimeoutMarksFailed(t *testing.T) {
	res, err := Exec(journalSpec(t), Options{Workers: 2, RunTimeout: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed() != len(res.Runs) {
		t.Fatalf("%d of %d runs failed, want all (1ns watchdog)", res.Failed(), len(res.Runs))
	}
	for _, rr := range res.Runs {
		if rr.Err == nil || !strings.Contains(rr.Err.Error(), "timed out after") {
			t.Fatalf("run %s/%s: err = %v, want watchdog timeout", rr.Scenario, rr.Policy, rr.Err)
		}
	}
}

// TestJournalSkipsFailedRuns: failed runs are retried on resume, so
// Record must not checkpoint them.
func TestJournalSkipsFailedRuns(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "j")
	spec := journalSpec(t)
	j, err := CreateJournal(dir, Manifest{Name: spec.Name, Fingerprint: "fp", Runs: len(spec.Runs())})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Exec(spec, Options{Journal: j, RunTimeout: time.Nanosecond}); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), "run-") {
			t.Errorf("failed run checkpointed as %s", e.Name())
		}
	}
}
