package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"aqlsched/internal/atomicio"
	"aqlsched/internal/metrics"
	"aqlsched/internal/scenario"
	"aqlsched/internal/sim"
)

// Journal is the crash-safety layer of a sweep: every successfully
// completed run is checkpointed to its own file (written atomically),
// so a sweep killed mid-flight can be resumed with the completed cells
// skipped. Cells are independent and deterministic, which is what makes
// a restored result indistinguishable from a re-executed one — the
// resumed sweep's artifacts are byte-identical to an uninterrupted
// run's.
//
// On disk a journal is a directory:
//
//	manifest.json   identity: sweep name, spec fingerprint, spec source
//	run-00042.json  one checkpointed run (expansion index 42)
type Journal struct {
	dir      string
	restored map[int]RunResult
}

// Manifest identifies the sweep a journal belongs to. The fingerprint
// pins the exact spec (resuming against an edited spec must fail, not
// silently mix grids); the embedded source lets -resume <dir> rebuild
// the sweep without re-supplying the original flags.
type Manifest struct {
	// Name is the sweep name (diagnostic).
	Name string `json:"name"`
	// Fingerprint is the hex SHA-256 of the spec source.
	Fingerprint string `json:"fingerprint"`
	// Builtin names a built-in sweep, or "" when SpecJSON is set.
	Builtin string `json:"builtin,omitempty"`
	// SpecJSON holds the spec-file bytes for file-driven sweeps. It is a
	// string, not a json.RawMessage, on purpose: the fingerprint covers
	// these exact bytes, and embedding them as a JSON string survives the
	// manifest's own indent/parse round trip byte-for-byte, which raw
	// embedding does not.
	SpecJSON string `json:"spec_json,omitempty"`
	// Seeds, BaseSeed, WarmupNS and MeasureNS snapshot the effective
	// overrides applied when the journal was created, so a resume
	// reconstructs the exact same grid without re-supplying the flags.
	Seeds     int    `json:"seeds"`
	BaseSeed  uint64 `json:"base_seed"`
	WarmupNS  int64  `json:"warmup_ns"`
	MeasureNS int64  `json:"measure_ns"`
	// Runs is the expanded matrix size (a sanity check on open).
	Runs int `json:"runs"`
}

// NewManifest snapshots a sweep's identity for a crash-safe journal:
// the spec source (raw file bytes, or a built-in name), plus every
// grid-shaping override already applied to spec. The fingerprint
// covers all of it, so resuming against an edited spec or different
// overrides fails instead of silently mixing grids. Both aqlsweep's
// -out journal and aqlsweepd's per-job journals are created from this.
func NewManifest(spec *Spec, src []byte, builtin string) Manifest {
	ident := append([]byte(nil), src...)
	if builtin != "" {
		ident = []byte("builtin:" + builtin)
	}
	ident = append(ident, fmt.Sprintf("|seeds=%d|base=%d|warmup=%d|measure=%d",
		spec.Seeds, spec.BaseSeed, spec.Warmup, spec.Measure)...)
	return Manifest{
		Name:        spec.Name,
		Fingerprint: fingerprint(ident),
		Builtin:     builtin,
		SpecJSON:    string(src),
		Seeds:       spec.Seeds,
		BaseSeed:    spec.BaseSeed,
		WarmupNS:    int64(spec.Warmup),
		MeasureNS:   int64(spec.Measure),
		Runs:        len(spec.Runs()),
	}
}

// Resolve builds the sweep a source describes, with the grid overrides
// applied, validates it and snapshots its journal manifest. The source
// is spec-file bytes or a built-in name, exactly one of them. seeds > 0
// overrides the seed replications, a non-zero baseSeed the base seed,
// and quick sets the quick windows. aqlsweep and aqlsweepd's submit
// both start a sweep here.
func Resolve(src []byte, builtin string, seeds int, baseSeed uint64, quick bool) (*Spec, Manifest, error) {
	spec, err := load(src, builtin)
	if err != nil {
		return nil, Manifest{}, err
	}
	if seeds > 0 {
		spec.Seeds = seeds
	}
	if baseSeed != 0 {
		spec.BaseSeed = baseSeed
	}
	if quick {
		spec.Warmup = QuickWarmup
		spec.Measure = QuickMeasure
	}
	if err := spec.Validate(); err != nil {
		return nil, Manifest{}, err
	}
	return spec, NewManifest(spec, src, builtin), nil
}

// load parses a sweep source: spec-file bytes or a built-in name,
// exactly one of them. Resolve and Rebuild share it.
func load(src []byte, builtin string) (*Spec, error) {
	switch {
	case len(src) > 0 && builtin != "":
		return nil, fmt.Errorf("sweep: set exactly one of a spec file and a built-in name, not both")
	case len(src) > 0:
		return Parse(src)
	case builtin != "":
		s, ok := Builtin(builtin)
		if !ok {
			return nil, fmt.Errorf("sweep: unknown built-in sweep %q (built-ins: %v)", builtin, BuiltinNames())
		}
		return s, nil
	default:
		return nil, fmt.Errorf("sweep: a spec file or a built-in name is required")
	}
}

// Rebuild reconstructs the exact Spec the manifest was created for —
// the -resume path, also used by aqlsweepd to re-run recovered jobs.
// It re-derives the fingerprint and run count and fails on any
// mismatch (a changed built-in, an edited embedded spec).
func (m *Manifest) Rebuild() (*Spec, error) {
	spec, err := load([]byte(m.SpecJSON), m.Builtin)
	if err != nil {
		return nil, err
	}
	spec.Seeds = m.Seeds
	spec.BaseSeed = m.BaseSeed
	spec.Warmup = sim.Time(m.WarmupNS)
	spec.Measure = sim.Time(m.MeasureNS)
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("sweep: manifest: %v", err)
	}
	if got := NewManifest(spec, []byte(m.SpecJSON), m.Builtin).Fingerprint; got != m.Fingerprint {
		return nil, fmt.Errorf("sweep: manifest fingerprint mismatch (the built-in or binary changed since the journal was written)")
	}
	if got := len(spec.Runs()); got != m.Runs {
		return nil, fmt.Errorf("sweep: manifest expects %d runs, the rebuilt sweep has %d", m.Runs, got)
	}
	return spec, nil
}

// fingerprint hashes raw spec-file bytes.
func fingerprint(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// runRecord is the serialized form of one completed run: the grid
// coordinates plus everything aggregation (and therefore every emitted
// artifact) reads. Policy instances and raw simulation state are
// deliberately not journaled — they are diagnostics of a live run.
type runRecord struct {
	Run
	Apps    []scenario.AppMeasure `json:"apps,omitempty"`
	PerVM   []scenario.AppMeasure `json:"per_vm,omitempty"`
	Metrics metrics.Set           `json:"metrics"`
}

// CreateJournal initializes a journal directory (creating it as needed)
// and writes the manifest. An existing manifest for a different
// fingerprint is an error: one directory belongs to one sweep.
func CreateJournal(dir string, m Manifest) (*Journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	mpath := filepath.Join(dir, "manifest.json")
	if old, err := readManifest(mpath); err == nil {
		if old.Fingerprint != m.Fingerprint {
			return nil, fmt.Errorf("sweep: journal %s belongs to another spec (fingerprint %.12s… != %.12s…)",
				dir, old.Fingerprint, m.Fingerprint)
		}
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("sweep: journal %s: %v", dir, err)
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := atomicio.WriteFile(mpath, append(data, '\n'), 0o644); err != nil {
		return nil, err
	}
	return &Journal{dir: dir, restored: map[int]RunResult{}}, nil
}

// OpenJournal loads an existing journal: the manifest plus every intact
// run checkpoint. A checkpoint that fails to parse is skipped (its run
// simply re-executes) — atomic writes make that near-impossible, but a
// resume must never be wedged by one bad file.
func OpenJournal(dir string) (*Journal, *Manifest, error) {
	m, err := readManifest(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return nil, nil, fmt.Errorf("sweep: journal %s: %v", dir, err)
	}
	j := &Journal{dir: dir, restored: map[int]RunResult{}}
	idxs, err := Checkpoints(dir)
	if err != nil {
		return nil, nil, err
	}
	for _, idx := range idxs {
		data, err := j.Checkpoint(idx)
		if err != nil {
			continue
		}
		var rec runRecord
		if err := json.Unmarshal(data, &rec); err != nil {
			continue
		}
		if rec.Index < 0 || rec.Index >= m.Runs {
			continue
		}
		j.restored[rec.Index] = RunResult{Run: rec.Run, Apps: rec.Apps, PerVM: rec.PerVM, Metrics: rec.Metrics}
	}
	return j, m, nil
}

func readManifest(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, err
	}
	return &m, nil
}

// Restored returns the checkpointed result of run idx, if present.
func (j *Journal) Restored(idx int) (RunResult, bool) {
	rr, ok := j.restored[idx]
	return rr, ok
}

// RestoredCount reports how many runs the journal restored.
func (j *Journal) RestoredCount() int { return len(j.restored) }

// RestoredIndexes returns the expansion indexes the journal restored,
// ascending — aqlsweepd seeds a recovered job's result stream from it.
func (j *Journal) RestoredIndexes() []int {
	out := make([]int, 0, len(j.restored))
	for idx := range j.restored {
		out = append(out, idx)
	}
	sort.Ints(out)
	return out
}

// Checkpoint returns the raw journaled bytes of run idx exactly as
// written: one JSON object on a single line, newline-terminated —
// ready to be emitted verbatim as an NDJSON stream line.
func (j *Journal) Checkpoint(idx int) ([]byte, error) {
	return os.ReadFile(CheckpointPath(j.dir, idx))
}

// CheckpointPath is the journal checkpoint file of run idx inside dir.
// Exposed so aqlsweepd can stream checkpoints of journals it is not
// currently executing (finished or recovered jobs).
func CheckpointPath(dir string, idx int) string {
	return filepath.Join(dir, checkpointName(idx))
}

func checkpointName(idx int) string { return fmt.Sprintf("run-%05d.json", idx) }

// Checkpoints lists the run indexes checkpointed in a journal
// directory, ascending; a missing directory is an empty journal. Only
// files named exactly as CheckpointPath names them count. Checkpoint
// writes are atomic, so presence means a complete record. OpenJournal
// restores from this list, and aqlsweepd rebuilds a job's result
// stream from it.
func Checkpoints(dir string) ([]int, error) {
	ents, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var idxs []int
	for _, e := range ents {
		var idx int
		// The scan accepts signs, and ignores trailing bytes; the round
		// trip through checkpointName rejects both.
		if _, err := fmt.Sscanf(e.Name(), "run-%d.json", &idx); err == nil && idx >= 0 && e.Name() == checkpointName(idx) {
			idxs = append(idxs, idx)
		}
	}
	sort.Ints(idxs)
	return idxs, nil
}

// Record checkpoints one successfully completed run. Failed runs are
// not recorded — a resume retries them. The write is atomic, so a
// process killed here leaves either a complete checkpoint or none.
func (j *Journal) Record(rr *RunResult) error {
	if rr.Err != nil {
		return nil
	}
	data, err := json.Marshal(runRecord{Run: rr.Run, Apps: rr.Apps, PerVM: rr.PerVM, Metrics: rr.Metrics})
	if err != nil {
		return err
	}
	return atomicio.WriteFile(CheckpointPath(j.dir, rr.Index), append(data, '\n'), 0o644)
}
