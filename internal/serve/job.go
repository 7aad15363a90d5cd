package serve

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"aqlsched/internal/atomicio"
	"aqlsched/internal/sweep"
)

// State is a job's lifecycle state. Transitions:
//
//	queued → running → done | failed | canceled
//	queued → canceled
//	running → queued            (daemon drain/crash: resumed next boot)
type State string

const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Job is the persistent record of one submitted sweep job — everything
// needed to re-run it after a daemon restart. It embeds the sweep
// journal Manifest, so the job's spec identity, grid-shaping overrides
// and fingerprint follow exactly the same crash-safety rules as
// aqlsweep -resume.
type Job struct {
	ID       string  `json:"id"`
	Seq      int     `json:"seq"`
	User     string  `json:"user"`
	Priority int     `json:"priority"`
	Weight   float64 `json:"weight"`
	// DeadlineMS is an advisory completion deadline relative to
	// submission: it orders a user's own queued jobs (earliest absolute
	// deadline first) and sets DeadlineMissed on completion. It never
	// preempts running cells.
	DeadlineMS int64          `json:"deadline_ms,omitempty"`
	Manifest   sweep.Manifest `json:"manifest"`

	State State  `json:"state"`
	Error string `json:"error,omitempty"`
	// FailedRuns counts runs that FAILED inside a completed sweep (the
	// job still reaches "done"; artifacts mark the failures).
	FailedRuns     int   `json:"failed_runs,omitempty"`
	DeadlineMissed bool  `json:"deadline_missed,omitempty"`
	SubmittedUnix  int64 `json:"submitted_unix_ms"`
	StartedUnix    int64 `json:"started_unix_ms,omitempty"`
	FinishedUnix   int64 `json:"finished_unix_ms,omitempty"`
}

// deadlineAt is the absolute advisory deadline in unix ms, or 0.
func (j *Job) deadlineAt() int64 {
	if j.DeadlineMS <= 0 {
		return 0
	}
	return j.SubmittedUnix + j.DeadlineMS
}

// job is the Server's runtime view of a Job: the persistent record
// plus the stream/settlement state rebuilt from the journal. All
// fields below Job are guarded by Server.mu.
type job struct {
	Job
	dir string

	// total is the expanded run-matrix size (Manifest.Runs).
	total int
	// journaled[i] is true once run i has a journal checkpoint;
	// settled[i] once run i finished (checkpointed or FAILED).
	journaled []bool
	settled   []bool
	// frontier is the first unsettled run index: the stream may emit
	// every journaled index below it in ascending order without ever
	// emitting out of order.
	frontier int
	doneRuns int
	failed   int
	// updated is closed and replaced on every observable change — the
	// broadcast channel result streams and pollers wait on.
	updated chan struct{}
	// cancel aborts the running sweep; non-nil only while running.
	cancel func(error)
}

func (j *job) advanceFrontier() {
	for j.frontier < j.total && j.settled[j.frontier] {
		j.frontier++
	}
}

// markRun records one settled run (from the sweep's OnRun callback or
// journal recovery). Reports whether the run was newly journaled.
func (j *job) markRun(idx int, journaled bool) bool {
	if idx < 0 || idx >= j.total || j.settled[idx] {
		return false
	}
	j.settled[idx] = true
	if journaled {
		j.journaled[idx] = true
		j.doneRuns++
	} else {
		j.failed++
	}
	j.advanceFrontier()
	return journaled
}

// jobFile is the job record's on-disk location inside its directory.
const jobFile = "job.json"

// journalDirName is the per-job sweep journal directory.
const journalDirName = "journal"

func (j *job) journalDir() string { return filepath.Join(j.dir, journalDirName) }

// artifactPath is the finished artifact of the given extension
// (".json", ".csv", ".txt"); artifacts are named after the sweep, like
// aqlsweep -out.
func (j *job) artifactPath(ext string) string {
	return filepath.Join(j.dir, j.Manifest.Name+ext)
}

// persist writes the job record atomically. Callers hold Server.mu (or
// own the job exclusively).
func (j *job) persist() error {
	data, err := json.MarshalIndent(&j.Job, "", "  ")
	if err != nil {
		return err
	}
	return atomicio.WriteFile(filepath.Join(j.dir, jobFile), append(data, '\n'), 0o644)
}

func (j *job) broadcast() {
	close(j.updated)
	j.updated = make(chan struct{})
}

// loadJob reads one job directory back into a runtime job, rebuilding
// the stream state from the journal. Unknown or corrupt directories
// return an error and are skipped by recovery (never wedge the boot).
func loadJob(dir string) (*job, error) {
	data, err := os.ReadFile(filepath.Join(dir, jobFile))
	if err != nil {
		return nil, err
	}
	var rec Job
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, fmt.Errorf("%s: %v", filepath.Join(dir, jobFile), err)
	}
	if rec.ID == "" || rec.Manifest.Runs <= 0 {
		return nil, fmt.Errorf("%s: incomplete job record", filepath.Join(dir, jobFile))
	}
	j := newJob(rec, dir)
	idxs, err := sweep.Checkpoints(j.journalDir())
	if err != nil {
		return nil, err
	}
	for _, idx := range idxs {
		j.markRun(idx, true)
	}
	// Settlement of FAILED runs is not persisted (they re-execute on
	// resume); for terminal jobs the stream treats everything as
	// settled anyway.
	return j, nil
}

func newJob(rec Job, dir string) *job {
	return &job{
		Job:       rec,
		dir:       dir,
		total:     rec.Manifest.Runs,
		journaled: make([]bool, rec.Manifest.Runs),
		settled:   make([]bool, rec.Manifest.Runs),
		updated:   make(chan struct{}),
	}
}

// SubmitRequest is the POST /v1/jobs body: the sweep spec (inline
// spec-file JSON, or a built-in name) plus queue attributes and the
// same grid-shaping overrides aqlsweep accepts as flags.
type SubmitRequest struct {
	// User attributes the job for fair-share accounting (required).
	User string `json:"user"`
	// Priority is the job's strict priority class (≥ 0, default 0).
	// Higher classes dispatch first, always — fair share applies only
	// within a class.
	Priority int `json:"priority,omitempty"`
	// Weight is the user's fair-share weight (> 0, default 1; the
	// latest submitted weight wins for the user).
	Weight float64 `json:"weight,omitempty"`
	// DeadlineMS is the advisory completion deadline in ms from
	// submission (see Job.DeadlineMS).
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// Spec is an inline sweep spec file — the exact schema aqlsweep
	// -spec parses. Exactly one of Spec and Builtin must be set.
	Spec json.RawMessage `json:"spec,omitempty"`
	// Builtin names a built-in sweep instead.
	Builtin string `json:"builtin,omitempty"`
	// Seeds, BaseSeed and Quick mirror the aqlsweep flags.
	Seeds    int    `json:"seeds,omitempty"`
	BaseSeed uint64 `json:"base_seed,omitempty"`
	Quick    bool   `json:"quick,omitempty"`
}

func nowUnixMS() int64 { return time.Now().UnixMilli() }
