// Package serve is the sweep-serving layer behind cmd/aqlsweepd: a
// persistent, crash-safe job queue over the sweep engine. Jobs are
// submitted as spec files (the exact schema aqlsweep parses) plus
// queue attributes (user, priority, optional deadline); a bounded
// executor pool runs them through sweep.Exec with a per-job journal,
// so every completed cell is checkpointed atomically and a SIGKILL'd
// daemon resumes cell-by-cell on restart with byte-identical
// artifacts. Dispatch is deficit-weighted per-user fair share
// (internal/fairshare — the same discipline as the fleet's
// tenant-fairshare placement) under strict priority classes.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"aqlsched/internal/atomicio"
	"aqlsched/internal/fairshare"
	"aqlsched/internal/sweep"
)

// Config configures a Server.
type Config struct {
	// DataDir is the persistent root: DataDir/jobs/<id>/ holds each
	// job's record, journal and artifacts; DataDir/queue.json snapshots
	// the queue state.
	DataDir string
	// JobSlots bounds concurrently executing jobs (default 1).
	JobSlots int
	// SweepWorkers is the per-job sweep worker pool (0 = GOMAXPROCS).
	SweepWorkers int
	// FleetWorkers shards fleet runs inside each job (0 = GOMAXPROCS).
	FleetWorkers int
	// RunTimeout bounds each run's wall clock (0 = none).
	RunTimeout time.Duration
	// Logf receives operational log lines (default: discard).
	Logf func(format string, args ...any)
}

// Server is the job store, queue and executor pool. One Server owns
// one DataDir; HTTP handlers (http.go) are a thin layer over its
// methods.
type Server struct {
	cfg Config

	mu      sync.Mutex
	jobs    map[string]*job
	order   []*job // ascending Seq
	nextSeq int
	// served counts journaled cells per user — the fair-share deficit
	// numerator. Recomputed from journal directories on boot, so it is
	// crash-safe without ever being authoritative on disk.
	served map[string]int
	// weights holds each user's fair-share weight (latest submitted
	// value wins).
	weights  map[string]float64
	running  int
	draining bool
	wg       sync.WaitGroup
}

// errDrain and errCanceled distinguish why a running sweep's context
// was canceled: drain re-queues the job for the next boot, cancel is
// terminal.
var (
	errDrain    = errors.New("serve: draining")
	errCanceled = errors.New("serve: canceled by user")
)

// New opens (or initializes) a Server over cfg.DataDir and recovers
// the persisted queue: every job directory is reloaded, jobs that were
// running when the previous process died are re-enqueued (their
// journals preserve completed cells), fair-share counters are
// recomputed from the journals, and dispatch resumes immediately.
func New(cfg Config) (*Server, error) {
	if cfg.DataDir == "" {
		return nil, fmt.Errorf("serve: Config.DataDir is required")
	}
	if cfg.JobSlots <= 0 {
		cfg.JobSlots = 1
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	s := &Server{
		cfg:     cfg,
		jobs:    map[string]*job{},
		served:  map[string]int{},
		weights: map[string]float64{},
		nextSeq: 1,
	}
	if err := os.MkdirAll(s.jobsRoot(), 0o755); err != nil {
		return nil, err
	}
	if err := s.recover(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.maybeDispatchLocked()
	s.mu.Unlock()
	return s, nil
}

func (s *Server) jobsRoot() string { return filepath.Join(s.cfg.DataDir, "jobs") }

// queueState is the queue.json snapshot: observability plus the
// submission counter. Job records and journals are the ground truth;
// the snapshot only needs to keep next_seq monotonic across restarts
// (job IDs must never be reused, even after a job directory is gone).
type queueState struct {
	NextSeq int                `json:"next_seq"`
	Served  map[string]int     `json:"served_cells"`
	Weights map[string]float64 `json:"weights"`
}

func (s *Server) writeQueueStateLocked() {
	st := queueState{NextSeq: s.nextSeq, Served: s.served, Weights: s.weights}
	data, err := json.MarshalIndent(st, "", "  ")
	if err == nil {
		err = atomicio.WriteFile(filepath.Join(s.cfg.DataDir, "queue.json"), append(data, '\n'), 0o644)
	}
	if err != nil {
		s.cfg.Logf("serve: queue state: %v", err)
	}
}

// recover reloads every persisted job. Corrupt directories are logged
// and skipped — recovery must never wedge the boot.
func (s *Server) recover() error {
	ents, err := os.ReadDir(s.jobsRoot())
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.IsDir() {
			continue
		}
		dir := filepath.Join(s.jobsRoot(), e.Name())
		j, err := loadJob(dir)
		if err != nil {
			s.cfg.Logf("serve: skipping %s: %v", dir, err)
			continue
		}
		if j.State == StateRunning {
			// The previous process died mid-sweep. The journal holds every
			// completed cell; re-enqueue and the next dispatch resumes it.
			j.State = StateQueued
			if err := j.persist(); err != nil {
				s.cfg.Logf("serve: re-enqueue %s: %v", j.ID, err)
			}
			s.cfg.Logf("serve: recovered in-flight job %s (%d/%d cells journaled)", j.ID, j.doneRuns, j.total)
		}
		s.jobs[j.ID] = j
		s.order = append(s.order, j)
	}
	sort.Slice(s.order, func(i, k int) bool { return s.order[i].Seq < s.order[k].Seq })
	for _, j := range s.order {
		s.served[j.User] += j.doneRuns
		s.weights[j.User] = j.Weight // ascending seq: latest submission wins
		if j.Seq >= s.nextSeq {
			s.nextSeq = j.Seq + 1
		}
	}
	// queue.json keeps next_seq monotonic even when job dirs were
	// removed; prefer whichever is larger.
	if data, err := os.ReadFile(filepath.Join(s.cfg.DataDir, "queue.json")); err == nil {
		var st queueState
		if json.Unmarshal(data, &st) == nil && st.NextSeq > s.nextSeq {
			s.nextSeq = st.NextSeq
		}
	}
	return nil
}

// Submit validates a request, persists the job and dispatches if a
// slot is free. It returns the new job's view.
func (s *Server) Submit(req *SubmitRequest) (JobView, error) {
	if req.User == "" {
		return JobView{}, fmt.Errorf("submit: user is required")
	}
	if req.Priority < 0 {
		return JobView{}, fmt.Errorf("submit: priority must be >= 0")
	}
	weight := req.Weight
	if weight == 0 {
		weight = 1
	}
	if weight < 0 {
		return JobView{}, fmt.Errorf("submit: weight must be > 0")
	}
	m, err := req.buildManifest()
	if err != nil {
		return JobView{}, err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return JobView{}, ErrDraining
	}
	seq := s.nextSeq
	s.nextSeq++
	rec := Job{
		ID:            fmt.Sprintf("job-%06d", seq),
		Seq:           seq,
		User:          req.User,
		Priority:      req.Priority,
		Weight:        weight,
		DeadlineMS:    req.DeadlineMS,
		Manifest:      m,
		State:         StateQueued,
		SubmittedUnix: nowUnixMS(),
	}
	j := newJob(rec, filepath.Join(s.jobsRoot(), rec.ID))
	if err := os.MkdirAll(j.dir, 0o755); err != nil {
		return JobView{}, err
	}
	if err := j.persist(); err != nil {
		return JobView{}, err
	}
	s.jobs[j.ID] = j
	s.order = append(s.order, j)
	s.weights[j.User] = weight
	s.writeQueueStateLocked()
	s.maybeDispatchLocked()
	return j.viewLocked(), nil
}

// ErrDraining rejects submissions while the server shuts down.
var ErrDraining = errors.New("serve: server is draining")

// ErrNotFound reports an unknown job ID.
var ErrNotFound = errors.New("serve: no such job")

// pickLocked chooses the next queued job, or nil: strict priority
// classes first, deficit-weighted fair share across users inside the
// top class, then the winning user's earliest-deadline job (jobs
// without a deadline after all jobs with one), then lowest Seq.
func (s *Server) pickLocked() *job {
	best := -1
	for _, j := range s.order {
		if j.State == StateQueued && j.Priority > best {
			best = j.Priority
		}
	}
	if best < 0 {
		return nil
	}
	// Users with queued work in the top class, deterministically keyed
	// by sorted name.
	byUser := map[string][]*job{}
	for _, j := range s.order { // ascending seq
		if j.State == StateQueued && j.Priority == best {
			byUser[j.User] = append(byUser[j.User], j)
		}
	}
	users := make([]string, 0, len(byUser))
	for u := range byUser {
		users = append(users, u)
	}
	sort.Strings(users)
	entries := make([]fairshare.Entry, len(users))
	for i, u := range users {
		w := s.weights[u]
		if w <= 0 {
			w = 1
		}
		entries[i] = fairshare.Entry{Key: i, Served: float64(s.served[u]), Weight: w}
	}
	winner := byUser[users[fairshare.Pick(entries)]]
	pick := winner[0]
	for _, j := range winner[1:] {
		jd, pd := j.deadlineAt(), pick.deadlineAt()
		switch {
		case jd != 0 && (pd == 0 || jd < pd):
			pick = j
		case jd == pd && j.Seq < pick.Seq:
			pick = j
		}
	}
	return pick
}

// maybeDispatchLocked starts queued jobs while slots are free. Called
// on every transition that can unblock the queue.
func (s *Server) maybeDispatchLocked() {
	for !s.draining && s.running < s.cfg.JobSlots {
		j := s.pickLocked()
		if j == nil {
			return
		}
		s.startLocked(j)
	}
}

func (s *Server) startLocked(j *job) {
	ctx, cancel := context.WithCancelCause(context.Background())
	j.State = StateRunning
	j.Error = ""
	j.StartedUnix = nowUnixMS()
	j.cancel = cancel
	if err := j.persist(); err != nil {
		s.cfg.Logf("serve: persist %s: %v", j.ID, err)
	}
	j.broadcast()
	s.running++
	s.wg.Add(1)
	s.cfg.Logf("serve: dispatch %s (user=%s prio=%d, %d/%d cells journaled)",
		j.ID, j.User, j.Priority, j.doneRuns, j.total)
	go s.runJob(j, ctx)
}

// runJob executes one job's sweep to completion (or cancellation). It
// owns the job's State transitions out of StateRunning.
func (s *Server) runJob(j *job, ctx context.Context) {
	defer s.wg.Done()
	res, err := s.execSweep(j, ctx)

	s.mu.Lock()
	defer s.mu.Unlock()
	s.running--
	j.cancel = nil
	switch cause := context.Cause(ctx); {
	case err != nil && errors.Is(cause, errDrain):
		// Drain: in-flight cells finished and were journaled; hand the
		// job back to the queue so the next boot resumes it.
		j.State = StateQueued
		j.StartedUnix = 0
		j.resetFailed()
		s.cfg.Logf("serve: drained %s (%d/%d cells journaled)", j.ID, j.doneRuns, j.total)
	case err != nil && errors.Is(cause, errCanceled):
		j.State = StateCanceled
		j.Error = "canceled by user"
		j.FinishedUnix = nowUnixMS()
	case err != nil:
		j.State = StateFailed
		j.Error = err.Error()
		j.FinishedUnix = nowUnixMS()
	default:
		j.State = StateDone
		j.FailedRuns = res.Failed()
		j.FinishedUnix = nowUnixMS()
		if at := j.deadlineAt(); at > 0 && j.FinishedUnix > at {
			j.DeadlineMissed = true
		}
		s.cfg.Logf("serve: finished %s (%d cells, %d failed runs)", j.ID, len(res.Cells), res.Failed())
	}
	if err := j.persist(); err != nil {
		s.cfg.Logf("serve: persist %s: %v", j.ID, err)
	}
	j.broadcast()
	s.writeQueueStateLocked()
	s.maybeDispatchLocked()
}

// execSweep rebuilds the job's spec from its manifest, opens (or
// creates) the per-job journal, and runs the sweep with a per-cell
// callback feeding the result stream and fair-share accounting. On
// success the artifacts are written into the job directory through the
// exact emit path aqlsweep -out uses — which is why service and batch
// artifacts are byte-identical.
func (s *Server) execSweep(j *job, ctx context.Context) (*sweep.Result, error) {
	spec, err := j.Manifest.Rebuild()
	if err != nil {
		return nil, err
	}
	jl, err := s.openJournal(j)
	if err != nil {
		return nil, err
	}
	res, err := sweep.Exec(spec, sweep.Options{
		Workers:      s.cfg.SweepWorkers,
		FleetWorkers: s.cfg.FleetWorkers,
		RunTimeout:   s.cfg.RunTimeout,
		Journal:      jl,
		Context:      ctx,
		OnRun: func(rr *sweep.RunResult) {
			s.mu.Lock()
			if j.markRun(rr.Index, rr.Err == nil) {
				s.served[j.User]++
			}
			j.broadcast()
			s.mu.Unlock()
		},
	})
	if err != nil {
		return nil, err
	}
	if _, err := res.WriteArtifacts(j.dir); err != nil {
		return nil, fmt.Errorf("writing artifacts: %v", err)
	}
	return res, nil
}

// openJournal opens the job's journal if it exists (a resumed job) or
// creates it, and folds any checkpoints recovered on open into the
// job's stream state.
func (s *Server) openJournal(j *job) (*sweep.Journal, error) {
	if _, err := os.Stat(filepath.Join(j.journalDir(), "manifest.json")); err == nil {
		jl, m, err := sweep.OpenJournal(j.journalDir())
		if err != nil {
			return nil, err
		}
		if m.Fingerprint != j.Manifest.Fingerprint {
			return nil, fmt.Errorf("journal fingerprint mismatch for %s", j.ID)
		}
		s.mu.Lock()
		for _, idx := range jl.RestoredIndexes() {
			if j.markRun(idx, true) {
				// Boot-time recovery already counted these; only checkpoints
				// that appeared since (impossible today) would land here.
				s.served[j.User]++
			}
		}
		s.mu.Unlock()
		return jl, nil
	}
	return sweep.CreateJournal(j.journalDir(), j.Manifest)
}

// resetFailed clears non-journaled settlement marks so a re-queued
// job's resume re-executes (and re-streams) its failed runs. Caller
// holds s.mu.
func (j *job) resetFailed() {
	for i := range j.settled {
		if j.settled[i] && !j.journaled[i] {
			j.settled[i] = false
		}
	}
	j.failed = 0
	j.frontier = 0
	j.advanceFrontier()
}

// Cancel cancels a job: a queued job becomes canceled immediately, a
// running job stops at the next cell boundary (in-flight cells finish
// and stay journaled). Terminal jobs are left alone.
func (s *Server) Cancel(id string) (JobView, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobView{}, ErrNotFound
	}
	switch j.State {
	case StateQueued:
		j.State = StateCanceled
		j.Error = "canceled by user"
		j.FinishedUnix = nowUnixMS()
		if err := j.persist(); err != nil {
			s.cfg.Logf("serve: persist %s: %v", j.ID, err)
		}
		j.broadcast()
		s.maybeDispatchLocked()
	case StateRunning:
		j.cancel(errCanceled) // runJob finishes the transition
	}
	return j.viewLocked(), nil
}

// Drain stops dispatching, cancels running sweeps at their next cell
// boundary (completed cells stay journaled; the jobs re-queue for the
// next boot) and waits for the pool to empty — the SIGTERM path.
func (s *Server) Drain() {
	s.mu.Lock()
	s.draining = true
	for _, j := range s.order {
		if j.cancel != nil {
			j.cancel(errDrain)
		}
		j.broadcast() // wake result streams so they can terminate
	}
	s.mu.Unlock()
	s.wg.Wait()
	s.mu.Lock()
	s.writeQueueStateLocked()
	s.mu.Unlock()
}

// JobView is the external snapshot of a job: the persistent record
// plus live progress.
type JobView struct {
	Job
	TotalRuns   int `json:"total_runs"`
	DoneRuns    int `json:"done_runs"`
	FailedSoFar int `json:"failed_so_far,omitempty"`
}

func (j *job) viewLocked() JobView {
	return JobView{Job: j.Job, TotalRuns: j.total, DoneRuns: j.doneRuns, FailedSoFar: j.failed}
}

// Job returns one job's view.
func (s *Server) Job(id string) (JobView, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobView{}, ErrNotFound
	}
	return j.viewLocked(), nil
}

// Jobs lists every job, ascending by Seq.
func (s *Server) Jobs() []JobView {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobView, 0, len(s.order))
	for _, j := range s.order {
		out = append(out, j.viewLocked())
	}
	return out
}

// streamState snapshots what a result stream may emit right now:
// journaled indexes in (after, limit] ascending, whether the job is
// terminal, and the channel that signals the next change. The frontier
// rule — only emit index i once every run below i has settled — keeps
// the stream strictly index-ordered, so the ?after= cursor is stable
// across daemon restarts.
type streamState struct {
	indexes  []int
	terminal bool
	draining bool
	updated  <-chan struct{}
}

func (s *Server) streamSnapshot(id string, after int) (streamState, string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return streamState{}, "", ErrNotFound
	}
	limit := j.frontier
	if j.State.Terminal() {
		limit = j.total
	}
	st := streamState{terminal: j.State.Terminal(), draining: s.draining, updated: j.updated}
	for idx := after + 1; idx < limit; idx++ {
		if j.journaled[idx] {
			st.indexes = append(st.indexes, idx)
		}
	}
	return st, j.journalDir(), nil
}
