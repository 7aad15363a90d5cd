package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"aqlsched/internal/sweep"
)

// testSpecJSON is a small fleet sweep (2 placements x 2 seeds = 4
// runs) — fast enough for tests, big enough to observe partial
// progress with one worker.
const testSpecJSON = `{
	"name": "serve-quick",
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

// --- pure dispatch-order tests (no sweeps execute) --------------------------

// bareServer builds a Server for dispatch-order tests without touching
// disk or starting sweeps.
func bareServer() *Server {
	return &Server{
		cfg:     Config{JobSlots: 1, Logf: func(string, ...any) {}},
		jobs:    map[string]*job{},
		served:  map[string]int{},
		weights: map[string]float64{},
		nextSeq: 1,
	}
}

// enqueue adds a fake queued job of the given shape and returns it.
func enqueue(s *Server, user string, prio int, weight float64, deadlineMS int64, runs int) *job {
	seq := s.nextSeq
	s.nextSeq++
	j := newJob(Job{
		ID: fmt.Sprintf("job-%06d", seq), Seq: seq, User: user,
		Priority: prio, Weight: weight, DeadlineMS: deadlineMS,
		Manifest: sweep.Manifest{Runs: runs}, State: StateQueued,
		SubmittedUnix: int64(1000 * seq), // deterministic submit clock
	}, "")
	s.jobs[j.ID] = j
	s.order = append(s.order, j)
	s.weights[user] = weight
	return j
}

// drainQueue repeatedly picks and "completes" jobs, crediting each
// job's full cell count to its user, and returns the user sequence.
func drainQueue(s *Server) []string {
	var got []string
	for {
		j := s.pickLocked()
		if j == nil {
			return got
		}
		j.State = StateDone
		s.served[j.User] += j.total
		got = append(got, j.User)
	}
}

// TestDispatchFairShareUnequalJobCounts is the acceptance-criteria
// queue test: two users, equal priority and weight, unequal job counts
// — dispatch alternates so completed-cell shares track the (equal)
// weights while both have work, instead of FIFO-starving the lighter
// submitter behind the heavy one.
func TestDispatchFairShareUnequalJobCounts(t *testing.T) {
	s := bareServer()
	for i := 0; i < 6; i++ {
		enqueue(s, "ada", 0, 1, 0, 4)
	}
	for i := 0; i < 3; i++ {
		enqueue(s, "bob", 0, 1, 0, 4)
	}
	got := drainQueue(s)
	want := []string{"ada", "bob", "ada", "bob", "ada", "bob", "ada", "ada", "ada"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("dispatch order %v, want %v", got, want)
	}
}

// TestDispatchSharesConvergeToWeights: with weights 3:1 and identical
// single-cell jobs, completed-cell shares converge to 3:1.
func TestDispatchSharesConvergeToWeights(t *testing.T) {
	s := bareServer()
	for i := 0; i < 40; i++ {
		enqueue(s, "ada", 0, 3, 0, 1)
		enqueue(s, "bob", 0, 1, 0, 1)
	}
	got := drainQueue(s)
	ada := 0
	for _, u := range got[:40] { // while both still have queued work
		if u == "ada" {
			ada++
		}
	}
	if ada < 28 || ada > 32 {
		t.Fatalf("ada served %d of the first 40 dispatches, want ~30 (weight 3:1)", ada)
	}
}

// TestDispatchPriorityPreemptsQueueOrder: a later, higher-priority job
// dispatches before every earlier queued job, regardless of deficits —
// and a job already running is not disturbed (dispatch only ever
// consumes free slots).
func TestDispatchPriorityPreemptsQueueOrder(t *testing.T) {
	s := bareServer()
	enqueue(s, "ada", 0, 1, 0, 4)
	enqueue(s, "ada", 0, 1, 0, 4)
	running := enqueue(s, "carol", 0, 1, 0, 4)
	running.State = StateRunning // simulate an in-flight job
	s.running = 1
	hi := enqueue(s, "bob", 5, 1, 0, 4)

	if j := s.pickLocked(); j != hi {
		t.Fatalf("picked %s (user %s prio %d), want the high-priority job %s", j.ID, j.User, j.Priority, hi.ID)
	}
	// A full slot means no dispatch at all: priority preempts the
	// queue order, never running cells.
	s.maybeDispatchLocked()
	if running.State != StateRunning || hi.State != StateQueued {
		t.Fatalf("dispatch disturbed a running job (running=%s hi=%s)", running.State, hi.State)
	}
}

// TestDispatchDeadlineOrdersWithinUser: among one user's queued jobs in
// the same class, the earliest absolute deadline wins; jobs without a
// deadline go last; ties fall back to submission order.
func TestDispatchDeadlineOrdersWithinUser(t *testing.T) {
	s := bareServer()
	noDeadline := enqueue(s, "ada", 0, 1, 0, 4)
	late := enqueue(s, "ada", 0, 1, 500_000, 4)
	soon := enqueue(s, "ada", 0, 1, 1_000, 4) // latest submit, earliest absolute deadline

	if j := s.pickLocked(); j != soon {
		t.Fatalf("picked %s, want earliest-deadline job %s", j.ID, soon.ID)
	}
	soon.State = StateDone
	if j := s.pickLocked(); j != late {
		t.Fatalf("picked %s, want remaining deadline job %s", j.ID, late.ID)
	}
	late.State = StateDone
	if j := s.pickLocked(); j != noDeadline {
		t.Fatalf("picked %s, want the no-deadline job %s", j.ID, noDeadline.ID)
	}
}

// --- integration tests (real sweeps over a temp data dir) -------------------

// newTestServer boots a Server over dir with one job slot and a single
// sweep worker (so partial progress is observable).
func newTestServer(t *testing.T, dir string) *Server {
	t.Helper()
	s, err := New(Config{DataDir: dir, JobSlots: 1, SweepWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func waitFor(t *testing.T, desc string, pred func() bool) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for !pred() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", desc)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// referenceArtifacts runs the test spec through the plain batch path
// (sweep.Exec + WriteArtifacts) — the bytes every service path must
// reproduce exactly.
func referenceArtifacts(t *testing.T) map[string][]byte {
	t.Helper()
	spec, err := sweep.Parse([]byte(testSpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sweep.Exec(spec, sweep.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	paths, err := res.WriteArtifacts(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		out[filepath.Ext(p)] = data
	}
	return out
}

func compareArtifacts(t *testing.T, jobDir, name string, want map[string][]byte, label string) {
	t.Helper()
	for _, ext := range []string{".json", ".csv", ".txt"} {
		got, err := os.ReadFile(filepath.Join(jobDir, name+ext))
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if !bytes.Equal(got, want[ext]) {
			t.Fatalf("%s: %s artifact differs from batch aqlsweep output", label, ext)
		}
	}
}

// TestServeBatchByteIdentity: a job submitted through the queue
// produces artifacts byte-identical to batch execution of the same
// spec.
func TestServeBatchByteIdentity(t *testing.T) {
	want := referenceArtifacts(t)
	s := newTestServer(t, t.TempDir())
	view, err := s.Submit(&SubmitRequest{User: "ada", Spec: json.RawMessage(testSpecJSON)})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "job to finish", func() bool {
		v, err := s.Job(view.ID)
		if err != nil {
			t.Fatal(err)
		}
		if v.State == StateFailed {
			t.Fatalf("job failed: %s", v.Error)
		}
		return v.State == StateDone
	})
	s.Drain()
	compareArtifacts(t, filepath.Join(s.jobsRoot(), view.ID), "serve-quick", want, "served job")
}

// TestCrashRecoveryByteIdentity is the crash contract in-process: a
// job is interrupted mid-sweep (drain — the same cell-boundary stop a
// SIGKILL approximates, minus the in-flight cell the journal already
// made atomic), a second Server boots over the same data dir,
// auto-resumes the job cell-by-cell, and the final artifacts are
// byte-identical to an uninterrupted batch run. The real-SIGKILL
// variant runs in CI against the aqlsweepd binary.
func TestCrashRecoveryByteIdentity(t *testing.T) {
	want := referenceArtifacts(t)
	dir := t.TempDir()
	s1 := newTestServer(t, dir)
	view, err := s1.Submit(&SubmitRequest{User: "ada", Spec: json.RawMessage(testSpecJSON)})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "partial progress", func() bool {
		v, err := s1.Job(view.ID)
		if err != nil {
			t.Fatal(err)
		}
		return v.DoneRuns >= 1
	})
	s1.Drain() // interrupt at the next cell boundary

	v, err := s1.Job(view.ID)
	if err != nil {
		t.Fatal(err)
	}
	if v.State != StateQueued {
		t.Fatalf("drained job is %s, want re-queued", v.State)
	}
	if v.DoneRuns == 0 || v.DoneRuns >= v.TotalRuns {
		t.Fatalf("drained job journaled %d/%d cells, want partial progress", v.DoneRuns, v.TotalRuns)
	}

	s2 := newTestServer(t, dir) // restart: recovery re-enqueues and resumes
	waitFor(t, "recovered job to finish", func() bool {
		v, err := s2.Job(view.ID)
		if err != nil {
			t.Fatal(err)
		}
		if v.State == StateFailed {
			t.Fatalf("recovered job failed: %s", v.Error)
		}
		return v.State == StateDone
	})
	got, err := s2.Job(view.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.DoneRuns != got.TotalRuns {
		t.Fatalf("recovered job completed %d/%d runs", got.DoneRuns, got.TotalRuns)
	}
	s2.Drain()
	compareArtifacts(t, filepath.Join(s2.jobsRoot(), view.ID), "serve-quick", want, "recovered job")
}

// --- HTTP API end to end ----------------------------------------------------

func submitJSON(t *testing.T, ts *httptest.Server, body string) JobView {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		var e map[string]string
		json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("submit: status %d: %s", resp.StatusCode, e["error"])
	}
	var view JobView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	return view
}

// TestHTTPEndToEnd drives the whole API surface: submit over HTTP,
// follow the live NDJSON stream to completion, resume it with a
// cursor, fetch the artifact and check it against batch bytes, and
// exercise catalog/healthz.
func TestHTTPEndToEnd(t *testing.T) {
	want := referenceArtifacts(t)
	s := newTestServer(t, t.TempDir())
	defer s.Drain()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	view := submitJSON(t, ts, fmt.Sprintf(`{"user":"ada","spec":%s}`, testSpecJSON))
	if view.ID == "" || view.TotalRuns != 4 {
		t.Fatalf("submit returned %+v, want an ID and 4 total runs", view)
	}

	// Follow the live stream: it must deliver one checkpoint line per
	// run, in strictly ascending index order, then end with the job.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + view.ID + "/results")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("results Content-Type = %q", ct)
	}
	var lines []string
	lastIdx := -1
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		var rec struct {
			Index int `json:"index"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("stream line is not JSON: %v", err)
		}
		if rec.Index <= lastIdx {
			t.Fatalf("stream emitted index %d after %d", rec.Index, lastIdx)
		}
		lastIdx = rec.Index
		lines = append(lines, line)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(lines) != 4 {
		t.Fatalf("stream delivered %d lines, want 4", len(lines))
	}

	// The job must be terminal once the stream ends.
	var got JobView
	jr, err := http.Get(ts.URL + "/v1/jobs/" + view.ID)
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(jr.Body).Decode(&got)
	jr.Body.Close()
	if got.State != StateDone || got.DoneRuns != 4 {
		t.Fatalf("after stream end job is %s with %d/%d runs", got.State, got.DoneRuns, got.TotalRuns)
	}

	// Cursor resume: ?after=<first index> replays exactly the suffix.
	var first struct {
		Index int `json:"index"`
	}
	json.Unmarshal([]byte(lines[0]), &first)
	rr, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s/results?after=%d", ts.URL, view.ID, first.Index))
	if err != nil {
		t.Fatal(err)
	}
	var resumed []string
	rsc := bufio.NewScanner(rr.Body)
	rsc.Buffer(make([]byte, 1<<20), 1<<20)
	for rsc.Scan() {
		resumed = append(resumed, rsc.Text())
	}
	rr.Body.Close()
	if strings.Join(resumed, "\n") != strings.Join(lines[1:], "\n") {
		t.Fatal("cursor resume did not replay the exact suffix of the stream")
	}

	// Artifact bytes == batch bytes.
	ar, err := http.Get(ts.URL + "/v1/jobs/" + view.ID + "/artifact?format=json")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(ar.Body)
	ar.Body.Close()
	if !bytes.Equal(buf.Bytes(), want[".json"]) {
		t.Fatal("served artifact differs from batch aqlsweep output")
	}

	// Discovery endpoints answer with sane documents.
	cr, err := http.Get(ts.URL + "/v1/catalog")
	if err != nil {
		t.Fatal(err)
	}
	var cat struct {
		Scenarios     []string `json:"scenarios"`
		Policies      []any    `json:"policies"`
		BuiltinSweeps []string `json:"builtin_sweeps"`
	}
	json.NewDecoder(cr.Body).Decode(&cat)
	cr.Body.Close()
	if len(cat.Scenarios) == 0 || len(cat.Policies) == 0 || len(cat.BuiltinSweeps) == 0 {
		t.Fatalf("catalog document is missing axes: %+v", cat)
	}

	hr, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("healthz returned %d", hr.StatusCode)
	}
}

// TestHTTPSubmitValidation: malformed submissions fail with 400 and a
// JSON error body.
func TestHTTPSubmitValidation(t *testing.T) {
	s := newTestServer(t, t.TempDir())
	defer s.Drain()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, body := range []string{
		`{"spec":` + testSpecJSON + `}`,                        // no user
		`{"user":"ada"}`,                                       // no spec
		`{"user":"ada","builtin":"nope"}`,                      // unknown builtin
		`{"user":"ada","builtin":"genmix","spec":{}}`,          // both
		`{"user":"ada","builtin":"genmix","bogus":true}`,       // unknown field
		`{"user":"u","builtin":"bench","seeds":1099511627776}`, // run matrix past the cap
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var e map[string]string
		json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || e["error"] == "" {
			t.Fatalf("submit %s: status %d, error %q; want 400 with an error", body, resp.StatusCode, e["error"])
		}
	}

	if r, _ := http.Get(ts.URL + "/v1/jobs/job-999999"); r.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job returned %d, want 404", r.StatusCode)
	}
}

// TestHTTPSubmitTooLarge: a body over maxSubmitBytes is refused with 413
// before the spec parser sees it, and queues nothing.
func TestHTTPSubmitTooLarge(t *testing.T) {
	s := newTestServer(t, t.TempDir())
	defer s.Drain()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	pad := strings.Repeat(" ", maxSubmitBytes)
	body := `{"user":"ada",` + pad + `"builtin":"genmix"}`
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var e map[string]string
	json.NewDecoder(resp.Body).Decode(&e)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge || e["error"] == "" {
		t.Fatalf("oversized submit: status %d, error %q; want 413 with an error", resp.StatusCode, e["error"])
	}
	if jobs := s.Jobs(); len(jobs) != 0 {
		t.Fatalf("oversized submit queued %d jobs", len(jobs))
	}
}

// TestHTTPResultsBadCursor: a results cursor that is not an integer
// ≥ -1 is refused with 400 before the stream starts.
func TestHTTPResultsBadCursor(t *testing.T) {
	s := newTestServer(t, t.TempDir())
	defer s.Drain()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	view := submitJSON(t, ts, fmt.Sprintf(`{"user":"ada","spec":%s}`, testSpecJSON))
	for _, after := range []string{"x", "-2", "-100"} {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + view.ID + "/results?after=" + after)
		if err != nil {
			t.Fatalf("after=%s: %v", after, err)
		}
		var e map[string]string
		json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || e["error"] == "" {
			t.Fatalf("after=%s: status %d, error %q; want 400 with an error", after, resp.StatusCode, e["error"])
		}
	}
}

// TestCancelQueuedJob: canceling a queued job is immediate and
// terminal, and frees nothing that was not running.
func TestCancelQueuedJob(t *testing.T) {
	s := newTestServer(t, t.TempDir())
	defer s.Drain()
	// Fill the single slot, then queue a second job and cancel it.
	first, err := s.Submit(&SubmitRequest{User: "ada", Spec: json.RawMessage(testSpecJSON)})
	if err != nil {
		t.Fatal(err)
	}
	second, err := s.Submit(&SubmitRequest{User: "bob", Spec: json.RawMessage(testSpecJSON)})
	if err != nil {
		t.Fatal(err)
	}
	v, err := s.Cancel(second.ID)
	if err != nil {
		t.Fatal(err)
	}
	if v.State != StateCanceled {
		t.Fatalf("canceled queued job is %s", v.State)
	}
	waitFor(t, "first job to finish", func() bool {
		v, err := s.Job(first.ID)
		if err != nil {
			t.Fatal(err)
		}
		return v.State.Terminal()
	})
	if v, _ := s.Job(first.ID); v.State != StateDone {
		t.Fatalf("first job ended %s, want done", v.State)
	}
}
