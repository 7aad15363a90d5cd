package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"aqlsched/internal/serve"
	"aqlsched/internal/sweep"
)

// The daemon-mixed workload: two users in a closed loop, each submitting
// a job, following its NDJSON result stream to the end, fetching its
// JSON artifact, and only then submitting the next. The job count is
// fixed because the server keeps every job and its queue scans grow
// with that count; each repetition gets a fresh server.
const daemonUsers = 2

// daemonJob is one submission: job j alternates, per user, the built-in
// dynmix sweep and the inline genmix.json spec, at base_seed seed+j and
// one seed replication (3 cells), so the daemon's own work dominates.
type daemonJob struct {
	builtin  string
	baseSeed uint64
	body     []byte
}

// jobTiming is what a client measured for one job.
type jobTiming struct {
	id                           string
	issued, submitted, firstLine time.Time
	streamEnd, artifactAt, done  time.Time
	lines, total                 int
	artifact                     []byte
	err                          error
	httpErrors                   int
}

type daemonWorkload struct {
	e      *env
	genmix []byte
	jobs   []daemonJob
	reps   int
	booted *daemonServer // the server the last set-up booted
}

func newDaemon(e *env) workload { return &daemonWorkload{e: e} }

func (w *daemonWorkload) perUser() int {
	if w.e.tiny {
		return 2
	}
	return 100
}

// daemonServer is one booted aqlsweepd server behind a local listener.
type daemonServer struct {
	srv *serve.Server
	ts  *httptest.Server
}

func bootDaemon(dir string) (*daemonServer, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Config{DataDir: dir, JobSlots: 2, SweepWorkers: 1})
	if err != nil {
		return nil, err
	}
	return &daemonServer{srv: srv, ts: httptest.NewServer(srv.Handler())}, nil
}

// close stops the server. Its data stays until the run ends: removing
// a repetition's thousands of files would load the filesystem while the
// next set-up and repetition are timed.
func (d *daemonServer) close() {
	d.ts.Close()
	d.srv.Drain()
}

// setup reads the inline spec, builds every request body, and boots a
// server; teardown stops it.
func (w *daemonWorkload) setup() error {
	data, err := os.ReadFile(filepath.Join(w.e.root, "examples", "specs", "genmix.json"))
	if err != nil {
		return err
	}
	w.genmix = data
	w.jobs = w.jobs[:0]
	for j := 0; j < daemonUsers*w.perUser(); j++ {
		req := serve.SubmitRequest{User: fmt.Sprintf("user-%d", j%daemonUsers), BaseSeed: w.e.seed + uint64(j)}
		if (j/daemonUsers)%2 == 0 {
			req.Builtin = "dynmix"
		} else {
			req.Spec = data
		}
		req.Seeds = 1
		body, err := json.Marshal(req)
		if err != nil {
			return err
		}
		w.jobs = append(w.jobs, daemonJob{builtin: req.Builtin, baseSeed: req.BaseSeed, body: body})
	}
	w.booted, err = bootDaemon(filepath.Join(w.e.work, "daemon-setup"))
	return err
}

func (w *daemonWorkload) teardown() { w.booted.close() }

func (w *daemonWorkload) rep(rc *repCtx) {
	w.reps++
	d, err := bootDaemon(filepath.Join(w.e.work, fmt.Sprintf("daemon-%d", w.reps)))
	if err != nil {
		rc.begin()
		rc.finish()
		rc.fail("daemon-mixed: boot: %v", err)
		return
	}
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: daemonUsers, MaxIdleConnsPerHost: daemonUsers}}
	n := len(w.jobs)
	if rc.warm {
		n = max(daemonUsers, n/5) // a fifth of the jobs warms the server path
	}
	timings := make([]jobTiming, n)

	rc.begin()
	var wg sync.WaitGroup
	for u := 0; u < daemonUsers; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			for j := u; j < n; j += daemonUsers {
				timings[j] = runJob(client, d.ts.URL, w.jobs[j].body, j%10 == 0)
			}
		}(u)
	}
	wg.Wait()
	rc.finish()

	views, listErr := listJobs(client, d.ts.URL)
	client.CloseIdleConnections()
	d.close()
	rc.check(listErr == nil, "daemon-mixed: listing jobs: %v", listErr)
	w.record(rc, timings, views)
	for j := range timings {
		if timings[j].artifact != nil {
			w.rerun(rc, j, timings[j].artifact)
		}
	}
}

// record turns the clients' timings into operations and checks every
// job completed with its whole result stream.
func (w *daemonWorkload) record(rc *repCtx, timings []jobTiming, views map[string]jobView) {
	var submit, stream, artifact, wait []float64
	var waitSum, latSum time.Duration
	cells, httpErrors := 0, 0
	for j, t := range timings {
		httpErrors += t.httpErrors
		if t.err != nil {
			rc.attempted++
			rc.fail("daemon-mixed: job %d: %v", j, t.err)
			continue
		}
		latency := t.done.Sub(t.issued)
		rc.op(latency, t.firstLine.Sub(t.issued))
		job := rc.spans.add(rc.span, "bench", "job", t.id, t.issued, t.done)
		rc.spans.add(job, "serve", "submit", t.id, t.issued, t.submitted)
		rc.spans.add(job, "serve", "stream", t.id, t.submitted, t.streamEnd)
		rc.spans.add(job, "serve", "artifact", t.id, t.artifactAt, t.done)
		submit = append(submit, ms(t.submitted.Sub(t.issued)))
		stream = append(stream, ms(t.streamEnd.Sub(t.firstLine)))
		artifact = append(artifact, ms(t.done.Sub(t.artifactAt)))
		v := views[t.id]
		rc.check(v.State == string(serve.StateDone) && v.DoneRuns == v.TotalRuns,
			"daemon-mixed: job %s is %s with %d/%d runs", t.id, v.State, v.DoneRuns, v.TotalRuns)
		rc.check(t.lines == t.total && t.total > 0,
			"daemon-mixed: job %s streamed %d lines for %d runs", t.id, t.lines, t.total)
		qw := time.Duration(v.StartedUnix-v.SubmittedUnix) * time.Millisecond
		wait = append(wait, ms(qw))
		waitSum += qw
		latSum += latency
		cells += t.total
	}
	rc.set("daemon.cells_per_s", "1/s", float64(cells)/rc.wall.Seconds())
	rc.set("daemon.job_ms_p50", "ms", median(msAll(rc.ops)))
	rc.set("serve.submit_ms_p50", "ms", median(submit))
	rc.set("serve.submit_ms_tail", "ms", tail(submit))
	rc.set("serve.queue_wait_ms_p50", "ms", median(wait))
	rc.set("serve.stream_ms_p50", "ms", median(stream))
	rc.set("serve.artifact_ms_p50", "ms", median(artifact))
	rc.set("serve.queue_wait_share", "share", waitSum.Seconds()/latSum.Seconds())
	rc.set("serve.http_errors", "count", float64(httpErrors))
}

// rerun executes a sampled job's sweep in-process, untimed, and
// compares the artifact byte for byte with the daemon's.
func (w *daemonWorkload) rerun(rc *repCtx, j int, got []byte) {
	job := w.jobs[j]
	var spec *sweep.Spec
	var err error
	if job.builtin != "" {
		var ok bool
		if spec, ok = sweep.Builtin(job.builtin); !ok {
			err = fmt.Errorf("unknown built-in %q", job.builtin)
		}
	} else {
		spec, err = sweep.Parse(w.genmix)
	}
	if err == nil {
		spec.Seeds = 1
		if job.baseSeed != 0 {
			spec.BaseSeed = job.baseSeed
		}
		var res *sweep.Result
		if res, err = sweep.Exec(spec, sweep.Options{Workers: 2}); err == nil {
			var buf bytes.Buffer
			if err = res.WriteJSON(&buf); err == nil && !bytes.Equal(buf.Bytes(), got) {
				err = fmt.Errorf("artifact differs from a batch run of the same spec")
			}
		}
	}
	rc.check(err == nil, "daemon-mixed: job %d re-run: %v", j, err)
}

// jobView is the part of the daemon's job JSON the benchmark reads.
type jobView struct {
	ID            string `json:"id"`
	State         string `json:"state"`
	TotalRuns     int    `json:"total_runs"`
	DoneRuns      int    `json:"done_runs"`
	SubmittedUnix int64  `json:"submitted_unix_ms"`
	StartedUnix   int64  `json:"started_unix_ms"`
}

// runJob submits one job, follows its result stream to the end and
// fetches its artifact; keep says whether to return the artifact bytes.
func runJob(client *http.Client, base string, body []byte, keep bool) (t jobTiming) {
	t.issued = time.Now()
	resp, err := client.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.httpErrors++
		t.err = err
		return t
	}
	var view jobView
	err = decodeResponse(resp, http.StatusCreated, &view)
	t.submitted = time.Now()
	if err != nil {
		t.httpErrors++
		t.err = fmt.Errorf("submit: %w", err)
		return t
	}
	t.id, t.total = view.ID, view.TotalRuns

	resp, err = client.Get(base + "/v1/jobs/" + view.ID + "/results")
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("status %s", resp.Status)
		resp.Body.Close()
	}
	if err != nil {
		t.httpErrors++
		t.err = fmt.Errorf("results: %w", err)
		return t
	}
	r := bufio.NewReader(resp.Body)
	for {
		line, err := r.ReadBytes('\n')
		if len(line) > 0 && line[len(line)-1] == '\n' {
			if t.lines == 0 {
				t.firstLine = time.Now()
			}
			t.lines++
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			resp.Body.Close()
			t.err = fmt.Errorf("results: %w", err)
			return t
		}
	}
	resp.Body.Close()
	t.streamEnd = time.Now()
	if t.lines == 0 {
		t.firstLine = t.streamEnd
	}

	t.artifactAt = time.Now()
	resp, err = client.Get(base + "/v1/jobs/" + view.ID + "/artifact")
	if err != nil {
		t.httpErrors++
		t.err = fmt.Errorf("artifact: %w", err)
		return t
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	t.done = time.Now()
	if err == nil && resp.StatusCode != http.StatusOK {
		t.httpErrors++
		err = fmt.Errorf("status %s: %s", resp.Status, data)
	}
	if err != nil {
		t.err = fmt.Errorf("artifact: %w", err)
		return t
	}
	if keep {
		t.artifact = data
	}
	return t
}

func decodeResponse(resp *http.Response, want int, v any) error {
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("status %s: %s", resp.Status, data)
	}
	return json.Unmarshal(data, v)
}

func listJobs(client *http.Client, base string) (map[string]jobView, error) {
	resp, err := client.Get(base + "/v1/jobs")
	if err != nil {
		return nil, err
	}
	var list struct {
		Jobs []jobView `json:"jobs"`
	}
	if err := decodeResponse(resp, http.StatusOK, &list); err != nil {
		return nil, err
	}
	out := map[string]jobView{}
	for _, v := range list.Jobs {
		out[v.ID] = v
	}
	return out, nil
}
