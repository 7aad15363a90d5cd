package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"strconv"

	"aqlsched/internal/catalog"
	"aqlsched/internal/fleet"
	"aqlsched/internal/sweep"
)

// Handler returns the daemon's HTTP API:
//
//	POST /v1/jobs                 submit a sweep job (SubmitRequest body)
//	GET  /v1/jobs                 list jobs
//	GET  /v1/jobs/{id}            one job's status
//	POST /v1/jobs/{id}/cancel     cancel (queued: immediate; running: next cell)
//	GET  /v1/jobs/{id}/results    NDJSON cell-checkpoint stream (?after=<index>)
//	GET  /v1/jobs/{id}/artifact   finished artifact (?format=json|csv|txt)
//	GET  /v1/catalog              experiment-axis self-documentation
//	GET  /v1/healthz              liveness
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("POST /v1/jobs/{id}/cancel", s.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/results", s.handleResults)
	mux.HandleFunc("GET /v1/jobs/{id}/artifact", s.handleArtifact)
	mux.HandleFunc("GET /v1/catalog", s.handleCatalog)
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func errorCode(err error) int {
	switch {
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable
	default:
		return http.StatusBadRequest
	}
}

// maxSubmitBytes bounds a POST /v1/jobs body. The shipped example specs
// are a few KiB; the cap leaves ample room for hand-written grids while
// keeping one request from streaming unbounded bytes into the parser.
const maxSubmitBytes = 8 << 20

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		writeError(w, code, "decoding request: %v", err)
		return
	}
	view, err := s.Submit(&req)
	if err != nil {
		writeError(w, errorCode(err), "%v", err)
		return
	}
	writeJSON(w, http.StatusCreated, view)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.Jobs()})
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	view, err := s.Job(r.PathValue("id"))
	if err != nil {
		writeError(w, errorCode(err), "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, view)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	view, err := s.Cancel(r.PathValue("id"))
	if err != nil {
		writeError(w, errorCode(err), "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, view)
}

// handleResults streams the job's journaled cell checkpoints as NDJSON,
// one checkpoint line per completed run, in strict run-index order.
// Each line is the journal checkpoint verbatim, so the stream's bytes
// are exactly the crash-safe on-disk record. ?after=<index> resumes a
// stream after the given run index (-1, the default, streams from the
// start; anything lower is a 400) — the cursor survives client
// reconnects and daemon restarts because the order is a pure function
// of the (deterministic) run matrix. The stream follows a live job
// until it reaches a terminal state, then ends.
func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	after := -1
	if q := r.URL.Query().Get("after"); q != "" {
		n, err := strconv.Atoi(q)
		if err == nil && n < -1 {
			err = fmt.Errorf("run index %d is below -1", n)
		}
		if err != nil {
			writeError(w, http.StatusBadRequest, "after: %v", err)
			return
		}
		after = n
	}
	if _, err := s.Job(id); err != nil {
		writeError(w, errorCode(err), "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	for {
		st, journalDir, err := s.streamSnapshot(id, after)
		if err != nil {
			return // job evaporated (cannot happen today: jobs are never deleted)
		}
		for _, idx := range st.indexes {
			line, err := os.ReadFile(sweep.CheckpointPath(journalDir, idx))
			if err != nil {
				s.cfg.Logf("serve: stream %s run %d: %v", id, idx, err)
				return
			}
			if _, err := w.Write(line); err != nil {
				return
			}
			after = idx
		}
		if flusher != nil {
			flusher.Flush()
		}
		if st.terminal || st.draining {
			return
		}
		select {
		case <-st.updated:
		case <-r.Context().Done():
			return
		}
	}
}

// handleArtifact serves a finished job's emitted artifact — the same
// bytes aqlsweep -out writes for the same spec.
func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	format := r.URL.Query().Get("format")
	if format == "" {
		format = "json"
	}
	ctype := map[string]string{"json": "application/json", "csv": "text/csv", "txt": "text/plain"}[format]
	if ctype == "" {
		writeError(w, http.StatusBadRequest, "format must be json, csv or txt")
		return
	}
	s.mu.Lock()
	j, ok := s.jobs[id]
	var state State
	var path string
	if ok {
		state = j.State
		path = j.artifactPath("." + format)
	}
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, "%v", ErrNotFound)
		return
	}
	if state != StateDone {
		writeError(w, http.StatusConflict, "job %s is %s; artifacts exist only for done jobs", id, state)
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "reading artifact: %v", err)
		return
	}
	w.Header().Set("Content-Type", ctype)
	w.Write(data)
}

// handleCatalog serves the experiment-axis self-documentation plus the
// fleet placements and the built-in sweep names (added here — the
// catalog package cannot import fleet or sweep without a cycle).
func (s *Server) handleCatalog(w http.ResponseWriter, r *http.Request) {
	placements := catalog.ExtraAxis{Kind: "placements", Names: fleet.Placements.Names()}
	writeJSON(w, http.StatusOK, struct {
		catalog.Doc
		BuiltinSweeps []string `json:"builtin_sweeps"`
	}{catalog.Document(placements), sweep.BuiltinNames()})
}
