package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"repro/internal/experiments"
)

// Handler returns the service's HTTP API:
//
//	GET  /v1/healthz          liveness + pool/job counters
//	GET  /v1/registry         runnable experiments and sweeps
//	POST /v1/jobs             submit a JobSpec; 201 created / 200 existing,
//	                          400 for a rejected spec, 413 when the body
//	                          exceeds maxSubmitBytes, 503 while shutting
//	                          down, 500 when the spec cannot be persisted
//	GET  /v1/jobs             list jobs in submission order
//	GET  /v1/jobs/{id}        one job's status
//	GET  /v1/jobs/{id}/report the finished report, verbatim bytes
//	GET  /v1/jobs/{id}/events SSE stream of the job's event log
//
// Everything speaks JSON; errors are {"error": "..."} with a 4xx/5xx
// status.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/registry", s.handleRegistry)
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/report", s.handleReport)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	jobs := s.Jobs()
	running := 0
	for _, j := range jobs {
		if j.State == StateRunning {
			running++
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"ok":         true,
		"jobs":       len(jobs),
		"running":    running,
		"pool_width": s.PoolWidth(),
	})
}

func (s *Service) handleRegistry(w http.ResponseWriter, r *http.Request) {
	type item struct {
		ID    string `json:"id"`
		Kind  string `json:"kind"`
		Short string `json:"short"`
		Cells int    `json:"cells,omitempty"`
	}
	var items []item
	for _, e := range experiments.All() {
		items = append(items, item{ID: e.ID, Kind: "experiment", Short: e.Short})
	}
	for _, s := range experiments.Sweeps() {
		items = append(items, item{ID: s.ID, Kind: "sweep", Short: s.Short, Cells: s.Grid.Size()})
	}
	writeJSON(w, http.StatusOK, map[string]any{"entries": items})
}

// submitResponse wraps a status with whether this call created the job
// (false = the spec content-addressed to an existing job).
type submitResponse struct {
	JobStatus
	Created bool `json:"created"`
}

// maxSubmitBytes caps a job-submission body. A JobSpec is a few hundred
// bytes; the cap bounds what one client can make the decoder buffer.
const maxSubmitBytes = 1 << 20

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		writeErr(w, code, "bad job spec: %v", err)
		return
	}
	st, created, err := s.Submit(spec)
	if err != nil {
		code := http.StatusInternalServerError
		switch {
		case errors.As(err, new(specError)):
			code = http.StatusBadRequest
		case errors.Is(err, errShuttingDown):
			code = http.StatusServiceUnavailable
		}
		writeErr(w, code, "%v", err)
		return
	}
	code := http.StatusOK
	if created {
		code = http.StatusCreated
	}
	writeJSON(w, code, submitResponse{JobStatus: st, Created: created})
}

func (s *Service) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.Jobs()})
}

func (s *Service) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, ok := s.Status(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, "no job %s", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Service) handleReport(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, ok := s.Status(id)
	if !ok {
		writeErr(w, http.StatusNotFound, "no job %s", id)
		return
	}
	rep, err := s.Report(id)
	if err != nil {
		// The job exists but has no report: not finished (yet), or
		// failed without producing one.
		code := http.StatusConflict
		if st.State == StateFailed {
			code = http.StatusUnprocessableEntity
		}
		writeErr(w, code, "%v", err)
		return
	}
	// Verbatim bytes — the determinism contract is byte-level, so the
	// handler must not re-encode.
	w.Header().Set("Content-Type", "application/json")
	w.Write(rep)
}

// handleEvents streams the job's event log as server-sent events: the
// full log so far, then live events as trials complete. The stream ends
// when the job reaches a terminal state (whose event is always the last
// one), so `curl` against a finished job returns immediately with the
// whole history.
func (s *Service) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	history, live, cancel, err := s.subscribe(id)
	if err != nil {
		writeErr(w, http.StatusNotFound, "%v", err)
		return
	}
	defer cancel()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	flusher, _ := w.(http.Flusher)
	send := func(ev Event) bool {
		b, err := json.Marshal(ev)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "data: %s\n\n", b); err != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return ev.Type != EventState || !ev.State.terminal()
	}
	for _, ev := range history {
		if !send(ev) {
			return
		}
	}
	if live == nil {
		return
	}
	for {
		select {
		case ev, ok := <-live:
			if !ok {
				// Dropped as a slow subscriber; the client reconnects
				// and replays.
				return
			}
			if !send(ev) {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}
