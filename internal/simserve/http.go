// The service's HTTP edge. Everything here is a thin JSON shim over
// the Manager; mistakes in a request body or ID map to 4xx, overload
// to 429, and nothing a job does can take a route down -- each job's
// telemetry mux is mounted under /jobs/{id}/ with the prefix
// stripped, so the whole per-run observability surface of PR 8
// (series, health, report, pprof) exists per job.
//
//	POST   /jobs          submit a Spec, 202 + Status
//	GET    /jobs          list all jobs (statuses, submission order)
//	GET    /jobs/{id}     one job's Status (410 once the job has been forgotten)
//	DELETE /jobs/{id}     cancel (queued -> cancelled now; running -> world abort)
//	GET    /jobs/{id}/*   the job's telemetry handler (series, health, ...)
//	GET    /healthz       liveness + job-state tally
//	GET    /metrics       service-level aggregate (Prometheus text)

package simserve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"repro/internal/telemetry"
)

// maxSpecBytes bounds a POST /jobs body; a Spec is a handful of
// scalars, so anything bigger is garbage.
const maxSpecBytes = 1 << 16

// Handler builds the service mux over a Manager.
func Handler(m *Manager) http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		spec, err := decodeSpec(http.MaxBytesReader(w, r.Body, maxSpecBytes))
		if err != nil {
			http.Error(w, fmt.Sprintf("bad request body: %v", err), http.StatusBadRequest)
			return
		}
		j, err := m.Submit(spec)
		if err != nil {
			http.Error(w, err.Error(), submitStatus(err))
			return
		}
		w.Header().Set("Location", "/jobs/"+j.ID)
		writeJSON(w, http.StatusAccepted, j.Status())
	})

	mux.HandleFunc("GET /jobs", func(w http.ResponseWriter, r *http.Request) {
		jobs := m.Jobs()
		out := make([]Status, len(jobs))
		for i, j := range jobs {
			out[i] = j.Status()
		}
		writeJSON(w, http.StatusOK, out)
	})

	// lookup resolves {id} or answers for it: 410 for a finished job
	// the manager has forgotten, 404 for an ID it never issued.
	lookup := func(w http.ResponseWriter, r *http.Request) (*Job, bool) {
		id := r.PathValue("id")
		j, ok := m.Get(id)
		switch {
		case ok:
		case m.Evicted(id):
			http.Error(w, "job finished and is no longer retained", http.StatusGone)
		default:
			http.Error(w, "no such job", http.StatusNotFound)
		}
		return j, ok
	}

	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		if j, ok := lookup(w, r); ok {
			writeJSON(w, http.StatusOK, j.Status())
		}
	})

	mux.HandleFunc("DELETE /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		j, ok := lookup(w, r)
		if !ok {
			return
		}
		if err := m.Cancel(j.ID); err != nil {
			// Already terminal: cancellation cannot apply.
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		writeJSON(w, http.StatusOK, j.Status())
	})

	// The job's own telemetry surface: strip /jobs/{id} and let the
	// per-job mux route /series, /health, /report, /metrics, pprof.
	mux.HandleFunc("/jobs/{id}/", func(w http.ResponseWriter, r *http.Request) {
		if j, ok := lookup(w, r); ok {
			http.StripPrefix("/jobs/"+j.ID, j.handler).ServeHTTP(w, r)
		}
	})

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{
			"status": "ok",
			"jobs":   m.Counts(),
		})
	})

	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		telemetry.WritePrometheus(w, m.Registry())
	})

	return mux
}

// decodeSpec reads a POST /jobs body: one JSON object, no fields a
// Spec does not have.
func decodeSpec(body io.Reader) (Spec, error) {
	var spec Spec
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	err := dec.Decode(&spec)
	return spec, err
}

// submitStatus maps Submit's sentinel errors onto HTTP statuses.
func submitStatus(err error) int {
	switch {
	case errors.Is(err, ErrBadSpec):
		return http.StatusBadRequest
	case errors.Is(err, ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // a failed write means the client went away
}
