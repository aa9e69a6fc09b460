package simd

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"repro/internal/experiments"
)

// Handler returns the daemon's HTTP API. All responses are
// single-object JSON (one line per write), so shell clients can grep
// without a JSON parser:
//
//	GET  /healthz                  liveness
//	GET  /v1/experiments           available experiment ids
//	POST /v1/jobs                  submit a JobSpec; idempotent (same
//	                               spec → same job id); ?wait=1 blocks
//	                               until the job is terminal
//	GET  /v1/jobs                  all jobs, sorted by id
//	GET  /v1/jobs/{id}             job status (progress, run accounting)
//	GET  /v1/jobs/{id}/result      the result bytes — identical for
//	                               every execution of the job, 202 until
//	                               done; unknown ids with a persisted
//	                               spec are replayed transparently
//	GET  /v1/jobs/{id}/stream      JSONL status stream, one line per
//	                               state/progress change, ends when the
//	                               job is terminal
//	GET  /v1/metrics               the service obs registry as JSON
//	GET  /v1/cache                 persistent run-cache statistics
//
// The submitting client is identified by the X-Simd-Client header (or
// ?client=) and only bounds that client's concurrent jobs; it is not
// part of the job's identity.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok", "version": s.version})
	})
	mux.HandleFunc("GET /v1/experiments", s.handleExperiments)
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"jobs": s.Jobs()})
	})
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleStream)
	mux.HandleFunc("GET /v1/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		s.reg.WriteMetricsJSON(w)
	})
	mux.HandleFunc("GET /v1/cache", s.handleCache)
	return mux
}

// maxSpecBytes bounds a job submission's body. A spec naming every
// experiment id is well under 1 KB.
const maxSpecBytes = 64 << 10

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// client identifies the submitting client for admission control.
func client(r *http.Request) string {
	if c := r.Header.Get("X-Simd-Client"); c != "" {
		return c
	}
	return r.URL.Query().Get("client")
}

func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	type exp struct {
		ID    string `json:"id"`
		Title string `json:"title"`
	}
	var out []exp
	for _, e := range experiments.Registry() {
		out = append(out, exp{e.ID, e.Title})
	}
	for _, e := range experiments.Ablations() {
		out = append(out, exp{e.ID, e.Title})
	}
	writeJSON(w, http.StatusOK, map[string]any{"experiments": out})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		code := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			code = http.StatusRequestEntityTooLarge
		}
		writeError(w, code, "decoding spec: %v", err)
		return
	}
	j, created, err := s.Submit(spec, client(r))
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if r.URL.Query().Get("wait") == "1" {
		st := j.Wait()
		writeJSON(w, http.StatusOK, st)
		return
	}
	code := http.StatusOK
	if created {
		code = http.StatusAccepted
	}
	writeJSON(w, code, j.status())
}

// lookup finds a job by id, falling back to replaying a persisted spec
// from a previous daemon run.
func (s *Server) lookup(r *http.Request) (*Job, bool) {
	id := r.PathValue("id")
	if j, ok := s.Job(id); ok {
		return j, true
	}
	return s.Replay(id, client(r))
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	if r.URL.Query().Get("wait") == "1" {
		j.Wait()
	}
	st := j.status()
	switch st.State {
	case StateFailed:
		writeError(w, http.StatusInternalServerError, "job failed: %s", st.Error)
	case StateDone:
		// Serve the stored bytes verbatim: this is the byte-identity
		// contract's last hop.
		w.Header().Set("Content-Type", "application/json")
		w.Write(j.result())
	default:
		writeJSON(w, http.StatusAccepted, st)
	}
}

// handleStream writes one status line per (state, done) change until the
// job is terminal — a poll-free progress feed for long jobs.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	w.Header().Set("Content-Type", "application/jsonl")
	fl, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	st := j.status()
	for {
		if err := enc.Encode(st); err != nil {
			return
		}
		if fl != nil {
			fl.Flush()
		}
		if st.State == StateDone || st.State == StateFailed {
			return
		}
		if s.cfg.Faults.Should(FaultStreamDrop) {
			// Injected client disconnect: cut the stream mid-feed. The
			// job carries on; the result endpoint still serves the full
			// bytes when the client comes back.
			s.cfg.Faults.Recovered(FaultStreamDrop)
			return
		}
		st = j.waitChange(st)
	}
}

func (s *Server) handleCache(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Cache == nil {
		writeJSON(w, http.StatusOK, map[string]any{"enabled": false})
		return
	}
	st := s.cfg.Cache.Stats()
	writeJSON(w, http.StatusOK, map[string]any{
		"enabled": true,
		"dir":     s.cfg.Cache.Dir(),
		"entries": s.cfg.Cache.Len(),
		"hits":    st.Hits, "misses": st.Misses, "corrupt": st.Corrupt,
		"puts": st.Puts, "put_errors": st.PutErrors,
	})
}
