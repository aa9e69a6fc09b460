package shard

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"repro/internal/obs"
	"repro/internal/runcache"
)

// batchPath is the worker's one execution endpoint.
const batchPath = "/shard/v1/batch"

// maxBatchBytes bounds a batch request's body. A node unit is about
// 1.1 KB of JSON and the largest front-end group the experiment suite
// plans holds fewer than 20 units.
const maxBatchBytes = 4 << 20

// Worker executes unit batches on behalf of a coordinator. It is an
// http.Handler factory: one POST /shard/v1/batch endpoint plus /healthz,
// stateless between requests except for the shared run cache — all
// coordination (batching, ordering, retries, dedup) lives on the
// coordinator side, so any number of coordinators can share a worker
// fleet. A batch holds at most one recorded front end at a time, and
// none outlives the request.
type Worker struct {
	version string
	cache   *runcache.Cache

	units      *obs.Counter
	computed   *obs.Counter
	hits       *obs.Counter
	recordings *obs.Counter
	errors     *obs.Counter
}

// batchRequest is the wire body of one dispatch. Key is the first
// unit's key: it names the batch (and joins the coordinator's and the
// worker's trace spans), and the worker refuses a batch whose Key does
// not name its first unit.
type batchRequest struct {
	Key   string `json:"key"`
	Units []Unit `json:"units"`
}

// batchResponse answers a batch with one result per unit, in order.
type batchResponse struct {
	Key     string         `json:"key"`
	Results []unitResponse `json:"results"`
}

// unitResponse is one executed unit. Payload is the exact cache-entry
// byte sequence (base64 on the wire via encoding/json).
type unitResponse struct {
	Key string `json:"key"`
	UnitResult
}

// NewWorker returns a worker that refuses units keyed under any version
// but its own (409) — a skewed coordinator must not poison the shared
// cache — and consults/fills cache (nil = compute-only).
func NewWorker(version string, cache *runcache.Cache, reg *obs.Registry) *Worker {
	return &Worker{
		version:    version,
		cache:      cache,
		units:      reg.Counter("shard/worker/units"),
		computed:   reg.Counter("shard/worker/computed"),
		hits:       reg.Counter("shard/worker/cache_hits"),
		recordings: reg.Counter("shard/worker/recordings"),
		errors:     reg.Counter("shard/worker/errors"),
	}
}

// Handler returns the worker's HTTP surface.
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(rw http.ResponseWriter, _ *http.Request) {
		writeJSON(rw, http.StatusOK, map[string]string{"status": "ok", "version": w.version})
	})
	mux.HandleFunc("POST "+batchPath, w.handleBatch)
	return mux
}

// handleBatch classifies every failure at the boundary: 413 for a body
// over maxBatchBytes; 400 for a body that does not decode, a batch key
// that does not name its first unit, and (naming the unit) a bad unit
// body, a mis-keyed unit or a configuration the simulator rejects; 409
// for a unit built under another code version; 500 only for a failure
// of the worker itself.
func (w *Worker) handleBatch(rw http.ResponseWriter, r *http.Request) {
	var b batchRequest
	if err := json.NewDecoder(http.MaxBytesReader(rw, r.Body, maxBatchBytes)).Decode(&b); err != nil {
		w.errors.Add(1)
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		writeError(rw, status, fmt.Sprintf("decode batch: %v", err))
		return
	}
	if b.Key == "" || len(b.Units) == 0 || b.Units[0].Key != b.Key {
		w.errors.Add(1)
		writeError(rw, http.StatusBadRequest,
			fmt.Sprintf("batch %q of %d units: the key must name the first unit", b.Key, len(b.Units)))
		return
	}
	for _, u := range b.Units {
		if u.Version != w.version {
			w.errors.Add(1)
			writeError(rw, http.StatusConflict,
				fmt.Sprintf("version mismatch: unit %s %q, worker %q", u.Key, u.Version, w.version))
			return
		}
	}
	w.units.Add(uint64(len(b.Units)))
	res, err := w.execute(b.Units)
	if err != nil {
		w.errors.Add(1)
		status := http.StatusInternalServerError
		var ue *unitError
		if errors.As(err, &ue) {
			status = http.StatusBadRequest
		}
		writeError(rw, status, err.Error())
		return
	}
	reply := batchResponse{Key: b.Key, Results: make([]unitResponse, len(res))}
	for i, r := range res {
		if r.Computed {
			w.computed.Add(1)
		} else {
			w.hits.Add(1)
		}
		reply.Results[i] = unitResponse{Key: b.Units[i].Key, UnitResult: r}
	}
	writeJSON(rw, http.StatusOK, reply)
}

// execute runs a batch through Execute, one front-end group at a time,
// with panic recovery: a panic deep in the simulator is a worker fault,
// and a worker must answer 500 and stay up rather than take the whole
// fleet slot down.
func (w *Worker) execute(units []Unit) (results []UnitResult, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("batch %s panicked: %v", units[0].Key, p)
		}
	}()
	results, recorded, err := Execute(units, w.cache, 1)
	w.recordings.Add(uint64(recorded))
	return results, err
}

func writeJSON(rw http.ResponseWriter, status int, v any) {
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(status)
	_ = json.NewEncoder(rw).Encode(v)
}

func writeError(rw http.ResponseWriter, status int, msg string) {
	writeJSON(rw, status, map[string]string{"error": msg})
}
