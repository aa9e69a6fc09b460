// Package simd is the simulation service behind cmd/simd: a job
// registry over the experiment engine that turns the batch-oriented
// suite into a long-lived daemon. Clients POST an experiment spec and
// get a deterministic job id (the content hash of the normalized spec
// and the code version); identical submissions — concurrent, repeated,
// or from different clients — coalesce onto one job. With a persistent
// run cache attached, a job replays every node-simulation cell that an
// earlier job, an earlier daemon or another machine on the same store
// has finished, and distinct jobs running at the same time simulate a
// cell they share once: every job's suite goes through the store's Do,
// so a job waits for a cell another job of this daemon is computing
// (runcache.Cache.Do). Another process on the same store shares only
// what is already stored, and without a cache jobs share nothing.
//
// Determinism contract: a job's result bytes depend only on its spec and
// the code version — never on the worker count, on whether cells were
// simulated or replayed from the cache, or on which client asked first.
// The HTTP layer (http.go) serves the result's stored bytes verbatim, so
// byte-identity is end to end.
package simd

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/experiments"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/runcache"
	"repro/internal/shard"
)

// Fault sites injected into the daemon lifecycle (armed through
// Config.Faults; see internal/faultinject).
const (
	// FaultSpecPersist drops a job's spec persist — the crash-shaped
	// failure where the daemon dies before the spec lands. The job still
	// runs; it just cannot be replayed by id after a restart, which is
	// the documented contract of a real persist failure.
	FaultSpecPersist faultinject.Site = "simd/spec/persist"
	// FaultStreamDrop cuts a status stream mid-feed (client disconnect,
	// proxy reset). The job carries on; the client re-attaches or fetches
	// the result, whose bytes are unaffected.
	FaultStreamDrop faultinject.Site = "simd/stream/drop"
)

// Config configures a Server.
type Config struct {
	// Workers bounds each job's worker pool (0 = GOMAXPROCS). Results
	// are byte-identical for every value.
	Workers int
	// MaxJobsPerClient bounds how many of one client's jobs run
	// concurrently; further submissions queue FIFO behind them, so no
	// client can monopolize the pool (default 2).
	MaxJobsPerClient int
	// Cache, when non-nil, persists node-simulation results across jobs
	// and daemon restarts, and stores job specs so any job id can be
	// replayed after a restart.
	Cache *runcache.Cache
	// CacheVersion overrides the code-version component of cache and job
	// keys (default runcache.CodeVersion()).
	CacheVersion string
	// Reg receives the service's metrics: run-cache traffic, job counts,
	// and simulation counts (nil = a fresh registry; read it with
	// Registry).
	Reg *obs.Registry
	// Shard, when non-nil, fans each job's cell plan and Monte-Carlo
	// ranges out to shard worker processes (see internal/shard), checked
	// jobs included: their violations travel inside the cells' results.
	// Output stays byte-identical either way.
	Shard *shard.Pool
	// Faults arms the daemon-lifecycle fault sites; nil (production)
	// injects nothing.
	Faults *faultinject.Plan
}

// Bounds on a JobSpec: far above any real job (the registry and the
// ablations hold 23 ids, and the paper averages 3 seeds), low enough
// that a spec cannot ask the suite for an unbounded cell matrix.
const (
	maxExperiments = 64
	maxSeeds       = 64
)

// JobSpec is the client-visible experiment specification. Its normalized
// form is the job's identity: every field below changes the job id.
type JobSpec struct {
	// Experiments lists registry (or ablation) ids to run, in order.
	// Empty means every registry experiment in paper order.
	Experiments []string `json:"experiments,omitempty"`
	Seed        uint64   `json:"seed,omitempty"`
	Quick       bool     `json:"quick,omitempty"`
	Seeds       int      `json:"seeds,omitempty"`
	// Check runs the conservation self-checks; violations appear in the
	// result. Checked cells are keyed apart from unchecked ones, so a
	// checked job replays only what earlier checked jobs stored.
	Check bool `json:"check,omitempty"`
}

// normalize applies the suite's defaulting rules so equivalent specs
// share one job id, and validates every experiment id and both bounds.
func (sp JobSpec) normalize() (JobSpec, error) {
	if len(sp.Experiments) > maxExperiments {
		return sp, fmt.Errorf("experiments: %d ids, at most %d", len(sp.Experiments), maxExperiments)
	}
	if sp.Seeds > maxSeeds {
		return sp, fmt.Errorf("seeds: %d, at most %d", sp.Seeds, maxSeeds)
	}
	sp.Seed, sp.Seeds = experiments.SeedDefaults(sp.Seed, sp.Seeds, sp.Quick)
	if len(sp.Experiments) == 0 {
		sp.Experiments = nil
	}
	for _, id := range sp.Experiments {
		if _, err := experiments.ByID(id); err != nil {
			return sp, err
		}
	}
	return sp, nil
}

// entries expands the (normalized) spec into the drivers to run.
func (sp JobSpec) entries() []experiments.Entry {
	if len(sp.Experiments) == 0 {
		return experiments.Registry()
	}
	out := make([]experiments.Entry, 0, len(sp.Experiments))
	for _, id := range sp.Experiments {
		e, err := experiments.ByID(id)
		if err != nil {
			panic(err) // normalize validated every id
		}
		out = append(out, e)
	}
	return out
}

// State is a job's lifecycle phase.
type State string

const (
	StateQueued  State = "queued"
	StateRunning State = "running"
	StateDone    State = "done"
	StateFailed  State = "failed"
)

// TableJSON is one rendered experiment table.
type TableJSON struct {
	ID      string     `json:"id"`
	Title   string     `json:"title"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
	Notes   []string   `json:"notes,omitempty"`
}

// Result is a completed job's payload. Its marshaled bytes are stored
// once and served verbatim, so two runs of the same job — cold, cached,
// or after a restart — return identical bytes.
type Result struct {
	ID         string      `json:"id"`
	Spec       JobSpec     `json:"spec"`
	Tables     []TableJSON `json:"tables"`
	Text       string      `json:"text"`
	Violations []string    `json:"violations,omitempty"`
}

// Job is one submitted spec and its lifecycle. All mutable fields are
// guarded by mu; cond broadcasts every change for the stream endpoint.
type Job struct {
	ID   string
	Spec JobSpec

	mu   sync.Mutex
	cond *sync.Cond

	state        State
	done, total  int
	errMsg       string
	resultBytes  []byte
	computedRuns int // simulations executed by this job
	cachedRuns   int // cells materialized (computed + replayed)
}

func newJob(id string, spec JobSpec) *Job {
	j := &Job{ID: id, Spec: spec, state: StateQueued, total: len(spec.entries())}
	j.cond = sync.NewCond(&j.mu)
	return j
}

// Status is the poll/stream payload.
type Status struct {
	ID           string  `json:"id"`
	State        State   `json:"state"`
	Done         int     `json:"done"`
	Total        int     `json:"total"`
	ComputedRuns int     `json:"computed_runs"`
	CachedRuns   int     `json:"cached_runs"`
	Spec         JobSpec `json:"spec"`
	Error        string  `json:"error,omitempty"`
}

func (j *Job) status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return Status{
		ID: j.ID, State: j.state, Done: j.done, Total: j.total,
		ComputedRuns: j.computedRuns, CachedRuns: j.cachedRuns,
		Spec: j.Spec, Error: j.errMsg,
	}
}

func (j *Job) setRunning() {
	j.mu.Lock()
	j.state = StateRunning
	j.cond.Broadcast()
	j.mu.Unlock()
}

// complete stores the result and marks every entry done: a job renders
// through one Suite.Run, so done moves from 0 to total here.
func (j *Job) complete(resultBytes []byte, computed, cached int) {
	j.mu.Lock()
	j.state = StateDone
	j.done = j.total
	j.resultBytes = resultBytes
	j.computedRuns = computed
	j.cachedRuns = cached
	j.cond.Broadcast()
	j.mu.Unlock()
}

func (j *Job) fail(msg string) {
	j.mu.Lock()
	j.state = StateFailed
	j.errMsg = msg
	j.cond.Broadcast()
	j.mu.Unlock()
}

// Wait blocks until the job reaches a terminal state.
func (j *Job) Wait() Status {
	j.mu.Lock()
	for j.state != StateDone && j.state != StateFailed {
		j.cond.Wait()
	}
	j.mu.Unlock()
	return j.status()
}

// waitChange blocks until the job's state differs from the given
// snapshot or the job is terminal, and returns the new status.
func (j *Job) waitChange(prev Status) Status {
	j.mu.Lock()
	for j.state == prev.State && j.state != StateDone && j.state != StateFailed {
		j.cond.Wait()
	}
	j.mu.Unlock()
	return j.status()
}

// result returns the stored result bytes (nil until done).
func (j *Job) result() []byte {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.resultBytes
}

// Server owns the job registry and the per-client admission control.
type Server struct {
	cfg     Config
	version string
	reg     *obs.Registry

	mu   sync.Mutex
	jobs map[string]*Job
	sems map[string]chan struct{}

	submitted, coalesced, completed, failed, replayed *obs.Counter
	runsComputed, runsMaterialized, runsRecorded      *obs.Counter
}

// New returns a Server. The returned server is ready to serve; attach
// its Handler to an http.Server.
func New(cfg Config) *Server {
	if cfg.MaxJobsPerClient <= 0 {
		cfg.MaxJobsPerClient = 2
	}
	if cfg.CacheVersion == "" {
		cfg.CacheVersion = runcache.CodeVersion()
	}
	if cfg.Reg == nil {
		cfg.Reg = obs.NewRegistry()
	}
	s := &Server{
		cfg:     cfg,
		version: cfg.CacheVersion,
		reg:     cfg.Reg,
		jobs:    map[string]*Job{},
		sems:    map[string]chan struct{}{},
	}
	if cfg.Cache != nil {
		cfg.Cache.Observe(s.reg, "simd/runcache")
	}
	s.submitted = s.reg.Counter("simd/jobs/submitted")
	s.coalesced = s.reg.Counter("simd/jobs/coalesced")
	s.completed = s.reg.Counter("simd/jobs/completed")
	s.failed = s.reg.Counter("simd/jobs/failed")
	s.replayed = s.reg.Counter("simd/jobs/replayed")
	s.runsComputed = s.reg.Counter("simd/runs/computed")
	s.runsMaterialized = s.reg.Counter("simd/runs/materialized")
	s.runsRecorded = s.reg.Counter("simd/runs/recordings")
	return s
}

// Registry exposes the service metrics registry.
func (s *Server) Registry() *obs.Registry { return s.reg }

// JobID derives the deterministic id for a normalized spec: the content
// hash of the spec and the code version. Two clients submitting the same
// spec — even across restarts — name the same job.
func (s *Server) JobID(spec JobSpec) string {
	return runcache.KeyOf(s.version, spec).String()
}

// Submit registers (or coalesces onto) the job for spec and starts it,
// subject to the client's concurrency bound. It returns the job and
// whether this call created it.
func (s *Server) Submit(spec JobSpec, client string) (*Job, bool, error) {
	spec, err := spec.normalize()
	if err != nil {
		return nil, false, err
	}
	id := s.JobID(spec)
	s.mu.Lock()
	if j, ok := s.jobs[id]; ok {
		s.mu.Unlock()
		s.coalesced.Add(1)
		return j, false, nil
	}
	j := newJob(id, spec)
	s.jobs[id] = j
	s.mu.Unlock()
	s.submitted.Add(1)
	s.persistSpec(j)
	go s.runJob(j, s.clientSem(client))
	return j, true, nil
}

// Job returns a registered job by id.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs returns every job's status, sorted by id for deterministic
// listings.
func (s *Server) Jobs() []Status {
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	sort.Slice(jobs, func(i, k int) bool { return jobs[i].ID < jobs[k].ID })
	out := make([]Status, len(jobs))
	for i, j := range jobs {
		out[i] = j.status()
	}
	return out
}

// clientSem returns the client's admission semaphore, creating it on
// first use. The empty client shares one "anonymous" bucket.
func (s *Server) clientSem(client string) chan struct{} {
	if client == "" {
		client = "anonymous"
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	sem, ok := s.sems[client]
	if !ok {
		sem = make(chan struct{}, s.cfg.MaxJobsPerClient)
		s.sems[client] = sem
	}
	return sem
}

// runJob executes a job end to end on its own goroutine: acquire the
// client's slot, run its entries as one Suite.Run plan, store the
// result bytes. All job state changes go through Job methods (one lock
// discipline, broadcast on every change).
func (s *Server) runJob(j *Job, sem chan struct{}) {
	sem <- struct{}{}
	defer func() { <-sem }()
	defer func() {
		if r := recover(); r != nil {
			j.fail(fmt.Sprintf("job panicked: %v", r))
			s.failed.Add(1)
		}
	}()
	j.setRunning()

	su := experiments.New(experiments.Options{
		Seed:         j.Spec.Seed,
		Quick:        j.Spec.Quick,
		Seeds:        j.Spec.Seeds,
		Workers:      s.cfg.Workers,
		Check:        j.Spec.Check,
		Cache:        s.cfg.Cache,
		CacheVersion: s.version,
		Shard:        s.cfg.Shard,
	})
	entries := j.Spec.entries()
	tables := su.Run(entries)

	res := Result{ID: j.ID, Spec: j.Spec, Tables: make([]TableJSON, len(tables))}
	for i, t := range tables {
		res.Tables[i] = TableJSON{
			ID: entries[i].ID, Title: t.Title, Columns: t.Columns,
			Rows: t.Rows, Notes: t.Notes,
		}
		res.Text += t.String()
	}
	for _, v := range su.Violations() {
		res.Violations = append(res.Violations, v.String())
	}
	payload, err := json.Marshal(res)
	if err != nil {
		j.fail(fmt.Sprintf("encoding result: %v", err))
		s.failed.Add(1)
		return
	}
	// Count before completing, so a client that sees the job done also
	// sees its runs in the metrics.
	s.completed.Add(1)
	s.runsComputed.Add(uint64(su.ComputedRuns()))
	s.runsMaterialized.Add(uint64(su.CachedRuns()))
	s.runsRecorded.Add(uint64(su.Recordings()))
	j.complete(payload, su.ComputedRuns(), su.CachedRuns())
}

// specsDir is where job specs persist (inside the cache directory) so a
// restarted daemon can replay any job id it has ever accepted.
func (s *Server) specsDir() string {
	if s.cfg.Cache == nil {
		return ""
	}
	return filepath.Join(s.cfg.Cache.Dir(), "jobs")
}

// persistSpec records the job's normalized spec under its id. Failures
// are non-fatal: the job still runs, it just cannot be replayed by id
// after a restart.
func (s *Server) persistSpec(j *Job) {
	dir := s.specsDir()
	if dir == "" {
		return
	}
	if s.cfg.Faults.Should(FaultSpecPersist) {
		s.cfg.Faults.Recovered(FaultSpecPersist)
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return
	}
	payload, err := json.Marshal(j.Spec)
	if err != nil {
		return
	}
	_ = runcache.WriteFileAtomic(filepath.Join(dir, j.ID+".json"), payload)
}

// Drain blocks until every registered job reaches a terminal state or
// ctx expires, reporting whether the registry fully drained. Called
// after the HTTP server stops accepting, so no new jobs race the wait;
// a drained daemon has persisted every completed cell, and whatever the
// window cut short is recomputed or replayed byte-identically by the
// next process.
func (s *Server) Drain(ctx context.Context) bool {
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, st := range s.Jobs() {
			if j, ok := s.Job(st.ID); ok {
				j.Wait()
			}
		}
	}()
	select {
	case <-done:
		return true
	case <-ctx.Done():
		return false
	}
}

// Replay looks up a persisted spec for an id this process has never seen
// (a pre-restart job) and resubmits it. The replayed job re-renders from
// the persistent run cache, so its result bytes match the original.
func (s *Server) Replay(id string, client string) (*Job, bool) {
	dir := s.specsDir()
	if dir == "" {
		return nil, false
	}
	payload, err := os.ReadFile(filepath.Join(dir, id+".json"))
	if err != nil {
		return nil, false
	}
	var spec JobSpec
	if err := json.Unmarshal(payload, &spec); err != nil {
		return nil, false
	}
	j, _, err := s.Submit(spec, client)
	if err != nil || j.ID != id {
		// The spec no longer names this id (code version changed, so the
		// old result is unreproducible by contract): refuse rather than
		// serve bytes under a stale id.
		return nil, false
	}
	s.replayed.Add(1)
	return j, true
}
