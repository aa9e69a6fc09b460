package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/backoff"
	"repro/internal/faultinject"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/runcache"
)

// Fault sites injected into the dispatch transport (armed through
// PoolOptions.Faults; see internal/faultinject). Each models a network
// failure shape and exercises the recovery path a real one would take.
// Every site fires at most once per batch dispatch (one POST).
const (
	// FaultPostRefuse fails a dispatch before it leaves (connection
	// refused → retry, breaker pressure).
	FaultPostRefuse faultinject.Site = "shard/post/refuse"
	// FaultPostLatency stalls a dispatch by the rule's delay (congested
	// link; long enough delays trip the pool timeout).
	FaultPostLatency faultinject.Site = "shard/post/latency"
	// FaultPostDrop cuts the connection after the response status, before
	// the body (mid-body drop → retry).
	FaultPostDrop faultinject.Site = "shard/post/drop"
	// FaultPostDup re-delivers the identical request after a success and
	// discards the reply (duplicate delivery; harmless because units are
	// content-addressed and commits are positional and exactly-once).
	FaultPostDup faultinject.Site = "shard/post/dup"
	// FaultPostSkew dispatches the batch under a skewed code version, so
	// the worker's real 409 version check rejects it (deploy skew →
	// retry).
	FaultPostSkew faultinject.Site = "shard/post/skew"
)

// PoolOptions configure a coordinator-side dispatch pool.
type PoolOptions struct {
	// Workers are worker base URLs ("http://host:port"); NewPool
	// requires at least one.
	Workers []string
	// Cache, when non-nil, is consulted before dispatching a unit and
	// filled by local fallback executions. Workers sharing the same
	// store make warm reruns zero-dispatch as well as zero-compute.
	Cache *runcache.Cache
	// InFlight is the number of slot tokens each worker puts in the
	// pool's one dispatch bound, shared by every concurrent Run (default
	// 2: one batch on the wire while one computes keeps a worker busy
	// without queueing work a failed worker would strand). A batch holds
	// a token while it posts to that worker and also while it executes
	// locally in the worker's stead, so local work is bounded too.
	InFlight int
	// Timeout bounds one batch's round trip; an expired dispatch counts
	// as a failure and the batch is retried (default 2m). The batch the
	// straggler eventually finishes is discarded by the client — only
	// the positional commit of the retried dispatch lands.
	Timeout time.Duration
	// Backoff is the retry ladder between a batch's remote attempts:
	// exponential with deterministic jitter (seeded by the batch key), so
	// a retry storm spreads out identically on every run. Its Budget is
	// the total remote-attempt budget per batch before the coordinator
	// gives up on the fleet and computes it locally. Zero fields take
	// backoff defaults.
	Backoff backoff.Policy
	// DeadAfter opens a worker's circuit breaker after this many
	// consecutive failures (default 3); a batch that then draws one of
	// its slot tokens executes locally, so progress is guaranteed even
	// with every worker down.
	DeadAfter int
	// ProbeAfter is how long an open breaker waits before admitting one
	// probe dispatch (default 30s); a successful probe returns the
	// worker to the fleet.
	ProbeAfter time.Duration
	// BaseContext, when non-nil, bounds every Run: its cancellation
	// (SIGTERM) aborts in-flight HTTP dispatches and fast-paths the
	// remaining batches to local execution, so shutdown drains instead of
	// abandoning work.
	BaseContext context.Context
	// Faults arms the dispatch-transport fault sites; nil (production)
	// injects nothing.
	Faults *faultinject.Plan
	// Reg receives the shard/* dispatch counters; nil gives the pool a
	// registry of its own, so Fallbacks can always answer. Unit counters
	// (units, completed, computed, cache_hits, local) count units;
	// transport counters (dispatched, retries, requeued, timeouts) count
	// batch dispatches. A failed dispatch is one retry; requeued counts
	// the retries that waited out their backoff and went back for a slot.
	Reg *obs.Registry
}

// Pool dispatches units to a worker fleet in front-end batches and
// merges results in positional order. It is safe for concurrent use;
// each Run call is independent.
type Pool struct {
	workers []*remoteWorker
	// slots is the pool's one dispatch bound: InFlight tokens per
	// worker, shared by every Run. A batch holds a token while it posts
	// to the token's worker or executes locally in its stead.
	slots   chan *remoteWorker
	cache   *runcache.Cache
	client  *http.Client
	timeout time.Duration
	retry   backoff.Policy
	baseCtx context.Context
	faults  *faultinject.Plan

	unitsC     *obs.Counter
	dispatched *obs.Counter
	completed  *obs.Counter
	retriesC   *obs.Counter
	requeuedC  *obs.Counter
	timeoutsC  *obs.Counter
	computedC  *obs.Counter
	cacheHits  *obs.Counter
	localC     *obs.Counter
}

type remoteWorker struct {
	url string
	br  *breaker
}

// UnitResult is one unit's merged result: the cache-entry payload plus
// whether any process in the fleet actually computed it for this Run.
type UnitResult struct {
	Computed bool   `json:"computed"`
	Payload  []byte `json:"payload"`
}

// NewPool returns a dispatch pool over the given workers. It panics
// when there are none: a pool without workers would have no slot token
// for a batch to draw.
func NewPool(o PoolOptions) *Pool {
	if len(o.Workers) == 0 {
		panic("shard: NewPool needs at least one worker")
	}
	if o.InFlight <= 0 {
		o.InFlight = 2
	}
	if o.Timeout <= 0 {
		o.Timeout = 2 * time.Minute
	}
	if o.DeadAfter <= 0 {
		o.DeadAfter = 3
	}
	if o.ProbeAfter <= 0 {
		o.ProbeAfter = 30 * time.Second
	}
	if o.BaseContext == nil {
		o.BaseContext = context.Background()
	}
	if o.Reg == nil {
		o.Reg = obs.NewRegistry()
	}
	p := &Pool{
		slots:   make(chan *remoteWorker, o.InFlight*len(o.Workers)),
		cache:   o.Cache,
		client:  &http.Client{},
		timeout: o.Timeout,
		retry:   o.Backoff.Default(),
		baseCtx: o.BaseContext,
		faults:  o.Faults,

		unitsC:     o.Reg.Counter("shard/units"),
		dispatched: o.Reg.Counter("shard/dispatched"),
		completed:  o.Reg.Counter("shard/completed"),
		retriesC:   o.Reg.Counter("shard/retries"),
		requeuedC:  o.Reg.Counter("shard/requeued"),
		timeoutsC:  o.Reg.Counter("shard/timeouts"),
		computedC:  o.Reg.Counter("shard/computed"),
		cacheHits:  o.Reg.Counter("shard/cache_hits"),
		localC:     o.Reg.Counter("shard/local"),
	}
	opens := o.Reg.Counter("shard/breaker/open")
	halfopens := o.Reg.Counter("shard/breaker/halfopen")
	closes := o.Reg.Counter("shard/breaker/close")
	deaths := o.Reg.Counter("shard/worker_deaths")
	for _, u := range o.Workers {
		p.workers = append(p.workers, &remoteWorker{url: u, br: &breaker{
			threshold:  o.DeadAfter,
			probeAfter: o.ProbeAfter,
			opens:      opens,
			halfopens:  halfopens,
			closes:     closes,
			deaths:     deaths,
		}})
	}
	// Round-robin, so the first draws spread across the fleet.
	for s := 0; s < o.InFlight; s++ {
		for _, w := range p.workers {
			p.slots <- w
		}
	}
	return p
}

// Run executes the units and returns their results in input order —
// the ordered merge. After a pass over the shared cache, the remaining
// units are grouped into batches by front-end identity
// (node.GroupByFrontEnd; every Monte-Carlo range is a batch of its own),
// and each batch runs on a goroutine of its own under the pool's slot
// bound (runBatch). Each batch's results land in its units' positions;
// callers consume the returned slice sequentially, so downstream
// rendering is byte-identical to a sequential run regardless of worker
// count, batch composition, arrival order, or mid-run worker failures.
// Cancelling the pool's base context aborts in-flight dispatches and
// completes the remaining batches locally: shutdown costs time, never
// output — the returned slice is always complete and correct.
func (p *Pool) Run(units []Unit) []UnitResult {
	n := len(units)
	out := make([]UnitResult, n)
	p.unitsC.Add(uint64(n))

	// Local cache pass: a warm shared store satisfies every unit here,
	// making the rerun zero-dispatch fleet-wide.
	remaining := make([]int, 0, n)
	for i, u := range units {
		if p.cache != nil {
			if k, err := u.RunKey(); err == nil {
				if payload, ok := p.cache.Get(k); ok {
					out[i] = UnitResult{Payload: payload}
					p.cacheHits.Add(1)
					continue
				}
			}
		}
		remaining = append(remaining, i)
	}

	var wg sync.WaitGroup
	for _, b := range node.GroupByFrontEnd(remaining, func(i int) (node.FrontEndKey, bool) { return units[i].frontEnd() }) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			batch := make([]Unit, len(b))
			for j, i := range b {
				batch[j] = units[i]
			}
			for j, r := range p.runBatch(p.baseCtx, batch) {
				out[b[j]] = r
			}
		}()
	}
	wg.Wait()
	return out
}

// Fallbacks reports how many units this pool executed in process
// instead of on a worker (its retry budget spent, every breaker open,
// its context cancelled or its batch refused), out of all the units
// handed to Run so far. A run that asked for a fleet and reads local > 0
// did that much of its work without one.
func (p *Pool) Fallbacks() (local, units uint64) {
	return p.localC.Value(), p.unitsC.Value()
}

// runBatch drives one batch to its results: one attempt per drawn slot
// token until an attempt succeeds. After a failed dispatch it backs off
// and draws again, from whichever worker frees a slot first. Every
// batch completes even if the whole fleet is gone, because an attempt
// executes locally once the retry budget is spent or the context is
// cancelled.
func (p *Pool) runBatch(ctx context.Context, units []Unit) []UnitResult {
	for attempts := 0; ; {
		res, err := p.attempt(ctx, units, attempts)
		if err == nil {
			return res
		}
		attempts++
		// The delay is a deterministic function of (batch key, attempt),
		// so a retry storm spreads identically on every run. A spent
		// budget skips the wait and a cancellation cuts it short; either
		// way the next attempt executes locally.
		if !p.retry.Exhausted(attempts) && p.retry.Wait(ctx, unitSeed(units[0].Key), attempts) {
			p.requeuedC.Add(1)
		}
	}
}

// attempt draws a slot token and, holding it, tries the batch once. It
// executes the batch locally when the retry budget is spent, the
// context is cancelled, or the token's worker has an open breaker;
// otherwise it posts the batch to that worker. It returns an error only
// for a failed dispatch, which the caller retries. A batch the worker
// refused (400) is terminal: its units are malformed, so neither a
// retry nor another worker can help. It executes locally once, and if
// that fails too the panic carries the worker's refusal.
func (p *Pool) attempt(ctx context.Context, units []Unit, attempts int) ([]UnitResult, error) {
	w := <-p.slots // the round trip and its timeout start once a slot is held
	defer func() { p.slots <- w }()
	if ctx.Err() != nil || p.retry.Exhausted(attempts) || !w.br.allow() {
		p.faults.Recovered("shard/recover/local")
		return p.runLocal(units, nil), nil
	}
	res, err := p.post(ctx, w, units)
	var refused *refusedError
	if errors.As(err, &refused) {
		w.br.success() // the worker is alive and answered
		return p.runLocal(units, refused), nil
	}
	if err != nil {
		w.br.failure()
		p.retriesC.Add(1)
		if errors.Is(err, context.DeadlineExceeded) {
			p.timeoutsC.Add(1)
		}
		return nil, err
	}
	w.br.success()
	p.completed.Add(uint64(len(res)))
	for _, r := range res {
		if r.Computed {
			p.computedC.Add(1)
		}
	}
	if attempts > 0 {
		p.faults.Recovered("shard/recover/retry")
	}
	return res, nil
}

// unitSeed hashes a unit key into the backoff jitter seed space
// (FNV-1a; stable across runs and machines).
func unitSeed(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return h.Sum64()
}

// runLocal is the coordinator-side fallback: execute the units in
// process through the executor a worker runs (Execute, one group at a
// time), against the same cache. A unit that cannot execute at all
// (malformed by construction) panics, exactly as the sequential engine
// would; refused, when the batch got here because a worker refused it,
// is named in that panic.
func (p *Pool) runLocal(units []Unit, refused *refusedError) []UnitResult {
	p.localC.Add(uint64(len(units)))
	res, _, err := Execute(units, p.cache, 1)
	if err != nil {
		msg := fmt.Sprintf("shard: local execution of batch %s: %v", units[0].Key, err)
		if refused != nil {
			msg += fmt.Sprintf(" (worker %s refused it: %s)", refused.worker, refused.msg)
		}
		panic(msg)
	}
	return res
}

// refusedError is a worker's 400 answer to a batch: the worker vetted
// the units and refused them, naming the problem in msg.
type refusedError struct {
	worker string
	msg    []byte
}

func (e *refusedError) Error() string {
	return fmt.Sprintf("shard: worker %s refused the batch: %s", e.worker, e.msg)
}

// post round-trips one batch to one worker with the pool's timeout and
// checks that the reply answers exactly the units asked, in order.
func (p *Pool) post(ctx context.Context, w *remoteWorker, units []Unit) ([]UnitResult, error) {
	if p.faults.Should(FaultPostRefuse) {
		p.dispatched.Add(1)
		return nil, fmt.Errorf("shard: worker %s: injected connection refusal", w.url)
	}
	p.faults.Sleep(FaultPostLatency)
	wire := batchRequest{Key: units[0].Key, Units: units}
	if p.faults.Should(FaultPostSkew) {
		// The worker's own 409 check must reject the skewed version —
		// the injection exercises the real guard, not a simulation of it.
		wire.Units = make([]Unit, len(units))
		for j, u := range units {
			u.Version += "+skew"
			wire.Units[j] = u
		}
	}
	body, err := json.Marshal(wire)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(ctx, p.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.url+batchPath, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	p.dispatched.Add(1)
	resp, err := p.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if p.faults.Should(FaultPostDrop) {
		return nil, fmt.Errorf("shard: worker %s: injected mid-body drop", w.url)
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		msg = bytes.TrimSpace(msg)
		if resp.StatusCode == http.StatusBadRequest {
			return nil, &refusedError{worker: w.url, msg: msg}
		}
		return nil, fmt.Errorf("shard: worker %s: %s: %s", w.url, resp.Status, msg)
	}
	var reply batchResponse
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		return nil, fmt.Errorf("shard: worker %s: decode response: %v", w.url, err)
	}
	if reply.Key != wire.Key || len(reply.Results) != len(units) {
		return nil, fmt.Errorf("shard: worker %s answered batch %s with %d results for batch %s of %d units",
			w.url, reply.Key, len(reply.Results), wire.Key, len(units))
	}
	out := make([]UnitResult, len(units))
	for j, r := range reply.Results {
		if r.Key != units[j].Key {
			return nil, fmt.Errorf("shard: worker %s answered key %s for unit %s", w.url, r.Key, units[j].Key)
		}
		out[j] = r.UnitResult
	}
	if p.faults.Should(FaultPostDup) {
		// Duplicate delivery: re-send the identical request and discard
		// the reply. Harmless by design — units are content-addressed and
		// each slot commits exactly once — and the injection proves it.
		if req2, err2 := http.NewRequestWithContext(ctx, http.MethodPost, w.url+batchPath, bytes.NewReader(body)); err2 == nil {
			req2.Header.Set("Content-Type", "application/json")
			if resp2, err2 := p.client.Do(req2); err2 == nil {
				io.Copy(io.Discard, io.LimitReader(resp2.Body, 1<<20))
				resp2.Body.Close()
			}
		}
		p.faults.Recovered(FaultPostDup)
	}
	return out, nil
}
