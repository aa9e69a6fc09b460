// Package experiments contains one driver per table and figure of the
// paper's evaluation; every cmd/ binary, example, and benchmark
// regenerates paper artifacts through this package. Results are rendered
// as report.Tables whose rows mirror the rows/series the paper reports.
//
// The per-experiment index in DESIGN.md maps each driver to the paper
// artifact and the modules it exercises; EXPERIMENTS.md records
// paper-reported vs measured values.
package experiments

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/dramspec"
	"repro/internal/margin"
	"repro/internal/memctrl"
	"repro/internal/memuse"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/runcache"
	"repro/internal/shard"
	"repro/internal/workload"
)

// Options configure a run of the experiment suite.
type Options struct {
	// Seed drives every synthetic population and simulation.
	Seed uint64
	// Quick shrinks trial counts, instruction budgets, and benchmark
	// coverage (one benchmark per suite) so benches and CI stay fast.
	Quick bool
	// Seeds averages node simulations over this many seeds to damp the
	// run-to-run variance of short measured regions (default: 1 in Quick
	// mode, 3 otherwise).
	Seeds int
	// Workers bounds the worker pool all fan-out layers share: RunAll's
	// per-experiment concurrency, the node-simulation matrix prewarm, and
	// the Monte-Carlo trial shards (0 = GOMAXPROCS, 1 = fully
	// sequential). Every experiment's randomness derives positionally
	// from Seed, so output is byte-identical for every worker count.
	Workers int
	// Check runs the conservation self-checks after every node and
	// cluster simulation; violations accumulate on the Suite (read them
	// with Violations). Checks run after each simulation's measurements
	// are taken, so they never change rendered output.
	Check bool
	// Obs, when non-nil, collects counters, histograms, and trace events
	// from every simulation the suite runs, plus the suite's own
	// run-cache traffic counters (experiments/runcache/*).
	Obs *obs.Registry
	// Cache, when non-nil, persists node-simulation results across
	// processes: on an in-memory miss the suite consults the
	// content-addressed store (keyed by the fully resolved node config,
	// the seed, and CacheVersion) before simulating, and writes every
	// fresh result back. Instrumented runs (Check or Obs set) never use
	// the persistent layer — a replayed result cannot reproduce trace
	// events or re-run conservation checks — but still coalesce in the
	// in-memory layer. Decoded results are bit-exact, so rendered tables
	// are byte-identical whether a cell was simulated or replayed.
	Cache *runcache.Cache
	// CacheVersion is the code-version component of persistent cache
	// keys. Empty defaults to runcache.CodeVersion().
	CacheVersion string
	// Shard, when non-nil, fans the node-simulation matrix prewarm and
	// the Monte-Carlo trial ranges out to worker processes through the
	// dispatch pool. Results are committed in positional order and
	// decoded from the same gob payloads the persistent cache stores,
	// so rendered output is byte-identical to an in-process run at any
	// worker count — including with workers failing mid-suite (the pool
	// retries, requeues, and falls back to local execution).
	// Instrumented runs (Check or Obs set) never shard: a remote result
	// cannot reproduce trace events or conservation checks.
	Shard *shard.Pool
}

// Suite carries shared state across experiment drivers: the generated
// DIMM population, the Fig 1 job fractions, and a cache of node-level
// simulation results so figures 12-16 share runs. A Suite is safe for
// concurrent use by the drivers RunAll fans out.
type Suite struct {
	opt Options

	popOnce sync.Once
	pop     *margin.Population

	fracOnce sync.Once
	frac     memuse.Fractions

	runs runCache

	vmu        sync.Mutex
	violations []obs.Violation
}

// runCache is a singleflight-style concurrent cache of node simulations:
// the first goroutine to request a key materializes it under the entry's
// lock while any concurrent requesters for the same key block on that
// lock, so figures 12-16 share runs without ever duplicating work. When
// a persistent store is attached, an in-memory miss goes through the
// store's Do, which replays a stored cell, waits for a cell another
// suite of this process is computing, or simulates and stores it. The
// entry lock is taken before Do and never inside the computation, which
// takes no cache lock, as Do requires.
type runCache struct {
	m sync.Map // runKey -> *runEntry
	// n counts entries whose result has been materialized (computed or
	// replayed from disk). It is incremented under the entry's lock, in
	// the same critical section that sets done, so it always equals the
	// number of done entries (doneEntries asserts this in tests) — a
	// compute that panics increments nothing.
	n        atomic.Int64
	computed atomic.Int64 // of n: results produced by running a simulation

	store   *runcache.Cache // nil = in-memory only
	version string          // code-version component of persistent keys

	// Traffic counters (nil-safe handles; wired from Options.Obs).
	memHits, diskHits, computedC, encodeErrs *obs.Counter
}

type runEntry struct {
	mu   sync.Mutex
	done bool
	res  node.Result
}

// get returns the cached result for key, materializing it on first use.
// A compute that panics leaves the entry unmaterialized — the panic
// propagates to this caller, the entry's lock is released by the defer,
// and the next caller for the key simply retries — so one failed run can
// never pin a zero-value Result into the suite's averages.
func (c *runCache) get(key runKey, material func() any, compute func() node.Result) node.Result {
	v, _ := c.m.LoadOrStore(key, new(runEntry))
	e := v.(*runEntry)
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.done {
		c.memHits.Add(1)
		return e.res
	}
	if c.store != nil {
		k := runcache.KeyOf(c.version, material())
		payload, computed, err := c.store.Do(k, func() ([]byte, error) {
			e.res = compute()
			return encodeResult(e.res)
		})
		if computed {
			if err != nil {
				// The run stays uncached but correct.
				c.encodeErrs.Add(1)
			}
			return c.materialize(e, e.res, true)
		}
		// A stored cell, or one another suite computed while this one
		// waited: a replay either way.
		if res, err := decodeResult(payload); err == nil {
			return c.materialize(e, res, false)
		}
		// Undecodable payload (schema drift that slipped past the
		// version key): recompute and store over it.
		e.res = compute()
		if payload, err := encodeResult(e.res); err == nil {
			_ = c.store.Put(k, payload)
		} else {
			c.encodeErrs.Add(1)
		}
	} else {
		e.res = compute()
	}
	return c.materialize(e, e.res, true)
}

// materialize marks e done with res, under e's lock, and counts it as
// simulated here or replayed.
func (c *runCache) materialize(e *runEntry, res node.Result, computed bool) node.Result {
	e.res = res
	e.done = true
	c.n.Add(1)
	if computed {
		c.computed.Add(1)
		c.computedC.Add(1)
	} else {
		c.diskHits.Add(1)
	}
	return res
}

// peek reports whether key is already materialized, without computing.
func (c *runCache) peek(key runKey) bool {
	v, ok := c.m.Load(key)
	if !ok {
		return false
	}
	e := v.(*runEntry)
	e.mu.Lock()
	done := e.done
	e.mu.Unlock()
	return done
}

// commit materializes key with a result produced elsewhere (a shard
// worker, decoded from its cache payload). It preserves get's
// accounting invariants — n incremented in the same critical section
// that sets done — and is a no-op on an already-done entry, so a racing
// get and commit agree on a single result.
func (c *runCache) commit(key runKey, res node.Result, computed bool) {
	v, _ := c.m.LoadOrStore(key, new(runEntry))
	e := v.(*runEntry)
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.done {
		return
	}
	// A fleet worker that ran the simulation for this suite's benefit
	// counts as computed, so warm-cache replays still report zero.
	c.materialize(e, res, computed)
}

// size reports how many simulations have been materialized (not just
// keyed): computed plus replayed from the persistent store.
func (c *runCache) size() int { return int(c.n.Load()) }

// computedRuns reports how many simulations were actually executed (disk
// replays excluded).
func (c *runCache) computedRuns() int { return int(c.computed.Load()) }

// doneEntries counts map entries whose result has been materialized. At
// quiescence it must equal size(); the prewarm-sharing test asserts the
// invariant. (Walking locks each entry briefly, so this is test/debug
// surface, not hot path.)
func (c *runCache) doneEntries() int {
	n := 0
	c.m.Range(func(_, v any) bool {
		e := v.(*runEntry)
		e.mu.Lock()
		if e.done {
			n++
		}
		e.mu.Unlock()
		return true
	})
	return n
}

// New returns a Suite. Seed 0 becomes 1.
func New(opt Options) *Suite {
	if opt.Seed == 0 {
		opt.Seed = 1
	}
	if opt.Seeds <= 0 {
		if opt.Quick {
			opt.Seeds = 1
		} else {
			opt.Seeds = 3
		}
	}
	if opt.CacheVersion == "" {
		opt.CacheVersion = runcache.CodeVersion()
	}
	s := &Suite{opt: opt}
	if opt.Cache != nil && !opt.Check && opt.Obs == nil {
		// Persistent layer only for uninstrumented runs: a disk replay
		// skips the simulation, so per-run metrics, traces, and
		// conservation checks would silently vanish from instrumented
		// output. In-memory coalescing still applies either way.
		s.runs.store = opt.Cache
		s.runs.version = opt.CacheVersion
	}
	// Nil-safe handles: on a nil registry these are nil *obs.Counter and
	// every Add is a no-op.
	s.runs.memHits = opt.Obs.Counter("experiments/runcache/mem_hits")
	s.runs.diskHits = opt.Obs.Counter("experiments/runcache/disk_hits")
	s.runs.computedC = opt.Obs.Counter("experiments/runcache/computed")
	s.runs.encodeErrs = opt.Obs.Counter("experiments/runcache/encode_errors")
	return s
}

// CachedRuns reports how many distinct node simulations the suite has
// materialized so far (executed, or replayed from the persistent cache).
func (s *Suite) CachedRuns() int { return s.runs.size() }

// ComputedRuns reports how many node simulations the suite actually
// executed: CachedRuns minus the persistent-cache replays. A fully warm
// replay reports zero.
func (s *Suite) ComputedRuns() int { return s.runs.computedRuns() }

// addViolations accumulates conservation violations from a simulation.
func (s *Suite) addViolations(vs []obs.Violation) {
	if len(vs) == 0 {
		return
	}
	s.vmu.Lock()
	s.violations = append(s.violations, vs...)
	s.vmu.Unlock()
}

// Violations returns every conservation violation the suite's
// simulations reported, sorted so the list is identical for any worker
// count.
func (s *Suite) Violations() []obs.Violation {
	s.vmu.Lock()
	out := append([]obs.Violation(nil), s.violations...)
	s.vmu.Unlock()
	obs.SortViolations(out)
	return out
}

// Population lazily generates the 119-module study population.
func (s *Suite) Population() *margin.Population {
	s.popOnce.Do(func() { s.pop = margin.GeneratePopulation(s.opt.Seed) })
	return s.pop
}

// Fractions lazily computes the Fig 1 job memory-utilization fractions.
func (s *Suite) Fractions() memuse.Fractions {
	s.fracOnce.Do(func() {
		jobs := s.opt.jobCount()
		s.frac = memuse.Analyze(memuse.Generate(memuse.GeneratorConfig{Jobs: jobs, Seed: s.opt.Seed}))
	})
	return s.frac
}

func (o Options) jobCount() int {
	if o.Quick {
		return 5_000
	}
	return 58_000
}

// benchmarks returns the benchmark set: everything, or one per suite in
// Quick mode.
func (s *Suite) benchmarks() []workload.Profile {
	if !s.opt.Quick {
		return workload.Profiles()
	}
	var out []workload.Profile
	seen := map[string]bool{}
	for _, p := range workload.Profiles() {
		if !seen[p.Suite] {
			seen[p.Suite] = true
			out = append(out, p)
		}
	}
	return out
}

// design identifies a memory system under test.
type design struct {
	repl      memctrl.Replication
	setting   dramspec.Setting // operating point of the whole system (Fig 5) or of the fast copies
	marginMTs dramspec.DataRate
}

type runKey struct {
	hier  string
	d     design
	bench string
	seed  uint64
}

// run executes (and caches) one node simulation at one seed.
func (s *Suite) run(h node.Hierarchy, d design, prof workload.Profile) node.Result {
	return s.runSeed(h, d, prof, s.opt.Seed)
}

// nodeConfig resolves the full node configuration for one matrix cell.
// Both the compute path and the persistent-cache key derive from this
// one resolution, so the content hash covers exactly what the simulation
// consumes (instrumentation fields excluded; they never reach the
// persistent layer).
func (s *Suite) nodeConfig(h node.Hierarchy, d design, seed uint64) node.Config {
	spec := dramspec.TableII(dramspec.SettingSpec, dramspec.DDR4_3200, d.marginMTs)
	cfg := node.Config{
		H:           h,
		Replication: d.repl,
		Spec:        spec,
		Seed:        seed,
	}
	if d.repl == memctrl.ReplicationNone && d.setting != dramspec.SettingSpec {
		// Whole-system margin exploitation (Fig 5's real-system settings).
		cfg.Spec = dramspec.TableII(d.setting, dramspec.DDR4_3200, d.marginMTs)
	}
	if d.repl.Fast() {
		fast := dramspec.TableII(dramspec.SettingFreqLatMargin, dramspec.DDR4_3200, d.marginMTs)
		cfg.Fast = &fast
	}
	if s.opt.Quick {
		cfg.InstructionsPerCore = 40_000
		cfg.WarmupInstructions = 15_000
	}
	return cfg
}

// The persistent cache hashes shard.NodeMaterial for one cell: the
// resolved node configuration plus the workload profile the stream
// generator derives from. Every field of both reaches the hash
// (runcache.Canonical panics on anything it cannot cover), so changing
// any config field, the seed, or the profile changes the key. The type
// lives in internal/shard because Canonical embeds the type name in the
// hash: shard workers computing a unit and this suite replaying it must
// hash the identical identity to land on the same cache entry.

func (s *Suite) runSeed(h node.Hierarchy, d design, prof workload.Profile, seed uint64) node.Result {
	return s.runCell(h, d, prof, seed, nil)
}

// runCell is runSeed with an optional shared Replayer: when rp is
// non-nil and the cell has to be simulated, the simulation replays the
// front end rp recorded for the cell's group instead of recording its
// own.
func (s *Suite) runCell(h node.Hierarchy, d design, prof workload.Profile, seed uint64, rp *node.Replayer) node.Result {
	key := runKey{hier: h.Name, d: d, bench: prof.Name, seed: seed}
	return s.runs.get(key, func() any {
		// Material is hashed only on the persistent path, where the run
		// is uninstrumented: Check=false, Obs=nil, ObsScope="".
		return shard.NodeMaterial{Cfg: s.nodeConfig(h, d, seed), Prof: prof}
	}, func() node.Result {
		run := rp
		if run == nil {
			run = node.NewReplayer(prof)
		}
		res, err := run.Run(s.cellConfig(h, d, seed))
		if err != nil {
			panic(err)
		}
		s.addViolations(res.Violations)
		return res
	})
}

// cellConfig is nodeConfig with the suite's instrumentation attached:
// the configuration a cell actually simulates.
func (s *Suite) cellConfig(h node.Hierarchy, d design, seed uint64) node.Config {
	cfg := s.nodeConfig(h, d, seed)
	cfg.Check = s.opt.Check
	cfg.Obs = s.opt.Obs
	return cfg
}

// runReq names one node simulation of the (hierarchy, design, benchmark,
// seed) matrix.
type runReq struct {
	h    node.Hierarchy
	d    design
	prof workload.Profile
	seed uint64
}

// matrix expands hierarchies × designs × benchmarks × configured seeds
// into the run requests a driver is about to consume.
func (s *Suite) matrix(hs []node.Hierarchy, ds []design, profs []workload.Profile) []runReq {
	reqs := make([]runReq, 0, len(hs)*len(ds)*len(profs)*s.opt.Seeds)
	for _, h := range hs {
		for _, d := range ds {
			for _, p := range profs {
				for i := 0; i < s.opt.Seeds; i++ {
					reqs = append(reqs, runReq{h: h, d: d, prof: p, seed: s.opt.Seed + uint64(i)*131})
				}
			}
		}
	}
	return reqs
}

// prewarm fans the given node simulations out on the worker pool. The
// table-building loops that follow then hit the run cache, so drivers
// keep their sequential, paper-ordered rendering while the expensive
// simulation matrix saturates the machine. Requests that race with other
// drivers' identical runs coalesce in the singleflight cache.
//
// Requests are grouped by front-end identity (node.GroupByFrontEnd):
// every memory design of a group shares one node.Replayer, which records
// the front end on the group's first cell that actually simulates and is
// dropped when the group is done. A group whose cells are all cached
// records nothing.
func (s *Suite) prewarm(reqs []runReq) {
	if s.sharded() {
		s.prewarmSharded(reqs)
		return
	}
	groups := node.GroupByFrontEnd(reqs, func(r runReq) (node.FrontEndKey, bool) {
		return node.FrontEndKeyOf(s.cellConfig(r.h, r.d, r.seed), r.prof), true
	})
	parallel.ForEach(s.opt.Workers, len(groups), func(i int) {
		g := groups[i]
		rp := node.NewReplayer(g[0].prof)
		for _, r := range g {
			s.runCell(r.h, r.d, r.prof, r.seed, rp)
		}
	})
}

// suiteAverage averages a per-benchmark metric with the paper's
// equal-suite weighting (every suite counts once regardless of its
// benchmark count).
func (s *Suite) suiteAverage(metric func(prof workload.Profile) float64) float64 {
	bySuite := map[string][]float64{}
	for _, p := range s.benchmarks() {
		bySuite[p.Suite] = append(bySuite[p.Suite], metric(p))
	}
	// Accumulate in sorted-suite order: float addition is not associative,
	// so iterating the map directly would make the last bits of the average
	// depend on Go's randomized iteration order.
	suites := make([]string, 0, len(bySuite))
	for k := range bySuite {
		suites = append(suites, k)
	}
	sort.Strings(suites)
	var total float64
	var n int
	for _, k := range suites {
		vals := bySuite[k]
		var sum float64
		for _, v := range vals {
			sum += v
		}
		total += sum / float64(len(vals))
		n++
	}
	if n == 0 {
		panic("experiments: no benchmarks")
	}
	return total / float64(n)
}

// metric averages f over the configured seeds for one (machine, design,
// benchmark) triple.
func (s *Suite) metric(h node.Hierarchy, d design, prof workload.Profile, f func(node.Result) float64) float64 {
	var sum float64
	for i := 0; i < s.opt.Seeds; i++ {
		sum += f(s.runSeed(h, d, prof, s.opt.Seed+uint64(i)*131))
	}
	return sum / float64(s.opt.Seeds)
}

// speedup returns seed-averaged baseline-exec / design-exec for one
// benchmark.
func (s *Suite) speedup(h node.Hierarchy, d design, prof workload.Profile) float64 {
	var sum float64
	base := design{repl: memctrl.ReplicationNone, setting: dramspec.SettingSpec}
	for i := 0; i < s.opt.Seeds; i++ {
		seed := s.opt.Seed + uint64(i)*131
		b := s.runSeed(h, base, prof, seed)
		r := s.runSeed(h, d, prof, seed)
		sum += float64(b.ExecPS) / float64(r.ExecPS)
	}
	return sum / float64(s.opt.Seeds)
}

// fmtPct renders a fraction as a percentage string.
func fmtPct(f float64) string { return fmt.Sprintf("%.1f%%", 100*f) }
