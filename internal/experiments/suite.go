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
	// Workers bounds the worker pool all fan-out layers share: the
	// front-end groups of Run's cell plan, the rendering of its entries,
	// and the Monte-Carlo trial shards (0 = GOMAXPROCS, 1 = fully
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
	// run-cache traffic counters (experiments/runcache/*) and its count
	// of in-process front-end recordings (experiments/recordings).
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
	// Shard, when non-nil, sends Run's cell plan to worker processes
	// through the dispatch pool, every missing cell in one Pool.Run (one
	// batch per front-end group), and fans the Monte-Carlo trial ranges
	// out the same way. Results are committed in positional order and
	// decoded from the same gob payloads the persistent cache stores,
	// so rendered output is byte-identical to an in-process run at any
	// worker count — including with workers failing mid-suite (the pool
	// retries, requeues, and falls back to local execution).
	// Instrumented runs (Check or Obs set) never shard: a remote result
	// cannot reproduce trace events or conservation checks.
	Shard *shard.Pool
}

// Suite carries shared state across experiment drivers: the generated
// DIMM population, the Fig 1 job fractions, and the table of node-level
// simulation results that Run warms and the drivers read. A Suite is
// safe for concurrent use.
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
	recorded atomic.Int64 // front ends recorded in this process

	store   *runcache.Cache // nil = in-memory only
	version string          // code-version component of persistent keys

	// Traffic counters (nil-safe handles; wired from Options.Obs).
	memHits, diskHits, computedC, encodeErrs, recordings *obs.Counter
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
			return shard.EncodeNodeResult(e.res)
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
		if res, err := shard.DecodeNodeResult(payload); err == nil {
			return c.materialize(e, res, false)
		}
		// Undecodable payload (schema drift that slipped past the
		// version key): recompute and store over it.
		e.res = compute()
		if payload, err := shard.EncodeNodeResult(e.res); err == nil {
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

// record counts one front end recorded in this process.
func (c *runCache) record() {
	c.recorded.Add(1)
	c.recordings.Add(1)
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
	s.runs.recordings = opt.Obs.Counter("experiments/recordings")
	return s
}

// CachedRuns reports how many distinct node simulations the suite has
// materialized so far (executed, or replayed from the persistent cache).
func (s *Suite) CachedRuns() int { return s.runs.size() }

// ComputedRuns reports how many node simulations the suite actually
// executed: CachedRuns minus the persistent-cache replays. A fully warm
// replay reports zero.
func (s *Suite) ComputedRuns() int { return s.runs.computedRuns() }

// Recordings reports how many node front ends the suite recorded in
// this process (shard workers count their own). Run records each front
// end its cells need at most once, so a count above the plan's distinct
// front ends means a driver read a cell its entry did not declare.
func (s *Suite) Recordings() int { return int(s.runs.recorded.Load()) }

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
	// copyErrRate is the fast copies' per-read detected-error
	// probability (abl-errors).
	copyErrRate float64
	// ddr5 puts the node on DDR5-4800 instead of DDR4-3200 (abl-ddr5).
	ddr5 bool
}

// cell names one node simulation of the (hierarchy, design, benchmark,
// seed) matrix.
type cell struct {
	h    node.Hierarchy
	d    design
	prof workload.Profile
	seed uint64
}

// runKey identifies a cell in the suite's table by names, so a render
// loop's look-up never hashes a resolved configuration.
type runKey struct {
	hier  string
	d     design
	bench string
	seed  uint64
}

func (c cell) key() runKey { return runKey{hier: c.h.Name, d: c.d, bench: c.prof.Name, seed: c.seed} }

// run reads one cell at the suite's seed.
func (s *Suite) run(h node.Hierarchy, d design, prof workload.Profile) node.Result {
	return s.runSeed(h, d, prof, s.opt.Seed)
}

// runSeed reads one cell. Run warms every cell an entry declares before
// its renderer reads any; a cell read without being declared is
// simulated here, recording a front end of its own.
func (s *Suite) runSeed(h node.Hierarchy, d design, prof workload.Profile, seed uint64) node.Result {
	return s.runCell(cell{h: h, d: d, prof: prof, seed: seed}, nil)
}

// nodeConfig resolves the full node configuration of one cell. Both the
// compute path and the persistent-cache key derive from this one
// resolution, so the content hash covers exactly what the simulation
// consumes (instrumentation fields excluded; they never reach the
// persistent layer).
func (s *Suite) nodeConfig(c cell) node.Config {
	d := c.d
	spec := dramspec.TableII(dramspec.SettingSpec, dramspec.DDR4_3200, d.marginMTs)
	if d.repl == memctrl.ReplicationNone && d.setting != dramspec.SettingSpec {
		// Whole-system margin exploitation (Fig 5's real-system settings).
		spec = dramspec.TableII(d.setting, dramspec.DDR4_3200, d.marginMTs)
	}
	fast := dramspec.TableII(dramspec.SettingFreqLatMargin, dramspec.DDR4_3200, d.marginMTs)
	if d.ddr5 {
		// The same absolute margin on a DDR5-4800 node (§III-F).
		spec = dramspec.DDR5Config(dramspec.DDR5_4800, 0)
		fast = dramspec.DDR5Config(dramspec.DDR5_4800, d.marginMTs)
	}
	cfg := node.Config{
		H:             c.h,
		Replication:   d.repl,
		Spec:          spec,
		CopyErrorRate: d.copyErrRate,
		Seed:          c.seed,
	}
	if d.repl.Fast() {
		cfg.Fast = &fast
	}
	if s.opt.Quick {
		cfg.InstructionsPerCore = 40_000
		cfg.WarmupInstructions = 15_000
	}
	return cfg
}

// cellConfig is nodeConfig with the suite's instrumentation attached:
// the configuration a cell actually simulates.
func (s *Suite) cellConfig(c cell) node.Config {
	cfg := s.nodeConfig(c)
	cfg.Check = s.opt.Check
	cfg.Obs = s.opt.Obs
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

// runCell materializes one cell. If it has to be simulated, rp replays
// the front end of the cell's group, recording it first when no cell of
// the group has; a nil rp means a Replayer of the cell's own.
func (s *Suite) runCell(c cell, rp *node.Replayer) node.Result {
	return s.runs.get(c.key(), func() any {
		// Material is hashed only on the persistent path, where the run
		// is uninstrumented: Check=false, Obs=nil, ObsScope="".
		return shard.NodeMaterial{Cfg: s.nodeConfig(c), Prof: c.prof}
	}, func() node.Result {
		if rp == nil {
			rp = node.NewReplayer(c.prof)
		}
		recorded := rp.Recorded()
		res, err := rp.Run(s.cellConfig(c))
		if err != nil {
			panic(err)
		}
		if !recorded {
			s.runs.record()
		}
		s.addViolations(res.Violations)
		return res
	})
}

// matrix expands hierarchies × designs × benchmarks × configured seeds
// into the cells an entry declares.
func (s *Suite) matrix(hs []node.Hierarchy, ds []design, profs []workload.Profile) []cell {
	cells := make([]cell, 0, len(hs)*len(ds)*len(profs)*s.opt.Seeds)
	for _, h := range hs {
		for _, d := range ds {
			for _, p := range profs {
				for i := 0; i < s.opt.Seeds; i++ {
					cells = append(cells, cell{h: h, d: d, prof: p, seed: s.opt.Seed + uint64(i)*131})
				}
			}
		}
	}
	return cells
}

// warm materializes every cell of a plan that is not in the table yet.
// The missing cells are grouped by front-end identity
// (node.GroupByFrontEnd) and each group runs once:
//   - sharded, every missing cell goes out in one Pool.Run, which sends
//     one batch per group; a cell whose payload fails to decode (schema
//     drift that slipped past the version key) stays unmaterialized and
//     is simulated locally when a renderer reads it;
//   - locally, the groups run on the worker pool, each through one
//     node.Replayer that records the group's front end on its first
//     cell that actually simulates and is dropped with the group, so at
//     most Workers front ends are alive at once. A group whose cells all
//     replay from the persistent store records nothing.
func (s *Suite) warm(cells []cell) {
	var todo []cell
	for _, c := range cells {
		if !s.runs.peek(c.key()) {
			todo = append(todo, c)
		}
	}
	if len(todo) == 0 {
		return
	}
	if s.sharded() {
		units := make([]shard.Unit, len(todo))
		for i, c := range todo {
			units[i] = shard.NewNodeUnit(s.opt.CacheVersion, s.nodeConfig(c), c.prof)
		}
		for i, r := range s.opt.Shard.Run(units) {
			res, err := shard.DecodeNodeResult(r.Payload)
			if err != nil {
				s.runs.encodeErrs.Add(1)
				continue
			}
			s.runs.commit(todo[i].key(), res, r.Computed)
		}
		return
	}
	groups := node.GroupByFrontEnd(todo, func(c cell) (node.FrontEndKey, bool) {
		return node.FrontEndKeyOf(s.cellConfig(c), c.prof), true
	})
	parallel.ForEach(s.opt.Workers, len(groups), func(i int) {
		rp := node.NewReplayer(groups[i][0].prof)
		for _, c := range groups[i] {
			s.runCell(c, rp)
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
