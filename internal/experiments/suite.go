// Package experiments contains one driver per table and figure of the
// paper's evaluation; heterodmr, simd (through internal/simd), the root
// benchmarks and the bench harness regenerate paper artifacts through
// this package. Results are rendered as report.Tables whose rows mirror
// the rows/series the paper reports.
//
// The per-experiment index in DESIGN.md maps each driver to the paper
// artifact and the modules it exercises; EXPERIMENTS.md records
// paper-reported vs measured values.
package experiments

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/dramspec"
	"repro/internal/margin"
	"repro/internal/memctrl"
	"repro/internal/memuse"
	"repro/internal/node"
	"repro/internal/obs"
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
	// Workers sizes each fan-out layer (0 = GOMAXPROCS, 1 = fully
	// sequential): the front-end groups of Run's cell plan, then the
	// rendering of its entries. The layers share no pool: inside the
	// rendering fan-out, the Monte-Carlo ranges of Figs 11 and 17 (and
	// of the margin-aware ablation) and Fig 6's rows fan out again, and
	// Fig 17's cluster simulations that miss the store run on up to
	// Workers goroutines inside their trace batch (shard.Execute). With
	// Shard set, a fleet worker runs each batch on one goroutine. Every
	// experiment's randomness derives positionally from Seed, so output
	// is byte-identical for every worker count.
	Workers int
	// Check runs the conservation self-checks after every node and
	// cluster simulation; violations accumulate on the Suite (read them
	// with Violations). Checks run after each simulation's measurements
	// are taken, so they never change rendered output. A checked cell or
	// cluster simulation is keyed apart from an unchecked one and
	// carries its violations, and what its run observed, in its payload,
	// so checked runs replay from Cache and run on Shard like any other.
	Check bool
	// Obs, when non-nil, collects counters, histograms, and trace events
	// from every simulation the suite runs, plus the suite's own
	// run-table counters (experiments/runcache/*) and its count of
	// in-process front-end recordings (experiments/recordings). Its node
	// cells and cluster simulations run checked, and each payload
	// carries what its run recorded, merged here as the cell or
	// simulation lands, wherever it ran; only the traffic counters above
	// and shard/* depend on where.
	Obs *obs.Registry
	// Cache, when non-nil, persists node-simulation results, Monte-Carlo
	// trial ranges and Fig 17's cluster-simulation summaries across
	// processes: each is looked up in the content-addressed store (keyed
	// under CacheVersion by the fully resolved node config and the
	// profile; a range by its trial configuration, selection, level and
	// bounds; a cluster simulation by its trace spec, resolved node
	// counts, policy, speedups and seed) before it is computed, and every
	// fresh result is written back. Decoded results are bit-exact, so
	// rendered tables are byte-identical whether a unit was simulated or
	// replayed, and a warm Fig 17 simulates nothing.
	Cache *runcache.Cache
	// CacheVersion is the code-version component of persistent cache
	// keys. Empty defaults to runcache.CodeVersion().
	CacheVersion string
	// Shard, when non-nil, sends Run's cell plan to worker processes
	// through the dispatch pool, every missing cell in one Pool.Run (one
	// batch per front-end group), and fans the Monte-Carlo trial ranges
	// and Fig 17's cluster simulations (one batch per trace) out the
	// same way. Results are decoded from the same gob payloads the
	// persistent cache stores and committed in positional order, so
	// rendered output is byte-identical to an in-process run at any
	// worker count — including with workers failing mid-suite (the pool
	// retries on whichever worker frees a slot and falls back to local
	// execution).
	Shard *shard.Pool
}

// Suite carries shared state across experiment drivers: the generated
// DIMM population, the Fig 1 job fractions, and the table of node-level
// simulation results that Run warms and the drivers read. A Suite is
// safe for concurrent use. Concurrent Runs whose plans share a cell each
// run it unless the persistent store coalesces them (runcache.Do); the
// table keeps one of the identical results, and Options.Obs counts that
// cell once.
type Suite struct {
	opt Options

	popOnce sync.Once
	pop     *margin.Population

	fracOnce sync.Once
	frac     memuse.Fractions

	// mu guards the run table and its tallies. Only warm writes runs, and
	// only with whole results, so a failed simulation never leaves a cell
	// behind.
	mu         sync.Mutex
	runs       map[runKey]node.Result
	computed   int // of len(runs): cells simulated for this suite, here or on the fleet
	recorded   int // front ends recorded in this process
	violations []obs.Violation

	// Traffic counters (nil-safe handles; wired from Options.Obs).
	memHits, computedC, recordings *obs.Counter
}

// SeedDefaults applies the suite's seed defaults: seed 0 becomes 1, and
// a seed count of 0 or less becomes 1 in quick mode and 3 otherwise.
func SeedDefaults(seed uint64, seeds int, quick bool) (uint64, int) {
	if seed == 0 {
		seed = 1
	}
	if seeds <= 0 && quick {
		seeds = 1
	} else if seeds <= 0 {
		seeds = 3
	}
	return seed, seeds
}

// New returns a Suite, its options resolved by SeedDefaults.
func New(opt Options) *Suite {
	opt.Seed, opt.Seeds = SeedDefaults(opt.Seed, opt.Seeds, opt.Quick)
	if opt.CacheVersion == "" {
		opt.CacheVersion = runcache.CodeVersion()
	}
	// Nil-safe handles: on a nil registry these are nil *obs.Counter and
	// every Add is a no-op.
	return &Suite{
		opt:        opt,
		runs:       map[runKey]node.Result{},
		memHits:    opt.Obs.Counter("experiments/runcache/mem_hits"),
		computedC:  opt.Obs.Counter("experiments/runcache/computed"),
		recordings: opt.Obs.Counter("experiments/recordings"),
	}
}

// CachedRuns reports how many distinct node simulations the suite has
// materialized so far (executed, or replayed from the persistent cache).
func (s *Suite) CachedRuns() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.runs)
}

// ComputedRuns reports how many node simulations were executed for the
// suite, in this process or on the fleet: CachedRuns minus the
// persistent-cache replays. A fully warm replay reports zero.
func (s *Suite) ComputedRuns() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.computed
}

// Recordings reports how many node front ends the suite recorded in
// this process (shard workers count their own). Run records each front
// end its cells need at most once.
func (s *Suite) Recordings() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recorded
}

// addViolations accumulates conservation violations from a simulation.
func (s *Suite) addViolations(vs []obs.Violation) {
	if len(vs) == 0 {
		return
	}
	s.mu.Lock()
	s.violations = append(s.violations, vs...)
	s.mu.Unlock()
}

// Violations returns every conservation violation the suite's
// simulations reported, sorted so the list is identical for any worker
// count.
func (s *Suite) Violations() []obs.Violation {
	s.mu.Lock()
	out := append([]obs.Violation(nil), s.violations...)
	s.mu.Unlock()
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
	s.fracOnce.Do(func() { s.frac = memuse.Analyze(memuse.Generate(s.usageConfig())) })
	return s.frac
}

// usageConfig is the suite's Fig 1 usage population.
func (s *Suite) usageConfig() memuse.GeneratorConfig {
	return memuse.GeneratorConfig{Jobs: s.opt.jobCount(), Seed: s.opt.Seed}
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
// its renderer reads any, so a miss is a cell the entry's plan left out:
// it panics naming the cell instead of materializing it off the plan.
func (s *Suite) runSeed(h node.Hierarchy, d design, prof workload.Profile, seed uint64) node.Result {
	s.mu.Lock()
	res, ok := s.runs[runKey{hier: h.Name, d: d, bench: prof.Name, seed: seed}]
	s.mu.Unlock()
	if !ok {
		panic(fmt.Sprintf("experiments: cell %s/%s/%s/seed%d (%s, +%s, copy errors %g, DDR5 %t) read but not declared by its entry",
			h.Name, d.repl, prof.Name, seed, d.setting, d.marginMTs, d.copyErrRate, d.ddr5))
	}
	s.memHits.Add(1)
	return res
}

// nodeConfig resolves the full node configuration of one cell. The unit
// that runs the cell carries it, and its persistent-cache key hashes it,
// so the hash covers exactly what the simulation consumes.
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
		Check:         s.opt.Check || s.opt.Obs != nil, // a checked payload carries the observations
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
// The missing cells become shard units (shard.NewNodeUnit) that run
// through materialize, so each front end is recorded at most once and a
// cell the persistent store holds is replayed, not simulated. Only whole
// results enter the table: if the executor fails, warm panics and no
// cell of the plan is added. Each cell that enters the table merges its
// observations into Options.Obs there, under mu, in plan order.
func (s *Suite) warm(cells []cell) {
	var todo []cell
	s.mu.Lock()
	for _, c := range cells {
		if _, ok := s.runs[c.key()]; !ok {
			todo = append(todo, c)
		}
	}
	s.mu.Unlock()
	if len(todo) == 0 {
		return
	}
	units := make([]shard.Unit, len(todo))
	for i, c := range todo {
		units[i] = shard.NewNodeUnit(s.opt.CacheVersion, s.nodeConfig(c), c.prof)
	}
	type landed struct {
		res node.Result
		ob  shard.Observed
	}
	decoded, results := materialize(s, units, func(u shard.Unit, p []byte) (l landed, err error) {
		if u.Node.Cfg.Check {
			l.res, l.ob, err = shard.DecodeCheckedNode(p)
		} else {
			l.res, err = shard.DecodeNodeResult(p)
		}
		return l, err
	})
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, c := range todo {
		if _, ok := s.runs[c.key()]; ok {
			continue // a concurrent warm landed it first
		}
		s.runs[c.key()] = decoded[i].res
		if results[i].Computed {
			s.computed++
			s.computedC.Add(1)
		}
		s.violations = append(s.violations, decoded[i].res.Violations...)
		s.opt.Obs.Merge(decoded[i].ob.Metrics, decoded[i].ob.Events)
	}
}

// materialize runs units through Pool.Run when a fleet is configured and
// otherwise in this process through the executor a fleet worker runs
// (shard.Execute against Cache), fanned out over Workers, and decodes
// each payload. The units whose payloads do not decode (schema drift
// that slipped past the version key) are recomputed here together, so a
// front end they share is recorded once, and each fresh payload is
// stored over its stale entry. It returns the decoded values and the
// results in unit order, a recomputed unit's fresh result included.
func materialize[T any](s *Suite, units []shard.Unit, decode func(shard.Unit, []byte) (T, error)) ([]T, []shard.UnitResult) {
	var results []shard.UnitResult
	if s.opt.Shard != nil {
		results = s.opt.Shard.Run(units)
	} else {
		results = s.execute(units, s.opt.Cache)
	}
	vals := make([]T, len(units))
	var stale []int
	var redo []shard.Unit
	var err error
	for i, r := range results {
		if vals[i], err = decode(units[i], r.Payload); err != nil {
			stale, redo = append(stale, i), append(redo, units[i])
		}
	}
	for j, fresh := range s.execute(redo, nil) {
		i := stale[j]
		if vals[i], err = decode(units[i], fresh.Payload); err != nil {
			panic(fmt.Sprintf("experiments: unit %s: %v", units[i].Key, err))
		}
		if s.opt.Cache != nil {
			// The execute above vetted the key. A failed Put is counted
			// by the store; the unit stays correct, only uncached.
			k, _ := units[i].RunKey()
			_ = s.opt.Cache.Put(k, fresh.Payload)
		}
		results[i] = fresh
	}
	return vals, results
}

// execute runs units in this process through shard.Execute against
// cache and counts the front ends it records. A unit that cannot run
// panics, naming the unit.
func (s *Suite) execute(units []shard.Unit, cache *runcache.Cache) []shard.UnitResult {
	results, recorded, err := shard.Execute(units, cache, s.opt.Workers)
	if err != nil {
		panic(err)
	}
	s.mu.Lock()
	s.recorded += recorded
	s.mu.Unlock()
	s.recordings.Add(uint64(recorded))
	return results
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
