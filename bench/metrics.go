package main

// metricDef names one reported metric. The end-to-end and per-layer
// lists below are the benchmark's contract: BENCHMARK.json at the
// repository root repeats them (TestBenchmarkJSONMatches pins the two
// together), and every run reports each of them.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the CLIs or the daemon sees, with
// the share of the parent's median by which each may worsen before a
// change counts as a regression.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"cpu_s", "s", "lower", 0.25},
	{"rss_mb", "MB", "lower", 0.25},
}

// driverIDs are the experiment drivers timed individually; every other
// registry entry is summed into experiments.driver_s.rest.
var driverIDs = []string{"fig5", "fig11", "fig12", "fig12d", "fig13", "fig14", "fig15", "fig16", "fig17"}

// simPackages are the node simulator's packages: their flat CPU shares
// sum to the simulator's share of a profile.
var simPackages = []string{"cpu", "cache", "memctrl", "dram", "node", "workload", "heterodmr", "rs"}

// perLayer are the traced run's metrics, one or more per layer. Shares
// are fractions of the profile's CPU samples: flat by package
// ("<pkg>.cpu_share") or cumulative below one function ("*_cum_share").
var perLayer = func() []metricDef {
	ms := []metricDef{
		{"node.cell_ms", "ms", "lower", 0},
		{"node.cell_ms_quick", "ms", "lower", 0},
		{"node.minstr_per_s", "Minstr/s", "higher", 0},
		{"cache.fill_ns", "ns", "lower", 0},
		{"memctrl.read_ns", "ns", "lower", 0},
	}
	for _, p := range simPackages {
		ms = append(ms, metricDef{p + ".cpu_share", "share", "lower", 0})
	}
	ms = append(ms,
		metricDef{"cache.fill_cum_share", "share", "lower", 0},
		metricDef{"cpu.prefetch_l1_cum_share", "share", "lower", 0},
		metricDef{"node.prefill_cum_share", "share", "lower", 0},
		metricDef{"workload.stream_next_cum_share", "share", "lower", 0},
		metricDef{"hpc.sim_s", "s", "lower", 0},
		metricDef{"hpc.jobs_per_s", "1/s", "higher", 0},
		metricDef{"hpc.cpu_share", "share", "lower", 0},
		metricDef{"hpc.shadow_cum_share", "share", "lower", 0},
		metricDef{"sort.cpu_share", "share", "lower", 0},
		metricDef{"montecarlo.trials_per_s", "1/s", "higher", 0},
		metricDef{"montecarlo.cpu_share", "share", "lower", 0},
	)
	for _, id := range append(append([]string(nil), driverIDs...), "rest") {
		ms = append(ms, metricDef{"experiments.driver_s." + id, "s", "lower", 0})
	}
	ms = append(ms,
		metricDef{"experiments.cells", "count", "lower", 0},
		metricDef{"experiments.cells_computed", "count", "lower", 0},
		metricDef{"runcache.get_us", "us", "lower", 0},
		metricDef{"runcache.put_us", "us", "lower", 0},
		metricDef{"runcache.hits", "count", "higher", 0},
		metricDef{"runcache.misses", "count", "lower", 0},
		metricDef{"runcache.puts", "count", "lower", 0},
		metricDef{"runcache.bytes", "bytes", "lower", 0},
		metricDef{"runcache.hit_ratio", "ratio", "higher", 0},
		metricDef{"runcache.cpu_share", "share", "lower", 0},
		metricDef{"encoding.cpu_share", "share", "lower", 0},
		metricDef{"simd.server_ms", "ms", "lower", 0},
		metricDef{"simd.client_overhead_ms", "ms", "lower", 0},
		metricDef{"simd.runs_computed", "count", "lower", 0},
		metricDef{"simd.compute_waste", "ratio", "lower", 0},
		metricDef{"simd.cpu_share", "share", "lower", 0},
		metricDef{"shard.rtt_ms", "ms", "lower", 0},
		metricDef{"shard.unit_ms", "ms", "lower", 0},
		metricDef{"shard.overhead_ms", "ms", "lower", 0},
		metricDef{"shard.units", "count", "lower", 0},
		metricDef{"shard.dispatched", "count", "lower", 0},
		metricDef{"shard.local", "count", "lower", 0},
		metricDef{"shard.retries", "count", "lower", 0},
		metricDef{"shard.cache_hits", "count", "higher", 0},
		metricDef{"shard.compute_waste", "ratio", "lower", 0},
		metricDef{"shard.cpu_share", "share", "lower", 0},
		metricDef{"net.cpu_share", "share", "lower", 0},
		metricDef{"runtime.alloc_mb", "MB", "lower", 0},
		metricDef{"runtime.gc_cycles", "count", "lower", 0},
		metricDef{"runtime.cpu_share", "share", "lower", 0},
		metricDef{"node.sim_instructions", "count", "higher", 0},
		metricDef{"node.sim_exec_ps", "ps", "lower", 0},
		metricDef{"memctrl.dram_accesses", "count", "lower", 0},
		metricDef{"trace.overhead", "ratio", "lower", 0},
	)
	return ms
}()

// metricByName finds a definition in either list.
func metricByName(name string) (metricDef, bool) {
	for _, m := range endToEnd {
		if m.Name == name {
			return m, true
		}
	}
	for _, m := range perLayer {
		if m.Name == name {
			return m, true
		}
	}
	return metricDef{}, false
}
