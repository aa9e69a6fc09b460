package main

import (
	"fmt"
	"time"

	"repro/internal/cache"
	"repro/internal/dramspec"
	"repro/internal/hpc"
	"repro/internal/memctrl"
	"repro/internal/memuse"
	"repro/internal/montecarlo"
	"repro/internal/node"
	"repro/internal/parallel"
	"repro/internal/runcache"
	"repro/internal/shard"
	"repro/internal/workload"
)

// probes times calls into each layer's public functions on fixed,
// seeded inputs, so their numbers compare across workloads and commits.
// The simd and shard layers have no probe: only simd-sweep and
// fleet-sweep report them.
func (b *bench) probes(t *tracer, lm map[string]float64) error {
	payloads, err := b.nodeProbe(t, lm)
	if err != nil {
		return err
	}
	b.cacheProbe(lm)
	b.memctrlProbe(lm)
	b.hpcProbe(t, lm)
	b.montecarloProbe(t, lm)
	return b.runcacheProbe(lm, payloads)
}

// cellDesign is one memory design of the node sample.
type cellDesign struct {
	repl   memctrl.Replication
	margin dramspec.DataRate
}

// cellConfig resolves a node configuration the way the experiment suite
// does for a matrix cell.
func cellConfig(h node.Hierarchy, d cellDesign, seed uint64, quick bool) node.Config {
	cfg := node.Config{
		H:           h,
		Replication: d.repl,
		Spec:        dramspec.TableII(dramspec.SettingSpec, dramspec.DDR4_3200, d.margin),
		Seed:        seed,
	}
	if d.repl.Fast() {
		fast := dramspec.TableII(dramspec.SettingFreqLatMargin, dramspec.DDR4_3200, d.margin)
		cfg.Fast = &fast
	}
	if quick {
		cfg.InstructionsPerCore = 40_000
		cfg.WarmupInstructions = 15_000
	}
	return cfg
}

// nodeProbe times node.Run over a fixed sample of cells — both
// hierarchies × baseline, FMR and Hetero-DMR@0.8GT/s × every benchmark
// profile — at full and quick length, on the default worker pool. It
// also sums the sample's simulated counts, which a simulator-only speed-up
// must leave unchanged, and returns the encoded full-length results as
// run-cache payloads.
func (b *bench) nodeProbe(t *tracer, lm map[string]float64) ([][]byte, error) {
	hs := node.Hierarchies()
	designs := []cellDesign{{memctrl.ReplicationNone, 0}, {memctrl.ReplicationFMR, 0}, {memctrl.ReplicationHeteroDMR, 800}}
	profs := workload.Profiles()
	if b.smoke {
		hs, designs, profs = hs[:1], designs[:1], profs[:2]
	}
	type cell struct {
		h    node.Hierarchy
		d    cellDesign
		prof workload.Profile
	}
	var cells []cell
	for _, h := range hs {
		for _, d := range designs {
			for _, p := range profs {
				cells = append(cells, cell{h, d, p})
			}
		}
	}
	var payloads [][]byte
	for _, quick := range []bool{false, true} {
		durs := make([]float64, len(cells))
		results := make([]node.Result, len(cells))
		parallel.ForEach(0, len(cells), func(i int) {
			c := cells[i]
			id := t.begin("node.run", fmt.Sprintf("%s/%s/%s", c.h.Name, c.d.repl, c.prof.Name), 0)
			start := time.Now()
			results[i] = node.MustRun(cellConfig(c.h, c.d, b.seed, quick), c.prof)
			durs[i] = time.Since(start).Seconds()
			t.end(id, "")
		})
		if quick {
			lm["node.cell_ms_quick"] = summarize(durs).Median * 1e3
			continue
		}
		lm["node.cell_ms"] = summarize(durs).Median * 1e3
		var instr, exec, dram int64
		var busy float64
		for i, r := range results {
			instr += r.Instructions
			exec += r.ExecPS
			dram += int64(r.Mem.Reads + r.Mem.Writes)
			busy += durs[i]
			p, err := shard.EncodeNodeResult(r)
			if err != nil {
				return nil, err
			}
			payloads = append(payloads, p)
		}
		lm["node.minstr_per_s"] = float64(instr) / busy / 1e6
		lm["node.sim_instructions"] = float64(instr)
		lm["node.sim_exec_ps"] = float64(exec)
		lm["memctrl.dram_accesses"] = float64(dram)
	}
	return payloads, nil
}

// probeReps is how many passes each micro-probe makes; it reports the
// median pass.
const probeReps = 3

// cacheProbe times cache.Fill on an L3-geometry cache (Hierarchy1's LLC
// at the default scale) fed by the first benchmark profile's stream.
func (b *bench) cacheProbe(lm map[string]float64) {
	prof := workload.Profiles()[0]
	prof.FootprintBytes >>= node.DefaultScaleShift
	prof.WarmSetBytes >>= node.DefaultScaleShift
	n := 200_000
	if b.smoke {
		n = 20_000
	}
	type access struct {
		addr  uint64
		write bool
	}
	accs := make([]access, 0, n)
	st := prof.NewStream(b.seed, 1<<40)
	for len(accs) < n {
		ev, ok := st.Next()
		if !ok {
			break
		}
		if ev.Kind == workload.Read || ev.Kind == workload.Write {
			accs = append(accs, access{ev.Addr, ev.Kind == workload.Write})
		}
	}
	cfg := cache.Config{
		SizeBytes:  node.Hierarchy1().L3TotalBytes >> node.DefaultScaleShift,
		Ways:       16,
		BlockBytes: 64,
		LatencyPS:  22 * dramspec.Nanosecond,
	}
	per := make([]float64, probeReps)
	for i := range per {
		c := cache.New(cfg)
		start := time.Now()
		for _, a := range accs {
			c.Fill(a.addr, a.write, false)
		}
		per[i] = float64(time.Since(start).Nanoseconds()) / float64(len(accs))
	}
	lm["cache.fill_ns"] = summarize(per).Median
}

// memctrlProbe times a read stream through one Hetero-DMR channel:
// SubmitRead, WaitFor and Release per read, with a write every fourth.
func (b *bench) memctrlProbe(lm map[string]float64) {
	n := 100_000
	if b.smoke {
		n = 10_000
	}
	spec := dramspec.TableII(dramspec.SettingSpec, dramspec.DDR4_3200, 800)
	fast := dramspec.TableII(dramspec.SettingFreqLatMargin, dramspec.DDR4_3200, 800)
	per := make([]float64, probeReps)
	for i := range per {
		c := memctrl.MustNewChannel(memctrl.DefaultConfig(memctrl.ReplicationHeteroDMR, spec, &fast))
		addr := uint64(0)
		start := time.Now()
		for k := 0; k < n; k++ {
			req := c.SubmitRead(addr, c.Now())
			c.WaitFor(req)
			c.Release(req)
			if k%4 == 3 {
				c.SubmitWrite(addr^0x40000, c.Now())
			}
			if k%7 == 0 {
				addr += 8 << 10
			} else {
				addr += 64
			}
		}
		per[i] = float64(time.Since(start).Nanoseconds()) / float64(n)
	}
	lm["memctrl.read_ns"] = summarize(per).Median
}

// hpcProbe times one hpc.Simulate over the Grizzly-scale trace (Quick
// scale in smoke mode) on a conventional cluster.
func (b *bench) hpcProbe(t *tracer, lm map[string]float64) {
	var tr *hpc.Trace
	if b.smoke {
		frac := memuse.Analyze(memuse.Generate(memuse.GeneratorConfig{Jobs: 5_000, Seed: b.seed}))
		tr = hpc.GenerateTrace(6_000, 256, hpc.TracePeriodS/8, hpc.TargetNodeUtil, frac, b.seed)
	} else {
		frac := memuse.Analyze(memuse.Generate(memuse.GeneratorConfig{Jobs: 58_000, Seed: b.seed}))
		tr = hpc.GenerateGrizzlyTrace(frac, b.seed)
	}
	id := t.begin("hpc.simulate", "", 0)
	start := time.Now()
	hpc.Simulate(tr, hpc.UniformCluster(tr.TotalNodes, 0), hpc.PolicyDefault, hpc.ConventionalModel, b.seed)
	d := time.Since(start).Seconds()
	t.end(id, "")
	lm["hpc.sim_s"] = d
	lm["hpc.jobs_per_s"] = float64(len(tr.Jobs)) / d
}

// montecarloProbe times the channel- and node-level margin Monte Carlo
// at the paper's trial count (Quick's in smoke mode).
func (b *bench) montecarloProbe(t *tracer, lm map[string]float64) {
	cfg := montecarlo.DefaultConfig(b.seed)
	if b.smoke {
		cfg.Trials = 20_000
	}
	id := t.begin("montecarlo.levels", "", 0)
	start := time.Now()
	montecarlo.ChannelLevel(cfg, montecarlo.MarginAware)
	montecarlo.NodeLevel(cfg, montecarlo.MarginAware)
	d := time.Since(start).Seconds()
	t.end(id, "")
	lm["montecarlo.trials_per_s"] = 2 * float64(cfg.Trials) / d
}

// runcacheProbe times Cache.Put and Cache.Get of real node-result
// payloads in a fresh cache directory.
func (b *bench) runcacheProbe(lm map[string]float64, payloads [][]byte) error {
	dir, err := b.tempDir("probe-cache")
	if err != nil {
		return err
	}
	c, err := runcache.Open(dir)
	if err != nil {
		return err
	}
	keys := make([]runcache.Key, len(payloads))
	puts := make([]float64, 0, len(payloads))
	for i, p := range payloads {
		keys[i] = runcache.KeyOf("bench-probe", i)
		start := time.Now()
		if err := c.Put(keys[i], p); err != nil {
			return err
		}
		puts = append(puts, float64(time.Since(start).Nanoseconds())/1e3)
	}
	gets := make([]float64, 0, probeReps*len(keys))
	for r := 0; r < probeReps; r++ {
		for _, k := range keys {
			start := time.Now()
			if _, ok := c.Get(k); !ok {
				return fmt.Errorf("runcache probe: entry %s missing after put", k)
			}
			gets = append(gets, float64(time.Since(start).Nanoseconds())/1e3)
		}
	}
	lm["runcache.put_us"] = summarize(puts).Median
	lm["runcache.get_us"] = summarize(gets).Median
	return nil
}
