package node

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/workload"
)

// fig12Designs are the six designs Fig 12 runs per (hierarchy, benchmark,
// seed): the baseline and the five replication bars.
func fig12Designs() []goldenDesign {
	var out []goldenDesign
	for _, d := range goldenDesigns() {
		switch d.name {
		case "spec", "fmr", "hdmr800", "hdmr600", "hdmrfmr800", "hdmrfmr600":
			out = append(out, d)
		}
	}
	return out
}

// TestFrontEndReplayMatchesRun records one front end and replays it for
// every Fig 12 design, twice over and concurrently: each replay must equal
// a standalone Run of the same config, and replays must not disturb the
// shared recording.
func TestFrontEndReplayMatchesRun(t *testing.T) {
	prof := workload.ByName("graph500")
	ds := fig12Designs()
	fe := MustRecord(ds[0].config(Hierarchy2(), 3), prof)
	want := make([]Result, len(ds))
	for i, d := range ds {
		want[i] = MustRun(d.config(Hierarchy2(), 3), prof)
	}
	for round := 0; round < 2; round++ {
		got := make([]Result, len(ds))
		var wg sync.WaitGroup
		for i, d := range ds {
			wg.Add(1)
			go func(i int, d goldenDesign) {
				defer wg.Done()
				got[i] = fe.MustRun(d.config(Hierarchy2(), 3))
			}(i, d)
		}
		wg.Wait()
		for i := range ds {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("round %d, %s: replay differs from Run", round, ds[i].name)
			}
		}
	}
}

// TestFrontEndRejectsMismatchedConfig pins the replay guard: a config
// whose front-end inputs differ from the recording, or that asks for
// Check on a recording made without it, is an error.
func TestFrontEndRejectsMismatchedConfig(t *testing.T) {
	base := goldenDesigns()[0].config(Hierarchy1(), 1)
	fe := MustRecord(base, workload.ByName("lulesh"))
	bad := map[string]func(c *Config){
		"hierarchy": func(c *Config) { c.H = Hierarchy2() },
		"seed":      func(c *Config) { c.Seed = 2 },
		"length":    func(c *Config) { c.InstructionsPerCore++ },
		"warmup":    func(c *Config) { c.WarmupInstructions++ },
		"shift":     func(c *Config) { c.ScaleShift = 5 },
		"check":     func(c *Config) { c.Check = true },
	}
	for name, mutate := range bad {
		cfg := base
		mutate(&cfg)
		if _, err := fe.Run(cfg); err == nil {
			t.Errorf("%s mismatch accepted", name)
		}
	}
	if _, err := fe.Run(base); err != nil {
		t.Errorf("matching config rejected: %v", err)
	}
	if _, err := Record(Config{}, workload.ByName("lulesh")); err == nil {
		t.Error("Record accepted an invalid hierarchy")
	}
}

// benchKey is the Hierarchy2 cell the front-end benchmarks share, at the
// full suite's run length.
func benchKey(d goldenDesign) Config {
	cfg := d.config(Hierarchy2(), 1)
	cfg.InstructionsPerCore, cfg.WarmupInstructions = DefaultInstructions, DefaultWarmup
	return cfg
}

// BenchmarkNodeRecord times recording one full-length Hierarchy2 front
// end: the LLC prefill plus 16 cores' private L1/L2 and prefetchers.
func BenchmarkNodeRecord(b *testing.B) {
	prof := workload.ByName("hpcg")
	cfg := benchKey(fig12Designs()[0])
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MustRecord(cfg, prof)
	}
}

// BenchmarkNodeReplay times replaying that front end for the six Fig 12
// designs (one op = six replays).
func BenchmarkNodeReplay(b *testing.B) {
	prof := workload.ByName("hpcg")
	ds := fig12Designs()
	fe := MustRecord(benchKey(ds[0]), prof)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, d := range ds {
			fe.MustRun(benchKey(d))
		}
	}
}
