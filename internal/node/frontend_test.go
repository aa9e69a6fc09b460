package node

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/cache"
	"repro/internal/parallel"
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
// every Fig 12 design, twice over and concurrently, each goroutine into
// an LLC of its own: each replay must equal a standalone Run of the same
// config, and replays must not disturb the shared recording.
func TestFrontEndReplayMatchesRun(t *testing.T) {
	prof := workload.ByName("graph500")
	ds := fig12Designs()
	fe := mustRecord(t, ds[0].config(Hierarchy2(), 3), prof)
	recorded := cache.New(fe.llc.Config())
	recorded.CopyFrom(fe.llc)
	want := make([]Result, len(ds))
	for i, d := range ds {
		want[i] = MustRun(d.config(Hierarchy2(), 3), prof)
	}
	for round := 0; round < 2; round++ {
		got := make([]Result, len(ds))
		errs := make([]error, len(ds))
		var wg sync.WaitGroup
		for i, d := range ds {
			wg.Add(1)
			go func(i int, d goldenDesign) {
				defer wg.Done()
				got[i], errs[i] = fe.replay(d.config(Hierarchy2(), 3), cache.New(fe.llc.Config()))
			}(i, d)
		}
		wg.Wait()
		for i := range ds {
			if errs[i] != nil {
				t.Fatalf("round %d, %s: %v", round, ds[i].name, errs[i])
			}
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("round %d, %s: replay differs from Run", round, ds[i].name)
			}
		}
	}
	if !reflect.DeepEqual(fe.llc, recorded) {
		t.Error("replays changed the recorded LLC")
	}
}

// TestFrontEndRejectsMismatchedConfig pins the replay guard: once a
// Replayer has recorded, a config whose front-end inputs differ from the
// recording is an error, while a checked Run succeeds on a recording
// made without Check and equals a standalone checked Run.
func TestFrontEndRejectsMismatchedConfig(t *testing.T) {
	base := goldenDesigns()[0].config(Hierarchy1(), 1)
	rp := NewReplayer(workload.ByName("lulesh"))
	if _, err := rp.Run(base); err != nil {
		t.Fatalf("matching config rejected: %v", err)
	}
	bad := map[string]func(c *Config){
		"hierarchy": func(c *Config) { c.H = Hierarchy2() },
		"seed":      func(c *Config) { c.Seed = 2 },
		"length":    func(c *Config) { c.InstructionsPerCore++ },
		"warmup":    func(c *Config) { c.WarmupInstructions++ },
		"shift":     func(c *Config) { c.ScaleShift = 5 },
	}
	for name, mutate := range bad {
		cfg := base
		mutate(&cfg)
		if _, err := rp.Run(cfg); err == nil {
			t.Errorf("%s mismatch accepted", name)
		}
	}
	if _, err := rp.Run(base); err != nil {
		t.Errorf("matching config rejected: %v", err)
	}
	checked := base
	checked.Check = true
	if got, err := rp.Run(checked); err != nil {
		t.Errorf("checked config rejected: %v", err)
	} else if want := MustRun(checked, workload.ByName("lulesh")); !reflect.DeepEqual(got, want) {
		t.Error("checked replay differs from a checked Run")
	}
	if _, err := record(Config{}, workload.ByName("lulesh")); err == nil {
		t.Error("record accepted an invalid hierarchy")
	}
}

// TestGroupByFrontEnd pins the front-end identity: cells that differ
// only in their memory design or in Check share a key, defaults are
// applied before comparing, a change to any field record reads splits
// the key (the profile too, which replay cannot check), and
// grouping keeps first-appearance order with keyless items standing
// alone.
func TestGroupByFrontEnd(t *testing.T) {
	prof := workload.ByName("hpcg")
	base := goldenDesigns()[0].config(Hierarchy1(), 1)
	key := FrontEndKeyOf(base, prof)
	for _, d := range goldenDesigns() {
		if FrontEndKeyOf(d.config(Hierarchy1(), 1), prof) != key {
			t.Errorf("design %s changes the front-end identity", d.name)
		}
	}
	explicit := base
	explicit.Seed, explicit.ScaleShift = 0, DefaultScaleShift
	if FrontEndKeyOf(explicit, prof) != key {
		t.Error("defaults are not applied before keying")
	}
	checked := base
	checked.Check = true
	if FrontEndKeyOf(checked, prof) != key {
		t.Error("Check changes the front-end identity")
	}
	split := map[string]func(c *Config, p *workload.Profile){
		"hierarchy": func(c *Config, _ *workload.Profile) { c.H = Hierarchy2() },
		"l3":        func(c *Config, _ *workload.Profile) { c.H.L3TotalBytes /= 2 },
		"benchmark": func(_ *Config, p *workload.Profile) { *p = workload.ByName("lulesh") },
		"footprint": func(_ *Config, p *workload.Profile) { p.FootprintBytes *= 2 },
		"seed":      func(c *Config, _ *workload.Profile) { c.Seed = 2 },
		"length":    func(c *Config, _ *workload.Profile) { c.InstructionsPerCore++ },
		"warmup":    func(c *Config, _ *workload.Profile) { c.WarmupInstructions++ },
		"shift":     func(c *Config, _ *workload.Profile) { c.ScaleShift = 5 },
	}
	for name, mutate := range split {
		cfg, p := base, prof
		mutate(&cfg, &p)
		if FrontEndKeyOf(cfg, p) == key {
			t.Errorf("%s change keeps the front-end identity", name)
		}
	}

	lulesh := workload.ByName("lulesh")
	fmr := goldenDesigns()[4].config(Hierarchy1(), 1)
	cells := []struct {
		cfg  Config
		prof workload.Profile
		mc   bool
	}{{base, prof, false}, {base, lulesh, false}, {fmr, prof, false}, {mc: true}, {fmr, lulesh, false}, {mc: true}}
	idx := make([]int, len(cells))
	for i := range idx {
		idx[i] = i
	}
	got := parallel.GroupBy(idx, func(i int) (FrontEndKey, bool) {
		return FrontEndKeyOf(cells[i].cfg, cells[i].prof), !cells[i].mc
	})
	if want := [][]int{{0, 2}, {1, 4}, {3}, {5}}; !reflect.DeepEqual(got, want) {
		t.Errorf("groups %v, want %v", got, want)
	}
}

// TestReplayerRecordsOnFirstRun: a Replayer records nothing until its
// first Run, then replays that one recording for every design, each
// result equal to a standalone Run; a rejected first config leaves it
// unrecorded. One Replayer runs the six Fig 12 designs in order, and a
// second runs them in reverse with a checked config between two of
// them, so every replay follows a different design (or none) and no
// state a replay leaves behind may reach the next one.
func TestReplayerRecordsOnFirstRun(t *testing.T) {
	prof := workload.ByName("lulesh")
	ds := fig12Designs()
	rp := NewReplayer(prof)
	if rp.Recorded() {
		t.Fatal("fresh Replayer reports a recording")
	}
	if _, err := rp.Run(Config{}); err == nil || rp.Recorded() {
		t.Fatalf("invalid hierarchy: err %v, recorded %v", err, rp.Recorded())
	}
	type step struct {
		name string
		cfg  Config
	}
	var forward, backward []step
	for _, d := range ds {
		forward = append(forward, step{d.name, d.config(Hierarchy1(), 2)})
	}
	for i := len(ds) - 1; i >= 0; i-- {
		backward = append(backward, step{ds[i].name, ds[i].config(Hierarchy1(), 2)})
		if i == 3 {
			checked := ds[i].config(Hierarchy1(), 2)
			checked.Check = true
			backward = append(backward, step{ds[i].name + "/checked", checked})
		}
	}
	for n, steps := range [][]step{forward, backward} {
		if n > 0 {
			rp = NewReplayer(prof)
		}
		first := rp.fe
		for _, s := range steps {
			got, err := rp.Run(s.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if first == nil {
				first = rp.fe
			} else if rp.fe != first {
				t.Errorf("replayer %d, %s: Replayer recorded again", n, s.name)
			}
			if want := MustRun(s.cfg, prof); !reflect.DeepEqual(got, want) {
				t.Errorf("replayer %d, %s: replay differs from Run", n, s.name)
			}
		}
	}
}

func mustRecord(tb testing.TB, cfg Config, prof workload.Profile) *frontEnd {
	tb.Helper()
	fe, err := record(cfg, prof)
	if err != nil {
		tb.Fatal(err)
	}
	return fe
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
		mustRecord(b, cfg, prof)
	}
}

// BenchmarkNodeReplay times a Replayer replaying that front end for the
// six Fig 12 designs (one op = six replays), after its recording Run.
func BenchmarkNodeReplay(b *testing.B) {
	ds := fig12Designs()
	rp := NewReplayer(workload.ByName("hpcg"))
	if _, err := rp.Run(benchKey(ds[0])); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, d := range ds {
			if _, err := rp.Run(benchKey(d)); err != nil {
				b.Fatal(err)
			}
		}
	}
}
