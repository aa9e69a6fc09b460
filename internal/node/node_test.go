package node

import (
	"strings"
	"testing"

	"repro/internal/dramspec"
	"repro/internal/memctrl"
	"repro/internal/workload"
)

func specPoint() dramspec.Config {
	return dramspec.TableII(dramspec.SettingSpec, dramspec.DDR4_3200, 800)
}

func fastPoint() dramspec.Config {
	return dramspec.TableII(dramspec.SettingFreqLatMargin, dramspec.DDR4_3200, 800)
}

// short returns a config sized for unit tests.
func short(h Hierarchy, repl memctrl.Replication, fast *dramspec.Config) Config {
	return Config{
		H:                   h,
		Replication:         repl,
		Spec:                specPoint(),
		Fast:                fast,
		InstructionsPerCore: 30_000,
		WarmupInstructions:  10_000,
		Seed:                1,
	}
}

func TestHierarchiesMatchTableIII(t *testing.T) {
	h1, h2 := Hierarchy1(), Hierarchy2()
	if h1.Cores != 8 || h1.Channels != 1 {
		t.Errorf("Hierarchy1 = %+v", h1)
	}
	if h2.Cores != 16 || h2.Channels != 4 {
		t.Errorf("Hierarchy2 = %+v", h2)
	}
	// L2+L3 per core: 4.5MB (H1), 2.375MB (H2).
	perCore1 := float64(h1.L2PerCoreBytes) + float64(h1.L3TotalBytes)/float64(h1.Cores)
	perCore2 := float64(h2.L2PerCoreBytes) + float64(h2.L3TotalBytes)/float64(h2.Cores)
	if perCore1 != 4.5*(1<<20) {
		t.Errorf("H1 cache/core = %v bytes", perCore1)
	}
	if perCore2 != 2.375*(1<<20) {
		t.Errorf("H2 cache/core = %v bytes", perCore2)
	}
	if len(Hierarchies()) != 2 {
		t.Error("Hierarchies() must return both machines")
	}
}

func TestRunBaseline(t *testing.T) {
	res, err := Run(short(Hierarchy1(), memctrl.ReplicationNone, nil), workload.ByName("lulesh"))
	if err != nil {
		t.Fatal(err)
	}
	if res.ExecPS <= 0 || res.Instructions <= 0 {
		t.Fatalf("degenerate result %+v", res)
	}
	if res.IPC <= 0 || res.IPC > 4*8 {
		t.Errorf("IPC = %v out of range", res.IPC)
	}
	if res.Mem.Reads == 0 {
		t.Error("no DRAM reads")
	}
	if res.BandwidthUtil <= 0 || res.BandwidthUtil > 1 {
		t.Errorf("bandwidth utilization = %v", res.BandwidthUtil)
	}
	if len(res.CoreStats) != 8 {
		t.Errorf("core stats for %d cores", len(res.CoreStats))
	}
	if res.Benchmark != "lulesh" || res.Hierarchy != "Hierarchy1" {
		t.Errorf("labels: %s %s", res.Benchmark, res.Hierarchy)
	}
}

// TestMemTimesAreChannelSums pins the normalization Result.Mem states:
// its *PS times are sums over the channels. On one channel fast mode
// and write mode do not overlap and the bus is busy at most all the
// time, so neither sum can exceed Channels·ExecPS. H2's baseline spends
// longer than ExecPS draining writes on lulesh, which only a sum over
// its four channels can do.
func TestMemTimesAreChannelSums(t *testing.T) {
	fast := fastPoint()
	designs := []struct {
		repl memctrl.Replication
		fast *dramspec.Config
	}{
		{memctrl.ReplicationNone, nil},
		{memctrl.ReplicationHeteroDMR, &fast},
	}
	for _, h := range []Hierarchy{Hierarchy1(), Hierarchy2()} {
		for _, d := range designs {
			for _, bench := range []string{"linpack", "lulesh"} {
				cfg := short(h, d.repl, d.fast)
				cfg.InstructionsPerCore = 40_000
				cfg.WarmupInstructions = 15_000
				res := MustRun(cfg, workload.ByName(bench))
				name := h.Name + " " + d.repl.String() + " " + bench
				span := int64(h.Channels) * res.ExecPS
				if got := res.Mem.FastPS + res.Mem.WriteModePS; got > span {
					t.Errorf("%s: FastPS+WriteModePS = %d ps > Channels·ExecPS = %d ps", name, got, span)
				}
				if res.Mem.BusBusyPS > span {
					t.Errorf("%s: BusBusyPS = %d ps > Channels·ExecPS = %d ps", name, res.Mem.BusBusyPS, span)
				}
				if h.Name == "Hierarchy2" && d.repl == memctrl.ReplicationNone && bench == "lulesh" &&
					res.Mem.WriteModePS <= res.ExecPS {
					t.Errorf("%s: WriteModePS = %d ps <= ExecPS = %d ps; a sum over four channels should exceed it",
						name, res.Mem.WriteModePS, res.ExecPS)
				}
			}
		}
	}
}

// TestRunInvalidHierarchy: a hierarchy without cores or channels, or
// with a channel count that is not a power of two (the router shifts and
// masks), is an error from Run, even in a config whose memory design is
// valid.
func TestRunInvalidHierarchy(t *testing.T) {
	three := Hierarchy1()
	three.Name, three.Channels = "three-channel", 3
	for _, h := range []Hierarchy{{}, three} {
		if _, err := Run(short(h, memctrl.ReplicationNone, nil), workload.ByName("lulesh")); err == nil {
			t.Errorf("invalid hierarchy %+v accepted", h)
		} else if !strings.Contains(err.Error(), "invalid hierarchy") {
			t.Errorf("hierarchy %+v refused for another reason: %v", h, err)
		}
	}
}

// TestRunInvalidProfile: every class of malformed profile that survives
// the footprint scaling is an error from record and Run, not a panic in
// the stream generator. A footprint below 1MB is not among them: the
// scaling clamps it, so it runs.
func TestRunInvalidProfile(t *testing.T) {
	cfg := short(Hierarchy1(), memctrl.ReplicationNone, nil)
	for name, mut := range map[string]func(*workload.Profile){
		"name":      func(p *workload.Profile) { p.Name = "" },
		"suite":     func(p *workload.Profile) { p.Suite = "" },
		"intensity": func(p *workload.Profile) { p.AccessesPerKI = 0 },
		"mlp":       func(p *workload.Profile) { p.MLP = 0 },
		"streams":   func(p *workload.Profile) { p.Streams = 0 },
		"write":     func(p *workload.Profile) { p.WriteFraction = 1 },
		"reuse":     func(p *workload.Profile) { p.ReuseFraction = -0.5 },
		"comm":      func(p *workload.Profile) { p.CommShare = 1 },
	} {
		prof := workload.ByName("hpcg")
		mut(&prof)
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s: panicked: %v", name, r)
				}
			}()
			if _, err := record(cfg, prof); err == nil {
				t.Errorf("%s: record accepted the profile", name)
			}
			if _, err := Run(cfg, prof); err == nil {
				t.Errorf("%s: Run accepted the profile", name)
			}
		}()
	}
	prof := workload.ByName("hpcg")
	prof.FootprintBytes = 1 << 19
	if _, err := record(cfg, prof); err != nil {
		t.Errorf("sub-1MB footprint is clamped, not rejected: %v", err)
	}
}

// TestRunImpossibleConfig: a scale shift that leaves a cache level with
// fewer blocks than ways (11 on Hierarchy1: each 16-way L2 holds 8) or
// with no bytes (25), a zero Spec data rate, a Hetero-DMR Fast point
// with a zero rate, and an unknown replication are errors from Run,
// never panics. The scale errors come from record already; record
// ignores the memory design, but a Replayer refuses it before recording.
func TestRunImpossibleConfig(t *testing.T) {
	scaled := func(shift uint) Config {
		cfg := short(Hierarchy1(), memctrl.ReplicationNone, nil)
		cfg.ScaleShift = shift
		return cfg
	}
	zeroSpec := short(Hierarchy1(), memctrl.ReplicationNone, nil)
	zeroSpec.Spec = dramspec.Config{}
	zeroFast := fastPoint()
	zeroFast.Rate = 0
	for name, c := range map[string]struct {
		cfg    Config
		record bool // record rejects it too
	}{
		"scale-11":  {scaled(11), true},
		"scale-25":  {scaled(25), true},
		"zero-spec": {zeroSpec, false},
		"zero-fast": {short(Hierarchy1(), memctrl.ReplicationHeteroDMR, &zeroFast), false},
		"bad-repl":  {short(Hierarchy1(), memctrl.Replication(9), nil), false},
	} {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s: panicked: %v", name, r)
				}
			}()
			if _, err := record(c.cfg, workload.ByName("hpcg")); (err != nil) != c.record {
				t.Errorf("%s: record returned %v", name, err)
			}
			if _, err := Run(c.cfg, workload.ByName("hpcg")); err == nil {
				t.Errorf("%s: Run accepted the config", name)
			}
			rp := NewReplayer(workload.ByName("hpcg"))
			if _, err := rp.Run(c.cfg); err == nil {
				t.Errorf("%s: Replayer.Run accepted the config", name)
			}
			if rp.Recorded() {
				t.Errorf("%s: Replayer.Run recorded a front end it cannot replay", name)
			}
		}()
	}
}

func TestRunDeterministic(t *testing.T) {
	cfg := short(Hierarchy1(), memctrl.ReplicationNone, nil)
	a := MustRun(cfg, workload.ByName("hpcg"))
	b := MustRun(cfg, workload.ByName("hpcg"))
	if a.ExecPS != b.ExecPS || a.Mem.Reads != b.Mem.Reads {
		t.Errorf("same config diverged: %d vs %d ps, %d vs %d reads",
			a.ExecPS, b.ExecPS, a.Mem.Reads, b.Mem.Reads)
	}
}

func TestHeteroDMRBeatsBaselineOnH1(t *testing.T) {
	fast := fastPoint()
	prof := workload.ByName("hpcg")
	cfgB := short(Hierarchy1(), memctrl.ReplicationNone, nil)
	cfgB.InstructionsPerCore = 60_000
	cfgD := short(Hierarchy1(), memctrl.ReplicationHeteroDMR, &fast)
	cfgD.InstructionsPerCore = 60_000
	base := MustRun(cfgB, prof)
	hdmr := MustRun(cfgD, prof)
	speedup := float64(base.ExecPS) / float64(hdmr.ExecPS)
	if speedup < 1.02 {
		t.Errorf("Hetero-DMR speedup %.3f on bandwidth-bound Hierarchy1, want > 1.02", speedup)
	}
	if speedup > 1.4 {
		t.Errorf("Hetero-DMR speedup %.3f implausibly high", speedup)
	}
}

func TestWriteShareNearFigure15(t *testing.T) {
	res := MustRun(short(Hierarchy1(), memctrl.ReplicationNone, nil), workload.ByName("kripke"))
	if res.WriteShare < 0.05 || res.WriteShare > 0.30 {
		t.Errorf("write share %.3f outside plausible band around 15%%", res.WriteShare)
	}
}

func TestBroadcastWritesUnderReplication(t *testing.T) {
	res := MustRun(short(Hierarchy1(), memctrl.ReplicationFMR, nil), workload.ByName("lulesh"))
	if res.Mem.Writes > 0 && res.Mem.BroadcastWrites != res.Mem.Writes {
		t.Errorf("FMR broadcast %d of %d writes", res.Mem.BroadcastWrites, res.Mem.Writes)
	}
}

func TestErrorInjectionFlowsThrough(t *testing.T) {
	fast := fastPoint()
	cfg := short(Hierarchy1(), memctrl.ReplicationHeteroDMR, &fast)
	cfg.CopyErrorRate = 0.01
	res := MustRun(cfg, workload.ByName("hpcg"))
	if res.Mem.DetectedErrors == 0 {
		t.Error("no detected errors at 1% copy error rate")
	}
	if res.Mem.Corrections != res.Mem.DetectedErrors {
		t.Errorf("corrections %d != detections %d", res.Mem.Corrections, res.Mem.DetectedErrors)
	}
}

func TestHighErrorRateHurtsPerformance(t *testing.T) {
	fast := fastPoint()
	clean := short(Hierarchy1(), memctrl.ReplicationHeteroDMR, &fast)
	dirty := clean
	dirty.CopyErrorRate = 0.05
	prof := workload.ByName("hpcg")
	a := MustRun(clean, prof)
	b := MustRun(dirty, prof)
	if b.ExecPS <= a.ExecPS {
		t.Errorf("5%% error rate did not slow execution: clean=%d dirty=%d", a.ExecPS, b.ExecPS)
	}
}

func TestDRAMAccessOverheadSmall(t *testing.T) {
	// Fig 14: Hetero-DMR's cleaning adds <~a few percent DRAM accesses.
	fast := fastPoint()
	prof := workload.ByName("npb.mg")
	base := MustRun(short(Hierarchy1(), memctrl.ReplicationNone, nil), prof)
	hdmr := MustRun(short(Hierarchy1(), memctrl.ReplicationHeteroDMR, &fast), prof)
	ratio := hdmr.DRAMAccessesPerKI / base.DRAMAccessesPerKI
	if ratio > 1.10 {
		t.Errorf("DRAM access overhead %.3f, want close to 1 (Fig 14 <1%%)", ratio)
	}
}

func TestScaleShiftContract(t *testing.T) {
	// The scale factor must not change what the simulation measures, only
	// its size: runs at different shifts complete and report metrics in
	// the same regime (cache-hit structure is profile-driven, so the
	// DRAM intensity stays within a modest band across shifts).
	prof := workload.ByName("lulesh")
	var apki []float64
	for _, shift := range []uint{3, 4, 6} {
		cfg := short(Hierarchy1(), memctrl.ReplicationNone, nil)
		cfg.ScaleShift = shift
		res := MustRun(cfg, prof)
		if res.ExecPS <= 0 || res.Mem.Reads == 0 {
			t.Fatalf("shift %d produced a degenerate run", shift)
		}
		apki = append(apki, res.DRAMAccessesPerKI)
	}
	for i := 1; i < len(apki); i++ {
		ratio := apki[i] / apki[0]
		if ratio < 0.6 || ratio > 1.7 {
			t.Errorf("apki across shifts diverged: %v", apki)
		}
	}
}
