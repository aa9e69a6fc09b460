package node

import (
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

func TestRunInvalidHierarchy(t *testing.T) {
	_, err := Run(Config{H: Hierarchy{}}, workload.ByName("lulesh"))
	if err == nil {
		t.Fatal("invalid hierarchy accepted")
	}
}

// TestRunInvalidProfile: every class of malformed profile that survives
// the footprint scaling is an error from Record and Run, not a panic in
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
			if _, err := Record(cfg, prof); err == nil {
				t.Errorf("%s: Record accepted the profile", name)
			}
			if _, err := Run(cfg, prof); err == nil {
				t.Errorf("%s: Run accepted the profile", name)
			}
		}()
	}
	prof := workload.ByName("hpcg")
	prof.FootprintBytes = 1 << 19
	if _, err := Record(cfg, prof); err != nil {
		t.Errorf("sub-1MB footprint is clamped, not rejected: %v", err)
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
