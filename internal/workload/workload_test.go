package workload

import (
	"math"
	"slices"
	"testing"
)

func TestProfilesValid(t *testing.T) {
	for _, p := range Profiles() {
		if err := p.Validate(); err != nil {
			t.Errorf("profile %s invalid: %v", p.Name, err)
		}
	}
}

// bySuite groups Profiles() by suite, the suites in first-appearance
// order.
func bySuite() (suites []string, profs map[string][]Profile) {
	profs = map[string][]Profile{}
	for _, p := range Profiles() {
		if profs[p.Suite] == nil {
			suites = append(suites, p.Suite)
		}
		profs[p.Suite] = append(profs[p.Suite], p)
	}
	return suites, profs
}

func TestSuiteCoverage(t *testing.T) {
	suites, profs := bySuite()
	if want := []string{"Linpack", "HPCG", "Graph500", "CORAL2", "LULESH", "NPB"}; !slices.Equal(suites, want) {
		t.Fatalf("suites = %v, want the paper's six in order %v", suites, want)
	}
	for _, s := range suites {
		if len(profs[s]) == 0 {
			t.Errorf("suite %s has no benchmarks", s)
		}
	}
	if len(profs["CORAL2"]) != 4 {
		t.Errorf("CORAL2 must have four benchmarks (§II-B), has %d", len(profs["CORAL2"]))
	}
}

func TestByNamePanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown benchmark accepted")
		}
	}()
	ByName("doom")
}

func TestStreamDeterminism(t *testing.T) {
	p := ByName("hpcg")
	a := p.NewStream(42, 50_000)
	b := p.NewStream(42, 50_000)
	for i := 0; ; i++ {
		ea, oka := a.Next()
		eb, okb := b.Next()
		if oka != okb {
			t.Fatalf("streams diverge in length at %d", i)
		}
		if !oka {
			break
		}
		if ea != eb {
			t.Fatalf("streams diverge at event %d: %+v vs %+v", i, ea, eb)
		}
	}
}

func TestStreamSeedsDiffer(t *testing.T) {
	p := ByName("hpcg")
	a := p.NewStream(1, 10_000)
	b := p.NewStream(2, 10_000)
	diff := false
	for i := 0; i < 100; i++ {
		ea, _ := a.Next()
		eb, _ := b.Next()
		if ea != eb {
			diff = true
			break
		}
	}
	if !diff {
		t.Error("different seeds produced identical prefixes")
	}
}

func TestStreamExhaustsBudget(t *testing.T) {
	p := ByName("lulesh")
	s := p.NewStream(7, 20_000)
	var instr int64
	for {
		ev, ok := s.Next()
		if !ok {
			break
		}
		if ev.Kind == Compute {
			instr += ev.Instr
		}
	}
	if instr != 20_000 {
		t.Errorf("emitted %d compute instructions, want exactly 20000", instr)
	}
	if s.remaining != 0 {
		t.Errorf("remaining = %d after exhaustion", s.remaining)
	}
}

// statsFor runs a stream and gathers empirical event statistics.
func statsFor(t *testing.T, name string, instr int64) (reads, writes, comms int, commPS int64, dep int) {
	t.Helper()
	s := ByName(name).NewStream(3, instr)
	for {
		ev, ok := s.Next()
		if !ok {
			return
		}
		switch ev.Kind {
		case Read:
			reads++
			if ev.Dependent {
				dep++
			}
		case Write:
			writes++
		case Comm:
			comms++
			commPS += ev.DurationPS
		}
	}
}

func TestWriteFractionCalibration(t *testing.T) {
	for _, name := range []string{"linpack", "graph500", "lulesh"} {
		p := ByName(name)
		reads, writes, _, _, _ := statsFor(t, name, 3_000_000)
		got := float64(writes) / float64(reads+writes)
		if math.Abs(got-p.WriteFraction) > 0.03 {
			t.Errorf("%s write fraction %.3f, profile says %.3f", name, got, p.WriteFraction)
		}
	}
}

func TestAccessIntensityCalibration(t *testing.T) {
	const instr = 3_000_000
	for _, name := range []string{"hpcg", "npb.bt"} {
		p := ByName(name)
		reads, writes, _, _, _ := statsFor(t, name, instr)
		gotPerKI := float64(reads+writes) / (instr / 1000)
		if gotPerKI < 0.8*p.AccessesPerKI || gotPerKI > 1.2*p.AccessesPerKI {
			t.Errorf("%s accesses/KI = %.1f, profile says %.1f", name, gotPerKI, p.AccessesPerKI)
		}
	}
}

func TestDependentFractionCalibration(t *testing.T) {
	p := ByName("graph500")
	reads, _, _, _, dep := statsFor(t, "graph500", 2_000_000)
	got := float64(dep) / float64(reads)
	if math.Abs(got-p.DependentFrac) > 0.05 {
		t.Errorf("dependent fraction %.3f, want ~%.3f", got, p.DependentFrac)
	}
}

func TestCommEventsEmitted(t *testing.T) {
	_, _, comms, commPS, _ := statsFor(t, "graph500", 5_000_000)
	if comms == 0 || commPS == 0 {
		t.Error("no communication events for a benchmark with CommShare > 0")
	}
}

func TestAddressesWithinFootprint(t *testing.T) {
	p := ByName("quicksilver")
	s := p.NewStream(9, 500_000)
	for {
		ev, ok := s.Next()
		if !ok {
			break
		}
		if ev.Kind == Read || ev.Kind == Write {
			if ev.Addr >= p.FootprintBytes {
				t.Fatalf("address %#x outside footprint %#x", ev.Addr, p.FootprintBytes)
			}
			if ev.Addr%64 != 0 {
				t.Fatalf("address %#x not block-aligned", ev.Addr)
			}
		}
	}
}

func TestStreamingBenchmarkHasSequentialRuns(t *testing.T) {
	// A streaming benchmark must emit block-consecutive addresses on its
	// stream ids (prefetcher food).
	s := ByName("npb.ft").NewStream(11, 500_000)
	lastByStream := map[int]uint64{}
	sequential := 0
	total := 0
	for {
		ev, ok := s.Next()
		if !ok {
			break
		}
		if ev.Kind != Read && ev.Kind != Write {
			continue
		}
		if ev.Stream == 0 {
			continue
		}
		if last, ok := lastByStream[ev.Stream]; ok {
			total++
			if ev.Addr == last+64 {
				sequential++
			}
		}
		lastByStream[ev.Stream] = ev.Addr
	}
	if total == 0 || float64(sequential)/float64(total) < 0.9 {
		t.Errorf("sequential fraction %d/%d too low for a streaming benchmark", sequential, total)
	}
}

func TestNewStreamPanicsOnBadBudget(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero instruction budget accepted")
		}
	}()
	ByName("linpack").NewStream(1, 0)
}

func TestAverageWriteShareNearFifteenPercent(t *testing.T) {
	// Fig 15: writes are ~15% of memory traffic on average across suites.
	var suiteShares []float64
	suites, profs := bySuite()
	for _, suite := range suites {
		var shares []float64
		for _, p := range profs[suite] {
			shares = append(shares, p.WriteFraction)
		}
		var sum float64
		for _, s := range shares {
			sum += s
		}
		suiteShares = append(suiteShares, sum/float64(len(shares)))
	}
	var sum float64
	for _, s := range suiteShares {
		sum += s
	}
	avg := sum / float64(len(suiteShares))
	if avg < 0.10 || avg > 0.18 {
		t.Errorf("average write share %.3f, want ~0.15 (Fig 15)", avg)
	}
}

func TestRunLengthControlsBurstiness(t *testing.T) {
	// Longer run lengths must produce longer sequential runs on average.
	meanRun := func(runLen int) float64 {
		p := ByName("npb.ft")
		p.RunLength = runLen
		s := p.NewStream(13, 400_000)
		var runs, events int
		var last uint64
		inRun := false
		for {
			ev, ok := s.Next()
			if !ok {
				break
			}
			if ev.Kind != Read && ev.Kind != Write {
				continue
			}
			if ev.Stream != 0 && ev.Addr == last+64 {
				if !inRun {
					runs++
					inRun = true
				}
				events++
			} else {
				inRun = false
			}
			last = ev.Addr
		}
		if runs == 0 {
			return 0
		}
		return float64(events) / float64(runs)
	}
	short := meanRun(4)
	long := meanRun(64)
	if long <= short {
		t.Errorf("run length 64 gave mean run %.1f, not above run length 4's %.1f", long, short)
	}
}
