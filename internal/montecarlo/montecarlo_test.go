package montecarlo

import (
	"math"
	"testing"
)

func cfg() Config {
	c := DefaultConfig(1)
	c.Trials = 20_000
	return c
}

func TestDefaultConfigSane(t *testing.T) {
	c := DefaultConfig(1)
	if c.ModulesPerChannel != 2 || c.ChannelsPerNode != 12 {
		t.Errorf("config geometry %+v", c)
	}
	if c.MeanMTs < 600 || c.MeanMTs > 900 {
		t.Errorf("fitted mean %v outside the characterization band", c.MeanMTs)
	}
	if c.StdevMTs <= 0 {
		t.Error("zero fitted stdev")
	}
}

func TestChannelLevelMatchesFig11(t *testing.T) {
	c := cfg()
	aware := ChannelLevel(c, MarginAware)
	unaware := ChannelLevel(c, MarginUnaware)
	// Paper: 96% (aware) and 80% (unaware) of channels have >= 0.8 GT/s.
	a8, u8 := aware.FractionAtLeast(800), unaware.FractionAtLeast(800)
	if a8 < 0.88 || a8 > 1.0 {
		t.Errorf("aware channel >=800: %.3f, paper says ~0.96", a8)
	}
	if u8 < 0.65 || u8 > 0.92 {
		t.Errorf("unaware channel >=800: %.3f, paper says ~0.80", u8)
	}
	if a8 <= u8 {
		t.Error("margin-aware selection not better than unaware")
	}
}

func TestNodeLevelMatchesFig11(t *testing.T) {
	c := cfg()
	aware := NodeLevel(c, MarginAware)
	unaware := NodeLevel(c, MarginUnaware)
	// Paper: aware 62% >= 0.8, 98% >= 0.6; unaware 7% >= 0.8, 96% >= 0.6.
	if a8 := aware.FractionAtLeast(800); a8 < 0.40 || a8 > 0.90 {
		t.Errorf("aware node >=800: %.3f, paper says ~0.62", a8)
	}
	if a6 := aware.FractionAtLeast(600); a6 < 0.90 {
		t.Errorf("aware node >=600: %.3f, paper says ~0.98", a6)
	}
	if u8 := unaware.FractionAtLeast(800); u8 > 0.35 {
		t.Errorf("unaware node >=800: %.3f, paper says ~0.07", u8)
	}
	if u6 := unaware.FractionAtLeast(600); u6 < 0.75 {
		t.Errorf("unaware node >=600: %.3f, paper says ~0.96", u6)
	}
}

// TestNodeRateIsChannelRateToTheTwelfth tests EXPERIMENTS.md deviation
// 4: a node's margin is the minimum over ChannelsPerNode independently
// drawn channels, so the node rate at a threshold is the channel rate to
// the ChannelsPerNode-th power, within sampling error. The tolerance is
// four standard errors of the node rate plus the channel rate's standard
// error carried through p^k (delta method: k*p^(k-1)*SE).
func TestNodeRateIsChannelRateToTheTwelfth(t *testing.T) {
	c := DefaultConfig(1)
	n, k := float64(c.Trials), float64(c.ChannelsPerNode)
	se := func(p float64) float64 { return math.Sqrt(p * (1 - p) / n) }
	for _, sel := range []Selection{MarginAware, MarginUnaware} {
		channel, node := ChannelLevel(c, sel), NodeLevel(c, sel)
		for _, mts := range []float64{600, 800} {
			pc, pn := channel.FractionAtLeast(mts), node.FractionAtLeast(mts)
			want := math.Pow(pc, k)
			tol := 4 * (se(pn) + k*math.Pow(pc, k-1)*se(pc))
			if diff := math.Abs(pn - want); diff > tol {
				t.Errorf("%v >=%v MT/s: node %.4f, channel %.4f^%d = %.4f; off by %.4f > %.4f",
					sel, mts, pn, pc, c.ChannelsPerNode, want, diff, tol)
			}
		}
	}
}

func TestGroupsSumToOne(t *testing.T) {
	g := NodeLevel(cfg(), MarginAware).Groups()
	sum := g.At800 + g.At600 + g.Below
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("groups sum %v", sum)
	}
	if g.At800 <= 0 || g.At600 < 0 {
		t.Errorf("degenerate groups %+v", g)
	}
}

func TestMarginsQuantized(t *testing.T) {
	r := ChannelLevel(cfg(), MarginAware)
	for _, m := range r.Margins[:1000] {
		if int(m)%200 != 0 {
			t.Fatalf("margin %v not quantized to BIOS steps", m)
		}
	}
}

func TestNodeMarginNeverAboveChannelCap(t *testing.T) {
	c := cfg()
	r := NodeLevel(c, MarginAware)
	for _, m := range r.Margins[:1000] {
		if m > 800 {
			t.Fatalf("node margin %v beyond the platform cap headroom", m)
		}
	}
}

func TestDeterminism(t *testing.T) {
	c := cfg()
	a := ChannelLevel(c, MarginAware)
	b := ChannelLevel(c, MarginAware)
	for i := range a.Margins[:100] {
		if a.Margins[i] != b.Margins[i] {
			t.Fatal("same-seed Monte Carlo diverged")
		}
	}
}

func TestValidatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero trials accepted")
		}
	}()
	ChannelLevel(Config{ModulesPerChannel: 2, ChannelsPerNode: 12}, MarginAware)
}

func TestSelectionString(t *testing.T) {
	if MarginAware.String() != "margin-aware" || MarginUnaware.String() != "margin-unaware" {
		t.Error("selection names wrong")
	}
}

// TestWorkerCountInvariance pins the sharding contract: the empirical
// distribution is bit-identical no matter how many workers run it.
func TestWorkerCountInvariance(t *testing.T) {
	base := cfg()
	base.Trials = 10_000 // several shards, plus a partial final shard
	seq := base
	seq.Workers = 1
	for _, workers := range []int{2, 4, 16} {
		par := base
		par.Workers = workers
		for _, sel := range []Selection{MarginAware, MarginUnaware} {
			a, b := ChannelLevel(seq, sel), ChannelLevel(par, sel)
			for i := range a.Margins {
				if a.Margins[i] != b.Margins[i] {
					t.Fatalf("%v workers=%d: channel trial %d diverged", sel, workers, i)
				}
			}
			na, nb := NodeLevel(seq, sel), NodeLevel(par, sel)
			for i := range na.Margins {
				if na.Margins[i] != nb.Margins[i] {
					t.Fatalf("%v workers=%d: node trial %d diverged", sel, workers, i)
				}
			}
		}
	}
}
