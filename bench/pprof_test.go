package main

import (
	"math"
	"os"
	"testing"
)

func TestPackageOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/cache.(*Cache).Fill":                     "repro/internal/cache",
		"sort.partition_func":                                    "sort",
		"internal/reflectlite.Swapper.func3":                     "internal/reflectlite",
		"gcWriteBarrier":                                         "runtime",
		"repro/internal/parallel.MapN[go.shape.*uint8].func1":    "repro/internal/parallel",
		"repro/internal/parallel.Map[go.shape.struct { net/x }]": "repro/internal/parallel",
	} {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestParseTopFixture runs the pprof -top parser and the share
// derivation over a canned listing.
func TestParseTopFixture(t *testing.T) {
	data, err := os.ReadFile("testdata/pprof_top.txt")
	if err != nil {
		t.Fatal(err)
	}
	fns := parseTop(data)
	if len(fns) != 12 {
		t.Errorf("parsed %d functions, want 12 (inline copy merged)", len(fns))
	}
	m := shareMetrics(fns)
	for name, want := range map[string]float64{
		"hpc.cpu_share":        0.50,
		"sort.cpu_share":       0.20,
		"cache.cpu_share":      0.10,
		"cache.fill_cum_share": 0.13,
		"hpc.shadow_cum_share": 0.70,
		"runtime.cpu_share":    0.10,
		"encoding.cpu_share":   0.02,
		"net.cpu_share":        0.01,
		"node.cpu_share":       0,
	} {
		if got := m[name]; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %g, want %g", name, got, want)
		}
	}
}
