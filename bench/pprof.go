package main

import (
	"context"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
)

// fnShare is one function's share of a profile's CPU samples.
type fnShare struct{ flat, cum float64 }

// pprofTop runs the toolchain's pprof over one or more CPU profiles
// (merged) and returns its -top listing of every function.
func pprofTop(ctx context.Context, profiles ...string) ([]byte, error) {
	args := append([]string{"tool", "pprof", "-top", "-nodecount=1000000", "-nodefraction=0", "-edgefraction=0"}, profiles...)
	out, err := exec.CommandContext(ctx, "go", args...).Output()
	if err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			return nil, fmt.Errorf("go tool pprof: %v: %s", err, tail(ee.Stderr))
		}
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	return out, nil
}

// parseTop reads a `pprof -top` listing into per-function shares. Rows
// look like
//
//	2.69s 42.36% 42.36%      2.69s 42.36%  repro/internal/hpc.shadow.func1
//
// and an inlined copy of a function ("name (inline)") is added to the
// function itself.
func parseTop(out []byte) map[string]fnShare {
	fns := map[string]fnShare{}
	for _, line := range strings.Split(string(out), "\n") {
		f := strings.Fields(line)
		if len(f) < 6 || !strings.HasSuffix(f[1], "%") || !strings.HasSuffix(f[4], "%") {
			continue
		}
		flat, err1 := strconv.ParseFloat(strings.TrimSuffix(f[1], "%"), 64)
		cum, err2 := strconv.ParseFloat(strings.TrimSuffix(f[4], "%"), 64)
		if err1 != nil || err2 != nil {
			continue
		}
		name := strings.TrimSuffix(strings.Join(f[5:], " "), " (inline)")
		s := fns[name]
		s.flat += flat / 100
		s.cum += cum / 100
		fns[name] = s
	}
	return fns
}

// packageOf returns the import path of a profiled function:
// "repro/internal/cache.(*Cache).Fill" → "repro/internal/cache". Names
// without a package qualifier are runtime assembly stubs. Type arguments
// ("Map[go.shape...]") can hold slashes, so they are cut off first.
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return "runtime"
	}
	return fn[:slash+1+dot]
}

// shareMetrics derives the per-layer profile metrics from function
// shares: flat CPU share per layer package, and the cumulative share
// below the functions the ROADMAP's front-end and hpc items target.
func shareMetrics(fns map[string]fnShare) map[string]float64 {
	byPkg := map[string]float64{}
	for fn, s := range fns {
		byPkg[packageOf(fn)] += s.flat
	}
	sum := func(match func(pkg string) bool) float64 {
		var t float64
		for p, v := range byPkg {
			if match(p) {
				t += v
			}
		}
		return t
	}
	m := map[string]float64{}
	for _, p := range append(append([]string(nil), simPackages...), "hpc", "montecarlo", "runcache", "simd", "shard") {
		m[p+".cpu_share"] = byPkg["repro/internal/"+p]
	}
	m["sort.cpu_share"] = byPkg["sort"]
	m["encoding.cpu_share"] = sum(func(p string) bool { return strings.HasPrefix(p, "encoding/") })
	m["net.cpu_share"] = sum(func(p string) bool { return p == "net" || strings.HasPrefix(p, "net/") })
	m["runtime.cpu_share"] = sum(func(p string) bool {
		return p == "runtime" || strings.HasPrefix(p, "runtime/") || strings.HasPrefix(p, "internal/runtime/")
	})
	for metric, fn := range map[string]string{
		"cache.fill_cum_share":           "repro/internal/cache.(*Cache).Fill",
		"cpu.prefetch_l1_cum_share":      "repro/internal/cpu.(*Core).prefetchL1",
		"node.prefill_cum_share":         "repro/internal/node.prefillL3",
		"workload.stream_next_cum_share": "repro/internal/workload.(*Stream).Next",
		"hpc.shadow_cum_share":           "repro/internal/hpc.shadow",
	} {
		m[metric] = fns[fn].cum
	}
	return m
}
