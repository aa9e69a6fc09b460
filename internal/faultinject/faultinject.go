// Package faultinject is the deterministic fault-injection framework
// behind the chaos suite: a seeded schedule of injected failures threaded
// through the distributed substrate (the persistent run cache's disk I/O,
// the shard dispatch transport, and the simd daemon lifecycle).
//
// A Plan maps fault sites — stable "/"-separated names declared as typed
// constants in the package that owns the fault (runcache.FaultPutTorn,
// shard.FaultPostRefuse, ...) — to firing rules. Decisions are driven by
// xrand positional seeds: the verdict of the n-th hit at a site is a pure
// function of (plan seed, site name, n), so a fault schedule replays
// identically for a given seed and per-site hit order. Which operation
// receives the n-th verdict can vary with goroutine interleaving; the
// headline invariant does not care, because every injected fault must be
// recovered from — at any seed, suite output is byte-identical to the
// fault-free run. Degradation may cost time, never correctness.
//
// Arming follows the repository's hook idiom (noPool): layers
// carry an optional *Plan and a nil plan is a no-op on every method, so
// the production path pays one nil check per site. Real
// binaries arm plans from the -faults flag or the REPRO_FAULTS
// environment variable (which spawned shard workers inherit); tests build
// plans directly. The scanparity-style faultsite analyzer requires every
// declared site to be referenced from an in-package test, so no fault
// site can exist without a test exercising its recovery.
//
// Every fire increments fault/injected/<site> in the observed registry,
// and layers report their recovery actions through Recovered, which
// increments fault/recovered/<site> — the chaos suite asserts both that
// faults actually fired and that the output bytes did not move.
package faultinject

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/xrand"
)

// Site names one fault injection point ("runcache/put/torn"). Sites are
// declared as typed constants in the package that injects them; the
// faultsite analyzer enforces that each declaration is referenced from an
// in-package test.
type Site string

// EnvVar is the environment variable real binaries read fault plans
// from. Spawned shard worker subprocesses inherit it, so one setting
// arms an entire local fleet.
const EnvVar = "REPRO_FAULTS"

// Rule is one site's firing schedule.
type Rule struct {
	// P is the per-hit firing probability in [0, 1]. The n-th hit draws
	// xrand.NewAt(siteSeed, n).Float64() < P — deterministic per (seed,
	// site, n).
	P float64
	// Count bounds the total fires at this site (0 = unlimited).
	Count int
	// After skips the first After hits entirely (arm a fault "mid-run").
	After int
	// Delay is how long Sleep stalls when the site fires (default
	// DefaultDelay).
	Delay time.Duration
}

// DefaultDelay is the stall Sleep injects when the rule sets none.
const DefaultDelay = 25 * time.Millisecond

type siteState struct {
	rule      Rule
	seed      uint64
	hits      atomic.Uint64 // total Should calls (the positional draw index)
	fired     atomic.Uint64 // Count-gate claims (may exceed Count by racing losers)
	injectedN atomic.Uint64 // actual fires
	injected  *obs.Counter
	recovered *obs.Counter
}

// Plan is a seeded fault schedule. The zero Plan is not usable; use New
// or Parse. A nil *Plan is valid and never fires — layers hold a nil
// plan in production.
type Plan struct {
	seed uint64

	mu    sync.RWMutex
	sites map[Site]*siteState
	reg   *obs.Registry
}

// New returns an empty plan with the given seed; arm sites with Arm.
func New(seed uint64) *Plan {
	return &Plan{seed: seed, sites: map[Site]*siteState{}}
}

// Seed returns the plan's seed.
func (p *Plan) Seed() uint64 {
	if p == nil {
		return 0
	}
	return p.seed
}

// fnv64a hashes a site name to its positional index in the plan's seed
// space (FNV-1a; stable across runs and machines).
func fnv64a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Arm installs (or replaces) a site's rule. Safe to call before or after
// Observe.
func (p *Plan) Arm(site Site, rule Rule) *Plan {
	if p == nil {
		return nil
	}
	if rule.Delay <= 0 {
		rule.Delay = DefaultDelay
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	st := &siteState{rule: rule, seed: xrand.SplitMix(p.seed, fnv64a(string(site)))}
	if p.reg != nil {
		st.injected = p.reg.Counter("fault/injected/" + string(site))
		st.recovered = p.reg.Counter("fault/recovered/" + string(site))
	}
	p.sites[site] = st
	return p
}

// Observe mirrors the plan's fire and recovery counts into reg as
// fault/injected/<site> and fault/recovered/<site>.
func (p *Plan) Observe(reg *obs.Registry) *Plan {
	if p == nil || reg == nil {
		return p
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.reg = reg
	for site, st := range p.sites {
		st.injected = reg.Counter("fault/injected/" + string(site))
		st.recovered = reg.Counter("fault/recovered/" + string(site))
	}
	return p
}

// Sites returns the armed site names in sorted order.
func (p *Plan) Sites() []Site {
	if p == nil {
		return nil
	}
	p.mu.RLock()
	defer p.mu.RUnlock()
	out := make([]Site, 0, len(p.sites))
	for s := range p.sites {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (p *Plan) site(s Site) *siteState {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.sites[s]
}

// Should reports whether the fault at site fires on this hit, and counts
// the fire. The verdict of hit n is xrand.NewAt(siteSeed, n).Float64() <
// P, filtered by the rule's After/Count windows — a pure function of the
// hit index, so a single-threaded caller replays the exact same schedule
// at the same seed. Always false on a nil plan or an unarmed site.
func (p *Plan) Should(site Site) bool {
	if p == nil {
		return false
	}
	st := p.site(site)
	if st == nil {
		return false
	}
	n := st.hits.Add(1) - 1
	if n < uint64(st.rule.After) {
		return false
	}
	if xrand.NewAt(st.seed, n).Float64() >= st.rule.P {
		return false
	}
	if st.rule.Count > 0 && st.fired.Add(1) > uint64(st.rule.Count) {
		return false
	}
	st.injectedN.Add(1)
	st.injected.Add(1)
	return true
}

// Sleep stalls for the site's Delay when the fault fires (latency
// injection), reporting whether it did.
func (p *Plan) Sleep(site Site) bool {
	if !p.Should(site) {
		return false
	}
	time.Sleep(p.site(site).rule.Delay)
	return true
}

// Recovered records one recovery action for site — the layer detected a
// fault (injected or real) and degraded gracefully instead of corrupting
// output. Counted even for unarmed sites, so real-world recoveries are
// visible whenever a plan is attached; no-op on a nil plan.
func (p *Plan) Recovered(site Site) {
	if p == nil {
		return
	}
	st := p.site(site)
	if st == nil {
		p.mu.Lock()
		if st = p.sites[site]; st == nil {
			st = &siteState{seed: xrand.SplitMix(p.seed, fnv64a(string(site)))}
			if p.reg != nil {
				st.injected = p.reg.Counter("fault/injected/" + string(site))
				st.recovered = p.reg.Counter("fault/recovered/" + string(site))
			}
			p.sites[site] = st
		}
		p.mu.Unlock()
	}
	st.recovered.Add(1)
}

// Injected returns how many times site has actually fired.
func (p *Plan) Injected(site Site) uint64 {
	if p == nil {
		return 0
	}
	st := p.site(site)
	if st == nil {
		return 0
	}
	return st.injectedN.Load()
}

// Parse builds a plan from a spec string:
//
//	seed=7;runcache/put/torn=1;shard/post/refuse=0.5:count=3:after=2:delay=50ms
//
// Semicolon-separated items: an optional seed=N (default 1), then one
// item per site as <site>=<probability> with optional colon-separated
// count=N, after=N, and delay=DUR modifiers. An empty spec returns a nil
// plan (no faults).
func Parse(spec string) (*Plan, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	seed := uint64(1)
	type armed struct {
		site Site
		rule Rule
	}
	var arms []armed
	for _, item := range strings.Split(spec, ";") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		name, val, ok := strings.Cut(item, "=")
		if !ok {
			return nil, fmt.Errorf("faultinject: %q is not name=value", item)
		}
		if name == "seed" {
			s, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("faultinject: seed %q: %v", val, err)
			}
			seed = s
			continue
		}
		parts := strings.Split(val, ":")
		pr, err := strconv.ParseFloat(parts[0], 64)
		if err != nil || pr < 0 || pr > 1 {
			return nil, fmt.Errorf("faultinject: site %s probability %q must be in [0,1]", name, parts[0])
		}
		rule := Rule{P: pr}
		for _, opt := range parts[1:] {
			k, v, ok := strings.Cut(opt, "=")
			if !ok {
				return nil, fmt.Errorf("faultinject: site %s option %q is not key=value", name, opt)
			}
			switch k {
			case "count":
				if rule.Count, err = strconv.Atoi(v); err != nil {
					return nil, fmt.Errorf("faultinject: site %s count %q: %v", name, v, err)
				}
			case "after":
				if rule.After, err = strconv.Atoi(v); err != nil {
					return nil, fmt.Errorf("faultinject: site %s after %q: %v", name, v, err)
				}
			case "delay":
				if rule.Delay, err = time.ParseDuration(v); err != nil {
					return nil, fmt.Errorf("faultinject: site %s delay %q: %v", name, v, err)
				}
			default:
				return nil, fmt.Errorf("faultinject: site %s has unknown option %q", name, k)
			}
		}
		arms = append(arms, armed{Site(name), rule})
	}
	p := New(seed)
	for _, a := range arms {
		p.Arm(a.site, a.rule)
	}
	return p, nil
}

// FromEnv parses the REPRO_FAULTS environment variable; nil when unset.
func FromEnv() (*Plan, error) {
	return Parse(os.Getenv(EnvVar))
}
