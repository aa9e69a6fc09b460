package faultinject

import (
	"testing"
	"time"

	"repro/internal/obs"
)

const testSite Site = "test/site"

func TestNilPlanNeverFires(t *testing.T) {
	var p *Plan
	if p.Should(testSite) || p.Sleep(testSite) {
		t.Fatal("nil plan fired")
	}
	p.Recovered(testSite) // must not panic
	if p.Seed() != 0 || p.Sites() != nil || p.Injected(testSite) != 0 {
		t.Fatal("nil plan reports state")
	}
}

func TestUnarmedSiteNeverFires(t *testing.T) {
	p := New(1).Arm("other/site", Rule{P: 1})
	for i := 0; i < 100; i++ {
		if p.Should(testSite) {
			t.Fatal("unarmed site fired")
		}
	}
}

// TestScheduleDeterministic: the verdict sequence at a site is a pure
// function of (seed, site, hit index) — two plans with the same seed
// replay identical schedules, a different seed diverges.
func TestScheduleDeterministic(t *testing.T) {
	verdicts := func(seed uint64) []bool {
		p := New(seed).Arm(testSite, Rule{P: 0.5})
		out := make([]bool, 200)
		for i := range out {
			out[i] = p.Should(testSite)
		}
		return out
	}
	a, b := verdicts(42), verdicts(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at hit %d", i)
		}
	}
	c := verdicts(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("seeds 42 and 43 produced identical 200-hit schedules")
	}
	fires := 0
	for _, v := range a {
		if v {
			fires++
		}
	}
	if fires < 60 || fires > 140 {
		t.Errorf("p=0.5 fired %d/200 times", fires)
	}
}

func TestCountAndAfterWindows(t *testing.T) {
	p := New(7).Arm(testSite, Rule{P: 1, Count: 3, After: 5})
	fires := 0
	for i := 0; i < 20; i++ {
		fired := p.Should(testSite)
		if fired {
			fires++
		}
		if i < 5 && fired {
			t.Fatalf("fired during the After window at hit %d", i)
		}
	}
	if fires != 3 {
		t.Fatalf("fired %d times, want Count=3", fires)
	}
	if p.Injected(testSite) != 3 {
		t.Fatalf("Injected = %d, want 3", p.Injected(testSite))
	}
}

func TestObserveCounters(t *testing.T) {
	reg := obs.NewRegistry()
	p := New(1).Observe(reg).Arm(testSite, Rule{P: 1, Count: 2})
	p.Should(testSite)
	p.Should(testSite)
	p.Should(testSite)
	p.Recovered(testSite)
	p.Recovered("test/unarmed") // recovery on an unarmed site still counts
	snap := reg.Snapshot()
	if snap.Counters["fault/injected/test/site"] != 2 {
		t.Errorf("injected = %d, want 2", snap.Counters["fault/injected/test/site"])
	}
	if snap.Counters["fault/recovered/test/site"] != 1 {
		t.Errorf("recovered = %d, want 1", snap.Counters["fault/recovered/test/site"])
	}
	if snap.Counters["fault/recovered/test/unarmed"] != 1 {
		t.Errorf("unarmed recovered = %d, want 1", snap.Counters["fault/recovered/test/unarmed"])
	}
}

// TestInjectedReadsTheObservedCounter: Injected and the registry read
// one counter, whether the plan is observed before its site is armed or
// after the site has fired (the fires so far carry over), and a nil
// registry changes nothing.
func TestInjectedReadsTheObservedCounter(t *testing.T) {
	const name = "fault/injected/test/site"
	before, after := obs.NewRegistry(), obs.NewRegistry()
	early := New(1).Observe(before).Arm(testSite, Rule{P: 1})
	late := New(1).Arm(testSite, Rule{P: 1})
	for _, p := range []*Plan{early, late} {
		p.Should(testSite)
		p.Should(testSite)
	}
	late.Observe(after)
	for _, p := range []*Plan{early, late} {
		p.Should(testSite)
		p.Observe(nil)
		p.Should(testSite)
	}
	for label, c := range map[string]struct {
		p   *Plan
		reg *obs.Registry
	}{"observed before arming": {early, before}, "observed after firing": {late, after}} {
		got, want := c.p.Injected(testSite), c.reg.Snapshot().Counters[name]
		if got != 4 || want != 4 {
			t.Errorf("%s: Injected = %d, %s = %d, want 4 and 4", label, got, name, want)
		}
	}
}

func TestSleepInjectsDelay(t *testing.T) {
	p := New(1).Arm(testSite, Rule{P: 1, Count: 1, Delay: 10 * time.Millisecond})
	start := time.Now()
	if !p.Sleep(testSite) {
		t.Fatal("p=1 sleep did not fire")
	}
	if d := time.Since(start); d < 10*time.Millisecond {
		t.Errorf("slept %v, want >= 10ms", d)
	}
	if p.Sleep(testSite) {
		t.Error("count=1 site fired twice")
	}
}

func TestParse(t *testing.T) {
	p, err := Parse("seed=9; runcache/put/torn=1 ;shard/post/refuse=0.5:count=3:after=2:delay=50ms")
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed() != 9 {
		t.Errorf("seed = %d", p.Seed())
	}
	sites := p.Sites()
	if len(sites) != 2 || sites[0] != "runcache/put/torn" || sites[1] != "shard/post/refuse" {
		t.Errorf("sites = %v", sites)
	}
	st := p.site("shard/post/refuse")
	if st.rule.P != 0.5 || st.rule.Count != 3 || st.rule.After != 2 || st.rule.Delay != 50*time.Millisecond {
		t.Errorf("rule = %+v", st.rule)
	}

	if p, err := Parse(""); p != nil || err != nil {
		t.Errorf("empty spec: %v %v", p, err)
	}
	for _, bad := range []string{
		"nonsense",
		"site=1.5",
		"site=-0.1",
		"site=0.5:count=x",
		"site=0.5:bogus=1",
		"seed=abc",
		"site=0.5:delay=zzz",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
}

// TestConcurrentShould: concurrent hits race-cleanly and the fire count
// respects the Count bound.
func TestConcurrentShould(t *testing.T) {
	p := New(5).Observe(obs.NewRegistry()).Arm(testSite, Rule{P: 1, Count: 10})
	done := make(chan int)
	for g := 0; g < 4; g++ {
		go func() {
			n := 0
			for i := 0; i < 100; i++ {
				if p.Should(testSite) {
					n++
				}
			}
			done <- n
		}()
	}
	total := 0
	for g := 0; g < 4; g++ {
		total += <-done
	}
	if total != 10 {
		t.Fatalf("fired %d times across goroutines, want Count=10", total)
	}
}
