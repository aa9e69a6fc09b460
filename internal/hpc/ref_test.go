package hpc

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/memuse"
	"repro/internal/stats"
	"repro/internal/xrand"
)

// refSimulate is the scheduler without its shortcuts, kept as a
// reference: the running slice is ascending by end time (equal ends in
// start order), completions pop its front, every arrival and completion
// runs a full FCFS + EASY backfill pass over the whole queue, and each
// wait percentile sorts its own copy. Simulate must match it bit for bit
// on every trace. The reference has no instrumentation and shares only
// allocate and the running type with the product code.
func refSimulate(tr *Trace, cluster *Cluster, policy Policy, model SpeedupModel, seed uint64) *Result {
	rng := xrand.New(seed)
	groups := len(cluster.margins)
	free := append([]int(nil), cluster.total...)
	freeTotal := cluster.Nodes()
	allocs := make([]int, len(tr.Jobs)*groups)

	var run []running // started jobs by end time, equal ends in start order
	res := &Result{Jobs: make([]JobMetrics, 0, len(tr.Jobs))}
	var queue []int
	next := 0
	now := 0.0

	start := func(slot int, t float64) {
		j := &tr.Jobs[slot]
		alloc := allocs[slot*groups : (slot+1)*groups]
		min := allocate(cluster, free, alloc, j.Nodes, policy, rng)
		for g, n := range alloc {
			free[g] -= n
		}
		freeTotal -= j.Nodes
		exec := j.BaseS / model(min, j.Bucket)
		end := t + exec
		i := sort.Search(len(run), func(k int) bool { return run[k].endS > end })
		run = append(run, running{})
		copy(run[i+1:], run[i:])
		run[i] = running{endS: end, nodes: j.Nodes, slot: slot}
		res.Jobs = append(res.Jobs, JobMetrics{
			JobID: j.ID, WaitS: t - j.SubmitS, ExecS: exec,
			TurnaroundS: t - j.SubmitS + exec, MinMargin: min,
		})
	}

	schedule := func() {
		n := 0
		for n < len(queue) && tr.Jobs[queue[n]].Nodes <= freeTotal {
			start(queue[n], now)
			n++
		}
		if n > 0 {
			queue = append(queue[:0], queue[n:]...)
		}
		if len(queue) == 0 {
			return
		}
		need := tr.Jobs[queue[0]].Nodes
		shadowT, freedAtShadow := refShadow(run, freeTotal, need)
		extra := freeTotal + freedAtShadow - need
		for i := 1; i < len(queue) && freeTotal > 0; i++ {
			j := &tr.Jobs[queue[i]]
			if j.Nodes > freeTotal {
				continue
			}
			estimate := 2 * j.BaseS
			if now+estimate <= shadowT || j.Nodes <= extra {
				start(queue[i], now)
				if j.Nodes > extra {
					extra = 0
				} else if now+estimate > shadowT {
					extra -= j.Nodes
				}
				queue = append(queue[:i], queue[i+1:]...)
				i--
			}
		}
	}

	for next < len(tr.Jobs) || len(run) > 0 {
		var tArr, tEnd float64 = -1, -1
		if next < len(tr.Jobs) {
			tArr = tr.Jobs[next].SubmitS
		}
		if len(run) > 0 {
			tEnd = run[0].endS
		}
		if tArr >= 0 && (tEnd < 0 || tArr <= tEnd) {
			now = tArr
			queue = append(queue, next)
			next++
		} else {
			now = tEnd
			done := run[0]
			run = run[1:]
			for g, n := range allocs[done.slot*groups : (done.slot+1)*groups] {
				free[g] += n
			}
			freeTotal += done.nodes
		}
		schedule()
	}

	var w, e, t float64
	for i := range res.Jobs {
		w += res.Jobs[i].WaitS
		e += res.Jobs[i].ExecS
		t += res.Jobs[i].TurnaroundS
	}
	if n := float64(len(res.Jobs)); n > 0 {
		res.MeanWaitS, res.MeanExecS, res.MeanTurnaround = w/n, e/n, t/n
		waits := make([]float64, len(res.Jobs))
		for i := range res.Jobs {
			waits[i] = res.Jobs[i].WaitS
		}
		res.P50WaitS = stats.Percentile(waits, 50)
		res.P95WaitS = stats.Percentile(waits, 95)
	}
	return res
}

// refShadow is the reference's shadow over its ascending running slice:
// running jobs finish from the front until the head's nodes are free.
func refShadow(run []running, freeNow, need int) (shadowT float64, freedAtShadow int) {
	if freeNow >= need {
		return 0, 0
	}
	acc := freeNow
	for _, r := range run {
		acc += r.nodes
		if acc >= need {
			return r.endS, acc - need
		}
	}
	return 1e18, 0
}

// refCase is one generated scheduler input.
type refCase struct {
	tr      *Trace
	cluster *Cluster
	policy  Policy
	model   SpeedupModel
	seed    uint64
}

// genRefCase builds a small scheduler input from draws of pick, which
// returns a value in [0, n). It aims at the cases the settled backfill
// pass and the running-set order reason about: 1-60 jobs on 2-24 nodes,
// submit times from a handful of instants (tied arrivals), runtimes from
// a handful of values (tied end times and tied backfill estimates), one
// to three margin groups, both policies, and the conventional or a
// Hetero-DMR speedup model.
func genRefCase(pick func(n int) int) refCase {
	nodes := 2 + pick(23)
	groups := 1 + pick(3)
	if groups > nodes {
		groups = nodes
	}
	margins := []int{800, 600, 0}
	first := pick(len(margins) - groups + 1)
	counts := map[int]int{}
	for g := 0; g < groups; g++ {
		counts[margins[first+g]] = 1
	}
	for n := groups; n < nodes; n++ {
		counts[margins[first+pick(groups)]]++
	}

	instants := make([]float64, 1+pick(5))
	for i := range instants {
		instants[i] = float64(pick(400))
	}
	runtimes := make([]float64, 1+pick(4))
	for i := range runtimes {
		runtimes[i] = float64(1 + pick(300))
	}
	jobs := make([]Job, 1+pick(60))
	for i := range jobs {
		jobs[i] = Job{
			ID:      i + 1,
			SubmitS: instants[pick(len(instants))],
			Nodes:   1 + pick(nodes),
			BaseS:   runtimes[pick(len(runtimes))],
			Bucket:  memuse.Bucket(pick(3)),
		}
	}
	sort.SliceStable(jobs, func(a, b int) bool { return jobs[a].SubmitS < jobs[b].SubmitS })

	c := refCase{
		tr:      &Trace{Jobs: jobs, TotalNodes: nodes, PeriodS: 1e6},
		cluster: NewCluster(counts),
		policy:  Policy(pick(2)),
		model:   ConventionalModel,
		seed:    uint64(pick(1 << 16)),
	}
	if pick(2) == 1 {
		speedups := [][2]float64{{2, 1.25}, {1.21, 1.17}, {1.5, 1.5}}
		s := speedups[pick(len(speedups))]
		c.model = HeteroDMRModel(s[0], s[1])
	}
	return c
}

// checkMatchesReference runs one case through Simulate and the reference.
func checkMatchesReference(t *testing.T, name string, c refCase) {
	t.Helper()
	got, vs := SimulateObserved(c.tr, c.cluster, c.policy, c.model, c.seed, nil, "")
	for _, v := range vs {
		t.Errorf("%s: violation: %s", name, v)
	}
	want := refSimulate(c.tr, c.cluster, c.policy, c.model, c.seed)
	if g, w := resultDigest(got), resultDigest(want); g != w {
		t.Errorf("%s: %d jobs on %d nodes, %s: digest %s, reference %s",
			name, len(c.tr.Jobs), c.tr.TotalNodes, c.policy, g, w)
	}
}

// TestSimulateMatchesReference pins the scheduler to refSimulate over
// generated small traces. The golden covers nine long traces; these
// cover the ties and small clusters where a backfill shortcut or a
// running-set order would first go wrong.
func TestSimulateMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 400; seed++ {
		rng := xrand.New(seed)
		checkMatchesReference(t, fmt.Sprintf("seed %d", seed), genRefCase(rng.Intn))
	}
}

// FuzzSimulateMatchesReference builds the same inputs from fuzz bytes:
// each draw reads one byte (0 once they run out) modulo its range.
func FuzzSimulateMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 1, 0, 2, 7, 9, 4, 1, 1, 1, 1, 1, 1, 9, 2, 5, 59, 0, 4, 2, 3, 1, 0, 2})
	f.Add([]byte{22, 2, 0, 9, 4, 0, 3, 30, 1, 1, 7, 18, 3, 3, 40, 1, 2, 1, 0, 12, 1, 1, 2, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		pick := func(n int) int {
			if len(data) == 0 {
				return 0
			}
			b := int(data[0])
			data = data[1:]
			return b % n
		}
		checkMatchesReference(t, "fuzz", genRefCase(pick))
	})
}
