package hpc

import (
	"fmt"
	"sort"

	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/xrand"
)

// Cluster is a set of nodes bucketed by memory frequency margin; nodes
// within a group are interchangeable.
type Cluster struct {
	margins []int // distinct margins, descending
	total   []int // node count per group, indexed like margins
}

// NewCluster builds a cluster from margin -> node-count.
func NewCluster(counts map[int]int) *Cluster {
	var margins []int
	for m := range counts {
		margins = append(margins, m)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(margins)))
	c := &Cluster{}
	for _, m := range margins {
		n := counts[m]
		if n < 0 {
			panic(fmt.Sprintf("hpc: negative node count for margin %d", m))
		}
		if n == 0 {
			continue
		}
		c.margins = append(c.margins, m)
		c.total = append(c.total, n)
	}
	if len(c.margins) == 0 {
		panic("hpc: empty cluster")
	}
	return c
}

// UniformCluster is a cluster whose nodes all share one margin (the
// conventional system uses margin 0).
func UniformCluster(nodes, marginMTs int) *Cluster {
	return NewCluster(map[int]int{marginMTs: nodes})
}

// GroupedNodes splits `nodes` per the Fig 11 node-margin shares: the node
// count per margin, with the nodes neither share claims at margin 0.
func GroupedNodes(nodes int, at800, at600 float64) map[int]int {
	n800 := int(float64(nodes) * at800)
	n600 := int(float64(nodes) * at600)
	return map[int]int{800: n800, 600: n600, 0: nodes - n800 - n600}
}

// GroupedCluster is the cluster of GroupedNodes(nodes, at800, at600).
func GroupedCluster(nodes int, at800, at600 float64) *Cluster {
	return NewCluster(GroupedNodes(nodes, at800, at600))
}

// Nodes returns the total node count.
func (c *Cluster) Nodes() int {
	t := 0
	for _, n := range c.total {
		t += n
	}
	return t
}

// JobMetrics is one job's outcome.
type JobMetrics struct {
	JobID       int
	WaitS       float64
	ExecS       float64
	TurnaroundS float64
	MinMargin   int
}

// Result aggregates a simulation.
type Result struct {
	Jobs           []JobMetrics
	MeanWaitS      float64
	MeanExecS      float64
	MeanTurnaround float64
	// P50WaitS/P95WaitS summarize the queuing-delay distribution; means
	// alone hide the tail that users experience during campaigns.
	P50WaitS float64
	P95WaitS float64
}

func (r *Result) finalize() {
	var w, e, t float64
	for i := range r.Jobs {
		w += r.Jobs[i].WaitS
		e += r.Jobs[i].ExecS
		t += r.Jobs[i].TurnaroundS
	}
	n := float64(len(r.Jobs))
	if n == 0 {
		return
	}
	r.MeanWaitS, r.MeanExecS, r.MeanTurnaround = w/n, e/n, t/n
	waits := make([]float64, len(r.Jobs))
	for i := range r.Jobs {
		waits[i] = r.Jobs[i].WaitS
	}
	p := stats.Percentiles(waits, 50, 95)
	r.P50WaitS, r.P95WaitS = p[0], p[1]
}

// running is one started job in the running list, which is ordered
// latest end first. It holds no pointers, so shifting the list with copy
// costs no write barriers.
type running struct {
	endS  float64
	nodes int
	slot  int // trace index; the job's group counts are allocs[slot*groups:]
}

// Simulate runs the trace through the scheduler and returns per-job
// metrics. The cluster, policy, and speedup model together define the
// system (conventional = uniform margin-0 cluster + ConventionalModel).
// Jobs with equal end times complete, and count toward the backfill
// shadow, in the order they started.
func Simulate(tr *Trace, cluster *Cluster, policy Policy, model SpeedupModel, seed uint64) *Result {
	res, _ := SimulateObserved(tr, cluster, policy, model, seed, nil, "")
	return res
}

// SimulateObserved is Simulate with observability: scheduler queue-depth
// samples land in reg (nil skips them, scope defaults to "hpc"), and the
// returned violations report the run's conservation checks — every
// submitted job completes exactly once, the queue drains, all nodes
// return to the free pool, and no job has negative wait or non-positive
// execution time. Instrumentation never changes the Result. A job that
// requests no nodes, or more than the cluster has, panics.
func SimulateObserved(tr *Trace, cluster *Cluster, policy Policy, model SpeedupModel, seed uint64, reg *obs.Registry, scope string) (*Result, []obs.Violation) {
	if tr == nil || cluster == nil || model == nil {
		panic("hpc: nil simulation inputs")
	}
	nodes := cluster.Nodes()
	for i := range tr.Jobs {
		if n := tr.Jobs[i].Nodes; n <= 0 || n > nodes {
			panic(fmt.Sprintf("hpc: job %d requests %d nodes of a %d-node cluster", tr.Jobs[i].ID, n, nodes))
		}
	}
	if scope == "" {
		scope = "hpc"
	}
	queueHist := reg.Histogram(scope+"/sched/queue_depth",
		[]int64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024})
	rng := xrand.New(seed)
	groups := len(cluster.margins)
	free := append([]int(nil), cluster.total...)
	freeTotal := nodes
	allocs := make([]int, len(tr.Jobs)*groups) // each job's group counts, by trace index

	// run holds the started jobs latest end first, and among equal ends
	// the later start first: the next completion is its tail, so a
	// completion pops the tail and a start shifts only the jobs that end
	// no later than it does.
	var run []running
	res := &Result{Jobs: make([]JobMetrics, 0, len(tr.Jobs))}
	var queue []int // FCFS, trace indices
	next := 0       // next arrival index
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
		// Insert ahead of the first job that ends no later than this one.
		i, hi := 0, len(run)
		for i < hi {
			m := int(uint(i+hi) >> 1)
			if run[m].endS > end {
				i = m + 1
			} else {
				hi = m
			}
		}
		run = append(run, running{})
		copy(run[i+1:], run[i:])
		run[i] = running{endS: end, nodes: j.Nodes, slot: slot}
		res.Jobs = append(res.Jobs, JobMetrics{
			JobID: j.ID, WaitS: t - j.SubmitS, ExecS: exec,
			TurnaroundS: t - j.SubmitS + exec, MinMargin: min,
		})
	}

	// A settled pass skips the jobs an earlier pass already refused.
	// Suppose a pass's backfill loop started nothing. Then every job still
	// queued behind the head was refused against a free-node count, a
	// running set and a queue head that all still hold: the FCFS starts
	// came before the shadow was computed, and nothing started after. An
	// arrival changes none of the three, so the head still does not fit,
	// and shadowT and extra come out the same. A refused job either did
	// not fit in the free nodes, which still holds, or had
	// now+estimate > shadowT and more nodes than extra; now only grows
	// and rounded addition is monotone, so neither test can newly pass.
	// So the pass after an arrival need only check the jobs queued since
	// the last full pass. Any start in the backfill loop, and any
	// completion, makes the next pass a full one. settled counts the
	// queue prefix that the last pass refused (0 forces a full pass);
	// shadowT and extra are that pass's reservation.
	settled := 0
	var shadowT float64
	var extra int
	schedule := func() {
		from := settled
		if from == 0 {
			// FCFS: start queue heads while they fit.
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
			// EASY backfill: reserve for the head, let later jobs jump
			// ahead if they do not delay it (runtimes are known exactly
			// here).
			need := tr.Jobs[queue[0]].Nodes
			var freedAtShadow int
			shadowT, freedAtShadow = shadow(run, freeTotal, need)
			extra = freeTotal + freedAtShadow - need
			from = 1
		}
		settled = len(queue)
		for i := from; i < len(queue) && freeTotal > 0; i++ {
			j := &tr.Jobs[queue[i]]
			if j.Nodes > freeTotal {
				continue
			}
			// Backfill decisions use user runtime estimates, which are
			// notoriously inflated; model them as 2x the actual runtime
			// (this is what keeps real queues from being backfilled flat).
			estimate := 2 * j.BaseS
			if now+estimate <= shadowT || j.Nodes <= extra {
				start(queue[i], now)
				settled = 0
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
		// Next event: arrival or completion.
		var tArr, tEnd float64 = -1, -1
		if next < len(tr.Jobs) {
			tArr = tr.Jobs[next].SubmitS
		}
		if len(run) > 0 {
			tEnd = run[len(run)-1].endS
		}
		if tArr >= 0 && (tEnd < 0 || tArr <= tEnd) {
			now = tArr
			queue = append(queue, next)
			next++
		} else {
			now = tEnd
			done := run[len(run)-1]
			run = run[:len(run)-1]
			for g, n := range allocs[done.slot*groups : (done.slot+1)*groups] {
				free[g] += n
			}
			freeTotal += done.nodes
			settled = 0
		}
		queueHist.Observe(int64(len(queue)))
		schedule()
	}
	res.finalize()
	if reg != nil {
		reg.Counter(scope + "/sched/jobs").Add(uint64(len(res.Jobs)))
	}

	ck := obs.NewChecker(scope)
	ck.CheckEq(int64(len(res.Jobs)), int64(len(tr.Jobs)), "jobs-completed==jobs-submitted")
	ck.CheckEq(int64(len(queue)), 0, "queue-drained")
	ck.CheckEq(int64(freeTotal), int64(nodes), "free-nodes-restored")
	for g, m := range cluster.margins {
		ck.Check(free[g] == cluster.total[g], fmt.Sprintf("group-%d-restored", m),
			"%d free, %d total", free[g], cluster.total[g])
	}
	badWait, badExec := 0, 0
	for i := range res.Jobs {
		if res.Jobs[i].WaitS < 0 {
			badWait++
		}
		if res.Jobs[i].ExecS <= 0 {
			badExec++
		}
	}
	ck.CheckEq(int64(badWait), 0, "waits-non-negative")
	ck.CheckEq(int64(badExec), 0, "exec-times-positive")
	return res, ck.Violations()
}

// shadow computes when the queue head could start (running jobs finish
// from the tail of run until enough nodes are free) and how many nodes
// will be free then beyond the head's need. run is latest-end first, so
// this walks only the suffix that frees the head's nodes.
func shadow(run []running, freeNow, need int) (shadowT float64, freedAtShadow int) {
	if freeNow >= need {
		return 0, 0
	}
	acc := freeNow
	for i := len(run) - 1; i >= 0; i-- {
		acc += run[i].nodes
		if acc >= need {
			return run[i].endS, acc - need
		}
	}
	return 1e18, 0
}

// allocate picks nodes for a job without touching free: it writes the
// job's per-group counts into alloc (zeroed, indexed like c.margins) and
// returns the minimum margin among them (the job's effective speed,
// §III-D3).
func allocate(c *Cluster, free, alloc []int, need int, policy Policy, rng *xrand.Rand) (min int) {
	switch policy {
	case PolicyMarginAware:
		// Fastest single group that fits...
		for g, n := range free {
			if n >= need {
				alloc[g] = need
				return c.margins[g]
			}
		}
		// ...else the fastest `need` free nodes across groups.
		left := need
		for g, n := range free {
			if n > left {
				n = left
			}
			alloc[g] = n
			left -= n
			if left == 0 {
				break
			}
		}
		if left > 0 {
			panic("hpc: allocate called without enough free nodes")
		}
	default:
		// Margin-oblivious: draw nodes uniformly from the free pool.
		left := need
		for left > 0 {
			freeTotal := 0
			for g, n := range free {
				freeTotal += n - alloc[g]
			}
			if freeTotal < left {
				panic("hpc: allocate called without enough free nodes")
			}
			pick := int(rng.Uint64n(uint64(freeTotal)))
			for g, n := range free {
				avail := n - alloc[g]
				if pick < avail {
					// Take a contiguous chunk from this group to keep the
					// loop near O(groups).
					chunk := avail - pick
					if chunk > left {
						chunk = left
					}
					alloc[g] += chunk
					left -= chunk
					break
				}
				pick -= avail
			}
		}
	}
	// Margins descend, so the slowest group taken is the last non-empty one.
	g := len(alloc) - 1
	for alloc[g] == 0 {
		g--
	}
	return c.margins[g]
}
