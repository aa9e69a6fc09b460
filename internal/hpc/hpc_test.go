package hpc

import (
	"math"
	"strings"
	"testing"

	"repro/internal/memuse"
)

var testFrac = memuse.Fractions{Under25: 0.43, Under50: 0.62}

// smallTrace keeps unit tests fast: 1/20 of Grizzly in jobs and nodes.
func smallTrace(seed uint64) (*Trace, int) {
	const nodes = 128
	tr := GenerateTrace(3000, nodes, TracePeriodS/8, TargetNodeUtil, testFrac, seed)
	return tr, nodes
}

// TestTraceUtilizationCalibrated pins the renormalize-after-clamp fix:
// the 1-second runtime floor used to inflate utilization past the target
// (the old tolerance here was 0.02 to paper over it). After the fix the
// trace hits the target to within the second-pass floor residual.
func TestTraceUtilizationCalibrated(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		tr, _ := smallTrace(seed)
		if u := tr.NodeUtilization(); math.Abs(u-TargetNodeUtil) > 1e-3 {
			t.Errorf("seed %d: trace utilization %.5f, want %.2f", seed, u, TargetNodeUtil)
		}
	}
}

func TestTraceShape(t *testing.T) {
	tr, nodes := smallTrace(2)
	last := -1.0
	for _, j := range tr.Jobs {
		if j.SubmitS < last {
			t.Fatal("trace not sorted by submit time")
		}
		last = j.SubmitS
		if j.Nodes < 1 || j.Nodes > nodes {
			t.Fatalf("job %d nodes %d", j.ID, j.Nodes)
		}
		if j.BaseS < 1 {
			t.Fatalf("job %d runtime %v", j.ID, j.BaseS)
		}
	}
}

func TestTracePanicsOnBadInput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero jobs accepted")
		}
	}()
	GenerateTrace(0, 10, 100, 0.5, testFrac, 1)
}

func TestGrizzlyTraceScale(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale trace")
	}
	tr := GenerateGrizzlyTrace(testFrac, 1)
	if len(tr.Jobs) != GrizzlyJobs || tr.TotalNodes != GrizzlyNodes {
		t.Fatalf("trace scale %d jobs %d nodes", len(tr.Jobs), tr.TotalNodes)
	}
	if u := tr.NodeUtilization(); math.Abs(u-0.78) > 0.02 {
		t.Errorf("utilization %.3f", u)
	}
}

func TestConventionalSimulation(t *testing.T) {
	tr, nodes := smallTrace(3)
	res := Simulate(tr, UniformCluster(nodes, 0), PolicyDefault, ConventionalModel, 1)
	if len(res.Jobs) != len(tr.Jobs) {
		t.Fatalf("completed %d of %d jobs", len(res.Jobs), len(tr.Jobs))
	}
	for _, j := range res.Jobs {
		if j.WaitS < 0 || j.ExecS <= 0 {
			t.Fatalf("job %d metrics %+v", j.JobID, j)
		}
		if math.Abs(j.TurnaroundS-(j.WaitS+j.ExecS)) > 1e-6 {
			t.Fatalf("turnaround != wait+exec for job %d", j.JobID)
		}
	}
	if res.MeanTurnaround <= 0 {
		t.Error("zero mean turnaround")
	}
}

func TestHeteroDMRSpeedsUpSystem(t *testing.T) {
	tr, nodes := smallTrace(4)
	conv := Simulate(tr, UniformCluster(nodes, 0), PolicyDefault, ConventionalModel, 1)
	cluster := GroupedCluster(nodes, 0.62, 0.36)
	model := HeteroDMRModel(1.21, 1.17)
	hdmr := Simulate(tr, cluster, PolicyMarginAware, model, 1)

	exec := conv.MeanExecS / hdmr.MeanExecS
	turn := conv.MeanTurnaround / hdmr.MeanTurnaround
	wait := conv.MeanWaitS / hdmr.MeanWaitS
	if exec < 1.03 || exec > 1.25 {
		t.Errorf("execution speedup %.3f, paper band ~1.1-1.2", exec)
	}
	if turn < exec {
		t.Errorf("turnaround speedup %.3f below execution speedup %.3f (paper: queueing amplifies)", turn, exec)
	}
	if wait <= 1 {
		t.Errorf("queuing delay not reduced: ratio %.3f", wait)
	}
}

func TestMarginAwareBeatsDefaultScheduler(t *testing.T) {
	tr, nodes := smallTrace(5)
	cluster := GroupedCluster(nodes, 0.62, 0.36)
	model := HeteroDMRModel(1.21, 1.17)
	aware := Simulate(tr, cluster, PolicyMarginAware, model, 1)
	oblivious := Simulate(tr, cluster, PolicyDefault, model, 1)
	if aware.MeanTurnaround >= oblivious.MeanTurnaround {
		t.Errorf("margin-aware turnaround %.0f not better than default %.0f",
			aware.MeanTurnaround, oblivious.MeanTurnaround)
	}
	// Under the oblivious policy multi-node jobs mix margins, so their
	// effective (minimum) margin collapses more often.
	awareMin, oblivMin := 0.0, 0.0
	for i := range aware.Jobs {
		awareMin += float64(aware.Jobs[i].MinMargin)
		oblivMin += float64(oblivious.Jobs[i].MinMargin)
	}
	if awareMin <= oblivMin {
		t.Error("margin-aware allocation did not raise job-level margins")
	}
}

func TestMoreNodesControlExperiment(t *testing.T) {
	// §IV-C's sanity check: 17% more nodes cuts queuing delay roughly as
	// much as making every node 17% faster. Use a congested trace so the
	// queue is non-trivial.
	const nodes = 128
	tr := GenerateTrace(3000, nodes, TracePeriodS/8, 0.92, testFrac, 6)
	base := Simulate(tr, UniformCluster(nodes, 0), PolicyDefault, ConventionalModel, 1)
	bigger := Simulate(tr, UniformCluster(nodes+nodes*17/100, 0), PolicyDefault, ConventionalModel, 1)
	if bigger.MeanWaitS >= base.MeanWaitS {
		t.Errorf("17%% more nodes did not cut queuing delay: %.0f vs %.0f",
			bigger.MeanWaitS, base.MeanWaitS)
	}
}

func TestClusterConstruction(t *testing.T) {
	c := GroupedCluster(100, 0.62, 0.36)
	if c.Nodes() != 100 {
		t.Errorf("grouped cluster nodes %d", c.Nodes())
	}
	if UniformCluster(10, 800).Nodes() != 10 {
		t.Error("uniform cluster size wrong")
	}
}

func TestClusterPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewCluster(map[int]int{}) },
		func() { NewCluster(map[int]int{800: -1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad cluster accepted")
				}
			}()
			f()
		}()
	}
}

func TestHeteroDMRModel(t *testing.T) {
	m := HeteroDMRModel(1.21, 1.17)
	if m(800, memuse.BucketUnder25) != 1.21 {
		t.Error("800-margin speedup wrong")
	}
	if m(600, memuse.BucketUnder50) != 1.17 {
		t.Error("600-margin speedup wrong")
	}
	if m(0, memuse.BucketUnder25) != 1 {
		t.Error("zero-margin speedup wrong")
	}
	if m(800, memuse.BucketOver50) != 1 {
		t.Error("high-utilization job must not speed up")
	}
}

func TestHeteroDMRModelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("speedup < 1 accepted")
		}
	}()
	HeteroDMRModel(0.9, 1)
}

func TestSimulationDeterministic(t *testing.T) {
	tr, nodes := smallTrace(7)
	cluster := GroupedCluster(nodes, 0.62, 0.36)
	model := HeteroDMRModel(1.2, 1.15)
	a := Simulate(tr, cluster, PolicyDefault, model, 3)
	b := Simulate(tr, cluster, PolicyDefault, model, 3)
	if a.MeanTurnaround != b.MeanTurnaround {
		t.Error("same-seed simulations diverged")
	}
}

func TestPolicyString(t *testing.T) {
	if PolicyDefault.String() != "slurm-default" || PolicyMarginAware.String() != "margin-aware" {
		t.Error("policy names wrong")
	}
}

func TestShadowComputation(t *testing.T) {
	// Three running jobs ending at t=10,20,30 with 2 nodes each, latest
	// end first as the scheduler keeps them; 1 free node now; head needs
	// 4: the head can start when the second job ends (1+2+2 >= 4) with 1
	// node spare.
	run := []running{{endS: 30, nodes: 2}, {endS: 20, nodes: 2}, {endS: 10, nodes: 2}}
	shadowT, extra := shadow(run, 1, 4)
	if shadowT != 20 || extra != 1 {
		t.Errorf("shadow = (%v, %v), want (20, 1)", shadowT, extra)
	}
	// Already fits: shadow is immediate.
	if st, _ := shadow(run, 4, 4); st != 0 {
		t.Errorf("shadow with enough free = %v, want 0", st)
	}
	// Can never fit: far future.
	if st, _ := shadow(run, 0, 100); st < 1e17 {
		t.Errorf("unsatisfiable shadow = %v", st)
	}
}

// TestEqualEndTimesInStartOrder pins the tie rule: jobs that end at the
// same instant complete, and count toward the backfill shadow, in the
// order they started.
func TestEqualEndTimesInStartOrder(t *testing.T) {
	type want struct {
		waitS     float64
		minMargin int
	}
	cases := []struct {
		name    string
		cluster *Cluster
		model   SpeedupModel
		jobs    []Job
		want    map[int]want
	}{{
		// Jobs 1 and 2 both end at t=100, job 1 on the 800 group and job 2
		// on the 600 group. Job 1 completes first, so queue head 3 takes
		// the 800 group and job 4 the 600 group.
		name:    "completion",
		cluster: NewCluster(map[int]int{800: 2, 600: 2}),
		model:   HeteroDMRModel(2, 1.25),
		jobs: []Job{
			{ID: 1, SubmitS: 0, Nodes: 2, BaseS: 200, Bucket: memuse.BucketUnder25},
			{ID: 2, SubmitS: 0, Nodes: 2, BaseS: 125, Bucket: memuse.BucketUnder25},
			{ID: 3, SubmitS: 1, Nodes: 2, BaseS: 10, Bucket: memuse.BucketUnder25},
			{ID: 4, SubmitS: 2, Nodes: 2, BaseS: 10, Bucket: memuse.BucketUnder25},
		},
		want: map[int]want{3: {99, 800}, 4: {98, 600}},
	}, {
		// Jobs 1 (1 node) and 2 (4 nodes) both end at t=100 with 1 node
		// free; head 3 needs 3. In start order the shadow crosses at job 2
		// with 3 nodes to spare, which leaves room for job 4 to backfill
		// at once; counting job 2 first would leave none.
		name:    "shadow",
		cluster: UniformCluster(6, 0),
		model:   ConventionalModel,
		jobs: []Job{
			{ID: 1, SubmitS: 0, Nodes: 1, BaseS: 100, Bucket: memuse.BucketOver50},
			{ID: 2, SubmitS: 0, Nodes: 4, BaseS: 100, Bucket: memuse.BucketOver50},
			{ID: 3, SubmitS: 1, Nodes: 3, BaseS: 10, Bucket: memuse.BucketOver50},
			{ID: 4, SubmitS: 2, Nodes: 1, BaseS: 1000, Bucket: memuse.BucketOver50},
		},
		want: map[int]want{3: {99, 0}, 4: {0, 0}},
	}}
	for _, tc := range cases {
		tr := &Trace{Jobs: tc.jobs, TotalNodes: tc.cluster.Nodes(), PeriodS: 1e6}
		res := Simulate(tr, tc.cluster, PolicyMarginAware, tc.model, 1)
		if len(res.Jobs) != len(tc.jobs) {
			t.Fatalf("%s: completed %d of %d jobs", tc.name, len(res.Jobs), len(tc.jobs))
		}
		for _, j := range res.Jobs {
			w, ok := tc.want[j.JobID]
			if ok && (j.WaitS != w.waitS || j.MinMargin != w.minMargin) {
				t.Errorf("%s: job %d wait %v margin %d, want wait %v margin %d",
					tc.name, j.JobID, j.WaitS, j.MinMargin, w.waitS, w.minMargin)
			}
		}
	}
}

func TestSimulateRejectsImpossibleJobs(t *testing.T) {
	for name, nodes := range map[string]int{"no-nodes": 0, "negative-nodes": -1, "more-than-cluster": 11} {
		t.Run(name, func(t *testing.T) {
			tr := &Trace{TotalNodes: 10, PeriodS: 1e6, Jobs: []Job{
				{ID: 1, SubmitS: 0, Nodes: 1, BaseS: 10},
				{ID: 7, SubmitS: 1, Nodes: nodes, BaseS: 10},
			}}
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "job 7") {
					t.Errorf("panic %q, want one naming job 7", msg)
				}
			}()
			Simulate(tr, UniformCluster(10, 0), PolicyDefault, ConventionalModel, 1)
		})
	}
}

func TestBackfillNeverDelaysHead(t *testing.T) {
	// A large head job queues behind a long runner; small jobs backfill.
	// The head's start time with backfill must equal its start time
	// without any backfill candidates (EASY's invariant).
	base := &Trace{TotalNodes: 10, PeriodS: 1e6}
	base.Jobs = []Job{
		{ID: 1, SubmitS: 0, Nodes: 8, BaseS: 1000, Bucket: memuse.BucketOver50},
		{ID: 2, SubmitS: 1, Nodes: 8, BaseS: 500, Bucket: memuse.BucketOver50}, // head-of-line
	}
	noBF := Simulate(base, UniformCluster(10, 0), PolicyDefault, ConventionalModel, 1)
	withSmall := &Trace{TotalNodes: 10, PeriodS: 1e6}
	withSmall.Jobs = append(append([]Job{}, base.Jobs...),
		Job{ID: 3, SubmitS: 2, Nodes: 2, BaseS: 100, Bucket: memuse.BucketOver50},
	)
	bf := Simulate(withSmall, UniformCluster(10, 0), PolicyDefault, ConventionalModel, 1)
	headStart := func(r *Result) float64 {
		for _, j := range r.Jobs {
			if j.JobID == 2 {
				return j.WaitS
			}
		}
		t.Fatal("head job missing")
		return 0
	}
	if headStart(bf) > headStart(noBF) {
		t.Errorf("backfill delayed the head: wait %v vs %v", headStart(bf), headStart(noBF))
	}
	// The small job must actually have backfilled (started before the head).
	for _, j := range bf.Jobs {
		if j.JobID == 3 && j.WaitS > 0.0 {
			t.Errorf("small job did not backfill: wait %v", j.WaitS)
		}
	}
}

func TestWaitPercentiles(t *testing.T) {
	tr, nodes := smallTrace(30)
	r := Simulate(tr, UniformCluster(nodes, 0), PolicyDefault, ConventionalModel, 1)
	if r.P50WaitS > r.P95WaitS {
		t.Errorf("p50 wait %v above p95 %v", r.P50WaitS, r.P95WaitS)
	}
	if r.P95WaitS < r.MeanWaitS/10 && r.MeanWaitS > 0 {
		t.Errorf("p95 wait %v implausibly below mean %v", r.P95WaitS, r.MeanWaitS)
	}
}
