package hpc

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/results.golden")

// fig17Def is one of the four cluster/policy/model systems Fig 17
// simulates, with the §III-D3 group shares and fixed node speedups.
type fig17Def struct {
	name    string
	cluster *Cluster
	policy  Policy
	model   SpeedupModel
}

func fig17Defs(nodes int) []fig17Def {
	grouped := GroupedCluster(nodes, 0.62, 0.36)
	model := HeteroDMRModel(1.21, 1.17)
	return []fig17Def{
		{"conv", UniformCluster(nodes, 0), PolicyDefault, ConventionalModel},
		{"more17", UniformCluster(nodes+nodes*17/100, 0), PolicyDefault, ConventionalModel},
		{"aware", grouped, PolicyMarginAware, model},
		{"default", grouped, PolicyDefault, model},
	}
}

// resultDigest hashes every field of r, floats by their exact bits.
func resultDigest(r *Result) string {
	h := sha256.New()
	putInt := func(v int) { writeU64(h, uint64(v)) }
	putFloat := func(v float64) { writeU64(h, math.Float64bits(v)) }
	putInt(len(r.Jobs))
	for _, j := range r.Jobs {
		putInt(j.JobID)
		putFloat(j.WaitS)
		putFloat(j.ExecS)
		putFloat(j.TurnaroundS)
		putInt(j.MinMargin)
	}
	for _, v := range []float64{r.MeanWaitS, r.MeanExecS, r.MeanTurnaround, r.P50WaitS, r.P95WaitS} {
		putFloat(v)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func writeU64(h hash.Hash, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	h.Write(b[:])
}

// TestResultGolden pins the scheduler's output bits: quick-scale traces
// for seeds 1-8 and the Grizzly-scale trace at seed 1, each through the
// four Fig 17 systems. Any change to scheduling order, tie handling or
// float accumulation shows up here. Regenerate (only for an intended
// output change) with `go test ./internal/hpc -run ResultGolden -update`.
func TestResultGolden(t *testing.T) {
	var got strings.Builder
	record := func(scale string, seed uint64, tr *Trace, nodes int) {
		for _, d := range fig17Defs(nodes) {
			res, vs := SimulateObserved(tr, d.cluster, d.policy, d.model, seed, nil, "")
			if len(vs) != 0 {
				t.Errorf("%s seed %d %s: violations %v", scale, seed, d.name, vs)
			}
			fmt.Fprintf(&got, "%s %d %s %s\n", scale, seed, d.name, resultDigest(res))
		}
	}
	for seed := uint64(1); seed <= 8; seed++ {
		// The reduced trace `heterodmr -quick` simulates.
		const nodes = 256
		record("quick", seed, GenerateTrace(6_000, nodes, TracePeriodS/8, TargetNodeUtil, testFrac, seed), nodes)
	}
	record("grizzly", 1, GenerateGrizzlyTrace(testFrac, 1), GrizzlyNodes)

	path := filepath.Join("testdata", "results.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with go test ./internal/hpc -run ResultGolden -update)", err)
	}
	gotLines := strings.Split(got.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("computed %d digest lines, golden file has %d", len(gotLines), len(wantLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("digest drifted:\n got: %s\nwant: %s", gotLines[i], wantLines[i])
		}
	}
}
