// Package repro's integration tests check repository-level coherence: the
// experiment registry matches DESIGN.md's per-experiment index, the docs
// name only paths that exist, the umbrella suite runs end to end at
// reduced scale, and the headline shape claims hold.
package repro

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/runcache"
	"repro/internal/shard"
)

// TestRegistryMatchesDesignDoc ensures every experiment id in the
// registry appears in DESIGN.md's per-experiment index and vice versa.
func TestRegistryMatchesDesignDoc(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(design)
	for _, e := range experiments.Registry() {
		if e.ID == "config" {
			continue // listed as tab3/tab4 in the doc
		}
		if !strings.Contains(doc, "`"+e.ID+"`") {
			t.Errorf("experiment %s missing from DESIGN.md's index", e.ID)
		}
	}
}

// docPath matches a backticked repository path: a top-level source
// directory followed by path characters only, so globs (`cmd/*`) and
// command lines (`bench/run.sh -smoke`) do not match.
var docPath = regexp.MustCompile("`((?:internal|cmd|examples|scripts|bench)/[A-Za-z0-9_./-]*)`")

// TestDocsNameExistingPaths ensures every repository path that README.md,
// DESIGN.md and EXPERIMENTS.md name in backticks exists, so a deleted or
// renamed package cannot stay documented.
func TestDocsNameExistingPaths(t *testing.T) {
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		body, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for _, m := range docPath.FindAllStringSubmatch(string(body), -1) {
			if p := m[1]; !seen[p] {
				seen[p] = true
				if _, err := os.Stat(p); err != nil {
					t.Errorf("%s names %s, which does not exist", doc, p)
				}
			}
		}
	}
}

// TestBenchmarksCoverRegistry ensures bench_test.go has one benchmark per
// registry entry.
func TestBenchmarksCoverRegistry(t *testing.T) {
	src, err := os.ReadFile("bench_test.go")
	if err != nil {
		t.Fatal(err)
	}
	body := string(src)
	for _, e := range experiments.Registry() {
		if !strings.Contains(body, `"`+e.ID+`"`) {
			t.Errorf("no benchmark regenerates %s", e.ID)
		}
	}
}

// TestEndToEndQuickSuite runs the characterization slice of the full
// suite end to end (the node-level figures are covered by their own
// package tests; running all of them here would double CI time).
func TestEndToEndQuickSuite(t *testing.T) {
	s := experiments.New(experiments.Options{Seed: 2, Quick: true})
	for _, id := range []string{"tab1", "fig1", "fig2", "fig3", "fig4", "tab2", "fig6", "fig11", "config"} {
		e, err := experiments.ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		tab := e.Run(s)
		if len(tab.Rows) == 0 {
			t.Errorf("%s produced no rows", id)
		}
		if tab.String() == "" || tab.Markdown() == "" {
			t.Errorf("%s renders empty", id)
		}
	}
}

// TestExperimentsFileFresh ensures the committed snapshot of the full run
// exists and contains every figure (regenerate with cmd/heterodmr -all).
func TestExperimentsFileFresh(t *testing.T) {
	raw, err := os.ReadFile("experiments_full.txt")
	if err != nil {
		t.Skip("experiments_full.txt not generated yet")
	}
	body := string(raw)
	for _, want := range []string{"Table I", "Fig 1 ", "Fig 2", "Fig 5", "Fig 6",
		"Fig 11", "Fig 12", "Fig 13", "Fig 14", "Fig 15", "Fig 16", "Fig 17"} {
		if !strings.Contains(body, want) {
			t.Errorf("snapshot missing %q", want)
		}
	}
}

// TestQuickSuiteBytesMatchGolden pins the rendered bytes of the quick
// suite at seed 1: the tables exactly as `heterodmr -all -quick` prints
// them (each table's String plus a newline) must hash to the `quick 1`
// digest the benchmark's golden file records. The file is read, never
// written.
func TestQuickSuiteBytesMatchGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole quick suite")
	}
	want := goldenDigest(t, "quick 1")
	if got := suiteDigest(experiments.New(experiments.Options{Seed: 1, Quick: true})); got != want {
		t.Errorf("quick suite seed 1 renders digest %s, golden says %s", got, want)
	}
}

// TestShardedQuickSuiteBytesMatchGolden pins the whole sharded suite to
// the same `quick 1` digest: the suite's cell plan and every Monte-Carlo
// range go to two workers over one shared cache. The cold run sends one
// batch per front end, so the workers record the quick suite's 12 front
// ends once between them. A warm rerun then computes no cell and sends
// no batch.
func TestShardedQuickSuiteBytesMatchGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole quick suite on a worker fleet")
	}
	const version = "sharded-golden"
	want := goldenDigest(t, "quick 1")
	dir := t.TempDir()
	openCache := func() *runcache.Cache {
		c, err := runcache.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	workers := make([]string, 2)
	workerRegs := make([]*obs.Registry, len(workers))
	for i := range workers {
		workerRegs[i] = obs.NewRegistry()
		srv := httptest.NewServer(shard.NewWorker(version, openCache(), workerRegs[i]).Handler())
		t.Cleanup(srv.Close)
		workers[i] = srv.URL
	}
	recordings := func() (n uint64) {
		for _, reg := range workerRegs {
			n += reg.Snapshot().Counters["shard/worker/recordings"]
		}
		return n
	}
	run := func(label string) (computed int, dispatched uint64) {
		reg := obs.NewRegistry()
		pool := shard.NewPool(shard.PoolOptions{Workers: workers, Cache: openCache(), Reg: reg})
		s := experiments.New(experiments.Options{Seed: 1, Quick: true, Workers: 2,
			Cache: openCache(), CacheVersion: version, Shard: pool})
		if got := suiteDigest(s); got != want {
			t.Errorf("%s sharded quick suite seed 1 renders digest %s, golden says %s", label, got, want)
		}
		return s.ComputedRuns(), reg.Snapshot().Counters["shard/dispatched"]
	}
	if computed, dispatched := run("cold"); computed == 0 || dispatched == 0 {
		t.Errorf("cold run computed %d cells in %d batches; want both non-zero", computed, dispatched)
	}
	if n := recordings(); n != 12 {
		t.Errorf("cold run: workers recorded %d front ends, want 12", n)
	}
	if computed, dispatched := run("warm"); computed != 0 || dispatched != 0 {
		t.Errorf("warm run computed %d cells in %d batches; want 0 and 0", computed, dispatched)
	}
}

// suiteDigest renders every table the way `heterodmr -all` prints them
// (each table's String plus a newline) and returns the SHA-256.
func suiteDigest(s *experiments.Suite) string {
	var out strings.Builder
	for _, tab := range s.RunAll() {
		out.WriteString(tab.String())
		out.WriteString("\n")
	}
	sum := sha256.Sum256([]byte(out.String()))
	return hex.EncodeToString(sum[:])
}

// goldenDigest returns the digest bench/testdata/golden.txt records for
// a "<mode> <seed>" label.
func goldenDigest(t *testing.T, label string) string {
	t.Helper()
	f, err := os.Open("bench/testdata/golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), label+" "); ok {
			return strings.TrimSpace(rest)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	t.Fatalf("no %q line in bench/testdata/golden.txt", label)
	return ""
}
