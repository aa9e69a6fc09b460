package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/stats"
)

// golden holds SHA-256 digests of CLI outputs, one "<scale> <seed>
// <digest>" per line, where scale is "full" (heterodmr -all), "fig17"
// (heterodmr -exp fig17) or "quick" (heterodmr -all -quick). The "full 1"
// digest is that of experiments_full.txt.
//
//go:embed testdata/golden.txt
var goldenText string

// bench is one invocation of the harness: where the checkout is, the
// CLIs built from it, and the bookkeeping shared by every workload.
type bench struct {
	ctx   context.Context
	root  string // repository checkout the CLIs are built from
	work  string // build directory for spans and temporary files
	tmp   string // this invocation's scratch, removed by close
	bin   string // directory of the last CLI build
	self  string // this executable, re-run as a shard worker
	seed  uint64
	smoke bool
	log   io.Writer

	golden map[string]string
	titles map[string]bool // table titles of experiments_full.txt, digits masked

	wr   *workloadResult
	seen map[string]string // output key → digest, across rounds
}

func newBench(ctx context.Context, root, work string, seed uint64, smoke bool, log io.Writer) (*bench, error) {
	ref, err := os.ReadFile(filepath.Join(root, "experiments_full.txt"))
	if err != nil {
		return nil, fmt.Errorf("%s is not a checkout of the repository: %w", root, err)
	}
	if err := os.MkdirAll(filepath.Join(work, "tmp"), 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(filepath.Join(work, "tmp"), "run-")
	if err != nil {
		return nil, err
	}
	self, err := os.Executable()
	if err != nil {
		os.RemoveAll(tmp)
		return nil, err
	}
	b := &bench{
		ctx: ctx, root: root, work: work, tmp: tmp, self: self,
		seed: seed, smoke: smoke, log: log,
		golden: map[string]string{}, titles: map[string]bool{},
	}
	sc := bufio.NewScanner(strings.NewReader(goldenText))
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) == 3 {
			b.golden[f[0]+" "+f[1]] = f[2]
		}
	}
	for _, t := range tableTitles(ref) {
		b.titles[t] = true
	}
	return b, nil
}

// close removes the invocation's temporary files.
func (b *bench) close() { os.RemoveAll(b.tmp) }

func (b *bench) logf(format string, args ...any) { fmt.Fprintf(b.log, "bench: "+format+"\n", args...) }

// build compiles the named commands from the checkout into the build
// directory's bin/, once per invocation and before anything is timed: no
// metric includes the build. The go tool skips the link of a binary that
// is already up to date, so later invocations start quickly.
func (b *bench) build(cmds ...string) error {
	b.bin = filepath.Join(b.work, "bin")
	args := []string{"build", "-buildvcs=false", "-o", b.bin + string(filepath.Separator)}
	for _, c := range cmds {
		args = append(args, "./cmd/"+c)
	}
	cmd := exec.CommandContext(b.ctx, "go", args...)
	cmd.Dir = b.root
	start := time.Now()
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build %s: %v: %s", strings.Join(cmds, " "), err, tail(out))
	}
	b.logf("built %s in %.2fs", strings.Join(cmds, " "), time.Since(start).Seconds())
	return nil
}

func (b *bench) tempDir(prefix string) (string, error) { return os.MkdirTemp(b.tmp, prefix+"-") }

// cli runs one of the built commands to completion.
func (b *bench) cli(name string, args ...string) (invocation, error) {
	return runCmd(b.ctx, filepath.Join(b.bin, name), args...)
}

// note counts one attempted operation and whether it failed.
func (b *bench) note(err error) {
	b.wr.Attempted++
	if err != nil {
		b.wr.Failed++
		b.wr.Errors = append(b.wr.Errors, err.Error())
	}
}

func digest(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// agree records the output an operation produced under key and fails if
// an earlier round produced different bytes for the same key.
func (b *bench) agree(key string, out []byte) error {
	d := digest(out)
	if prev, ok := b.seen[key]; ok && prev != d {
		return fmt.Errorf("%s: output differs from an earlier round (sha256 %s, was %s)", key, d, prev)
	}
	b.seen[key] = d
	return nil
}

// checkOutput verifies a CLI output. With a golden digest for (scale,
// seed) the bytes must match it exactly; otherwise the output must have
// the expected number of tables, each titled like a table of the
// reference suite, and no NaN or infinite value.
func (b *bench) checkOutput(scale string, seed uint64, tables int, out []byte) error {
	if want, ok := b.golden[scale+" "+strconv.FormatUint(seed, 10)]; ok {
		if got := digest(out); got != want {
			return fmt.Errorf("%s seed %d: output sha256 %s, golden %s", scale, seed, got, want)
		}
		return nil
	}
	titles := tableTitles(out)
	if len(titles) != tables {
		return fmt.Errorf("%s seed %d: %d tables, want %d", scale, seed, len(titles), tables)
	}
	for _, t := range titles {
		if !b.titles[t] {
			return fmt.Errorf("%s seed %d: unexpected table %q", scale, seed, t)
		}
	}
	if badNumber.Match(out) {
		return fmt.Errorf("%s seed %d: output holds a NaN or infinite value", scale, seed)
	}
	return nil
}

var (
	digits    = regexp.MustCompile(`[0-9]+`)
	badNumber = regexp.MustCompile(`\b(NaN|[+-]?Inf)\b`)
)

// tableTitles returns the first line of every blank-line-separated
// block, digits masked.
func tableTitles(out []byte) []string {
	var titles []string
	for _, block := range bytes.Split(bytes.TrimSpace(out), []byte("\n\n")) {
		line, _, _ := bytes.Cut(bytes.TrimLeft(block, "\n"), []byte("\n"))
		titles = append(titles, digits.ReplaceAllString(string(line), "#"))
	}
	return titles
}

// setupTrials is how many times each cheap set-up step — a program
// start, a daemon start, a worker-pair start — is repeated; every trial
// is one setup_s sample, and the last repetition serves the run.
func setupTrials(b *bench) int {
	if b.smoke {
		return 1
	}
	return 5
}

// round is one fixed unit of a workload's work and what it cost.
type round struct {
	setup []time.Duration // set-up trials inside the round (fresh daemon or workers)
	procs []procStats     // every program process the round ran
	wall  time.Duration
	ops   []time.Duration // per-operation latency
}

func (r *round) add(p procStats) { r.procs = append(r.procs, p) }

// runner runs one benchmark workload. cmds names the CLIs it runs;
// prepare runs once before the timed rounds and returns the durations of
// its set-up trials; round runs one untraced round
// against the built CLIs; traced runs the same work in-process with
// spans and stores per-layer metrics in lm, returning its wall time and
// any CPU profiles written by other processes; verify checks outputs
// against in-process references after the timed phase.
type runner interface {
	cmds() []string
	prepare(b *bench) ([]time.Duration, error)
	round(b *bench) (*round, error)
	traced(b *bench, t *tracer, lm map[string]float64) (time.Duration, []string, error)
	verify(b *bench)
}

// workloadDef names a workload and why the benchmark runs it.
type workloadDef struct {
	name, why string
	make      func() runner
}

// measure runs one workload on the built CLIs: set-up, then rounds until
// reps are done and the time budget leaves no room for another round.
// Every set-up trial, in prepare or in a round, is one setup_s sample.
// With trace it runs one untraced and one traced round and reports
// per-layer metrics instead.
func (b *bench) measure(def workloadDef, reps int, budget time.Duration, trace bool) *workloadResult {
	wr := &workloadResult{Name: def.name, Metrics: map[string]*metricResult{}}
	b.wr, b.seen = wr, map[string]string{}
	defer func() {
		if wr.Attempted > 0 {
			wr.ErrorRate = float64(wr.Failed) / float64(wr.Attempted)
		}
		wr.Correct = wr.Failed == 0 && len(wr.Errors) == 0 && wr.Attempted > 0
	}()
	fail := func(err error) *workloadResult {
		wr.Errors = append(wr.Errors, err.Error())
		return wr
	}
	w := def.make()
	b.logf("%s: setting up", def.name)
	prep, err := w.prepare(b)
	if err != nil {
		return fail(err)
	}
	var rounds []*round
	start := time.Now()
	var last time.Duration
	for len(rounds) < reps || (!trace && budget > 0 && time.Since(start)+last <= budget) {
		t0 := time.Now()
		r, err := w.round(b)
		if err != nil {
			return fail(err)
		}
		last = time.Since(t0)
		rounds = append(rounds, r)
		b.logf("%s: round %d took %.2fs", def.name, len(rounds), last.Seconds())
	}

	setups := prep
	for _, r := range rounds {
		setups = append(setups, r.setup...)
	}
	for _, d := range setups {
		addSample(wr.Metrics, endToEnd[0], d.Seconds())
	}
	var p50s, tails []float64
	for _, r := range rounds {
		var cpu time.Duration
		var rss float64
		for _, p := range r.procs {
			cpu += p.cpu
			rss = max(rss, p.rss)
		}
		for _, v := range []struct {
			name string
			v    float64
		}{
			{"wall_s", r.wall.Seconds()},
			{"cpu_s", cpu.Seconds()},
			{"rss_mb", rss},
		} {
			d, _ := metricByName(v.name)
			addSample(wr.Metrics, d, v.v)
		}
		ops := make([]float64, len(r.ops))
		for i, d := range r.ops {
			ops[i] = d.Seconds()
		}
		wr.Ops, wr.TailPct = len(ops), tailPercentile(len(ops))
		p50s = append(p50s, stats.Percentile(ops, 50))
		if wr.TailPct > 0 {
			tails = append(tails, stats.Percentile(ops, float64(wr.TailPct)))
		}
	}
	wr.OpP50S, wr.OpTailS = summarize(p50s).Median, summarize(tails).Median

	if trace {
		if err := b.traceWorkload(def, w, rounds[0].wall); err != nil {
			return fail(err)
		}
	}
	w.verify(b)
	return wr
}

// traceWorkload runs the workload's traced round under a CPU profile,
// then the layer probes, and fills wr.Layers with every per-layer
// metric.
func (b *bench) traceWorkload(def workloadDef, w runner, untraced time.Duration) error {
	t := &tracer{}
	lm := map[string]float64{}
	prof := filepath.Join(b.tmp, "cpu.prof")
	f, err := os.Create(prof)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	b.logf("%s: traced round", def.name)
	wall, others, err := w.traced(b, t, lm)
	runtime.ReadMemStats(&m1)
	pprof.StopCPUProfile()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	lm["runtime.alloc_mb"] = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	lm["runtime.gc_cycles"] = float64(m1.NumGC - m0.NumGC)
	lm["trace.overhead"] = wall.Seconds()/untraced.Seconds() - 1
	top, err := pprofTop(b.ctx, append([]string{prof}, others...)...)
	if err != nil {
		return err
	}
	for k, v := range shareMetrics(parseTop(top)) {
		lm[k] = v
	}
	b.logf("%s: layer probes", def.name)
	if err := b.probes(t, lm); err != nil {
		return err
	}

	b.wr.Layers = map[string]*metricResult{}
	for _, d := range perLayer {
		addSample(b.wr.Layers, d, lm[d.Name]) // a layer the workload never reaches reads 0
	}
	spans := t.snapshot()
	b.wr.SelfS = selfByName(spans)
	path := filepath.Join(b.work, "spans-"+def.name+".jsonl")
	if err := writeSpans(path, spans); err != nil {
		return err
	}
	b.logf("%s: %d spans written to %s", def.name, len(spans), path)
	return nil
}
