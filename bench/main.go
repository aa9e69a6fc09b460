// Command bench is the repository's benchmark: it builds the CLIs from
// source, runs four workloads against them as child processes, checks
// every output, and reports end-to-end metrics (medians with quartiles)
// or, with -trace 1, per-layer metrics from an in-process traced run.
//
//	sh bench/run.sh                                   # every workload, seed 1
//	sh bench/run.sh -workload simd-sweep -seed 7 -reps 5 -out r.json
//	sh bench/run.sh -workload figs-full -trace 1      # per-layer metrics
//	sh bench/run.sh -compare parent.json change.json
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// See README.md for the workloads, the metrics and the layer map.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "shard-worker" {
		return shardWorker(args[1:], stdout, stderr)
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		wlist   = fs.String("workload", strings.Join(names, ","), "comma-separated workloads to run")
		seed    = fs.Uint64("seed", 1, "workload seed; inputs are a function of it alone")
		seconds = fs.Int("seconds", 0, "after -reps rounds, keep running rounds while another fits in this many seconds")
		reps    = fs.Int("reps", 1, "timed rounds per workload")
		trace   = fs.Int("trace", 0, "1: run one untraced and one traced round per workload and report per-layer metrics")
		out     = fs.String("out", "", "write the full result (samples, quartiles, host facts) as JSON to this file")
		compare = fs.Bool("compare", false, "compare two result files: -compare parent.json change.json")
		smoke   = fs.Bool("smoke", false, "shrink every workload (quick scale, 4 simd jobs, 1 fleet seed) to check the harness end to end")
		root    = fs.String("root", ".", "repository checkout to build the CLIs from")
		work    = fs.String("workdir", ".bench_build", "directory for the built CLIs, spans and temporary files")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return compareMain(fs.Args(), stdout, stderr)
	}
	var defs []workloadDef
	for _, n := range strings.Split(*wlist, ",") {
		d, ok := workloadByName(strings.TrimSpace(n))
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q (have %s)\n", n, strings.Join(names, ", "))
			return 2
		}
		defs = append(defs, d)
	}
	if *reps < 1 || *seconds < 0 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "bench: -reps must be >= 1, -seconds >= 0, -trace 0 or 1, and no arguments may follow the flags")
		return 2
	}
	rootAbs, err := filepath.Abs(*root)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	workAbs, err := filepath.Abs(*work)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	b, err := newBench(ctx, rootAbs, workAbs, *seed, *smoke, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	defer b.close()
	finished := make(chan struct{})
	defer close(finished)
	go stopOnSignal(cancel, finished, b.tmp, stderr)

	var cmds []string
	for _, d := range defs {
		for _, c := range d.make().cmds() {
			if !slices.Contains(cmds, c) {
				cmds = append(cmds, c)
			}
		}
	}
	if err := b.build(cmds...); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}

	res := &result{Host: currentHost(rootAbs), Seed: *seed, Reps: *reps, Seconds: *seconds, Smoke: *smoke, Trace: *trace == 1}
	for _, d := range defs {
		res.Workloads = append(res.Workloads, b.measure(d, *reps, time.Duration(*seconds)*time.Second, res.Trace))
	}
	printSummary(stdout, res)
	if *out != "" {
		if err := writeResult(*out, res); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	line := summaryLine(res)
	data, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(data))
	if !line.Correct {
		return 1
	}
	return 0
}

// stopOnSignal cancels the run on SIGINT or SIGTERM, which kills every
// child process. If in-process work does not unwind within ten seconds
// it removes the temporary files and exits.
func stopOnSignal(cancel func(), finished <-chan struct{}, tmp string, stderr io.Writer) {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	select {
	case s := <-sig:
		fmt.Fprintf(stderr, "bench: %v: stopping\n", s)
		cancel()
		select {
		case <-finished:
		case <-time.After(10 * time.Second):
			os.RemoveAll(tmp)
			os.Exit(130)
		}
	case <-finished:
	}
}

func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "bench: -compare takes two result files: parent.json change.json")
		return 2
	}
	parent, err := readResult(args[0])
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	change, err := readResult(args[1])
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	if printVerdicts(stdout, compareResults(parent, change)) {
		return 1
	}
	return 0
}
