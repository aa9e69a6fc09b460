// Command simd is the simulation daemon: a long-lived HTTP/JSON service
// over the experiment engine. Clients POST an experiment spec to
// /v1/jobs and get a deterministic job id (the content hash of the
// normalized spec and the code version); status is polled at
// /v1/jobs/{id} or streamed at /v1/jobs/{id}/stream, and typed results
// come from /v1/jobs/{id}/result — byte-identical no matter how often,
// at what worker count, or on which side of a restart the job runs.
//
// With -cache-dir, node-simulation results and Monte-Carlo ranges
// persist in a verified content-addressed store: resubmitting a spec —
// even to a freshly restarted daemon — re-renders everything from cache
// with zero re-simulations, jobs running at the same time simulate a
// cell they share once, and any previously issued job id can be fetched
// again because job specs persist alongside the cache.
//
// With -shard the daemon becomes a coordinator: it fans every job's cell
// plan and Monte-Carlo ranges out to the listed shard workers, which are
// `heterodmr -worker` processes sharing the -cache-dir store.
//
// Conservation checks are per job: a spec asks for them with
// "check": true, and the job's result lists its violations. The shared
// -check flag therefore exits 2 at startup.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/cliobs"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/simd"
)

func main() {
	os.Exit(run())
}

func run() int {
	addr := flag.String("addr", "127.0.0.1:8477", "listen address")
	workers := flag.Int("workers", 0, "per-job worker pool size (0 = GOMAXPROCS); results are identical for every value")
	maxClientJobs := flag.Int("max-client-jobs", 2, "concurrent jobs allowed per client; further submissions queue")
	drain := flag.Duration("drain", 30*time.Second, "shutdown grace window for in-flight connections and jobs")
	sh := &shard.CLI{}
	sh.Register(flag.CommandLine)
	ob := cliobs.Register()
	flag.Parse()

	if *workers < 0 || *maxClientJobs < 1 {
		fmt.Fprintln(os.Stderr, "simd: -workers must be >= 0 and -max-client-jobs >= 1")
		return 2
	}
	if err := sh.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "simd: %v\n", err)
		return 2
	}
	if ob.Check {
		fmt.Fprintln(os.Stderr, `simd: -check is not a daemon flag: a job asks for conservation checks with "check": true in its spec`)
		return 2
	}
	if code := ob.StartProfile("simd"); code != 0 {
		return code
	}

	// The daemon always keeps a registry: /v1/metrics is part of the API.
	reg := ob.Registry()
	if reg == nil {
		reg = obs.NewRegistry()
	}

	pool, cache, cleanup, err := sh.Pool(reg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "simd: %v\n", err)
		return 1
	}
	defer cleanup()
	plan, _ := sh.FaultPlan(reg) // memoized: same plan Pool resolved

	srv := simd.New(simd.Config{
		Workers:          *workers,
		MaxJobsPerClient: *maxClientJobs,
		Cache:            cache,
		CacheVersion:     "", // default: runcache.CodeVersion()
		Reg:              reg,
		Shard:            pool,
		Faults:           plan,
	})

	// Writes must cover /v1/jobs?wait=1 and /stream, which legitimately
	// stay open for a full suite run. On SIGINT/SIGTERM in-flight jobs
	// finish (persisting their cells) inside the drain window, so whatever
	// the window cuts short is replayed or recomputed byte-identically by
	// the next daemon.
	code := shard.Serve("simd", *addr, srv.Handler(), 30*time.Minute, *drain, srv.Drain)
	if c := ob.Finish("simd", reg, nil); c != 0 {
		return c
	}
	return code
}
