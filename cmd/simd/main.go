// Command simd is the simulation daemon: a long-lived HTTP/JSON service
// over the experiment engine. Clients POST an experiment spec to
// /v1/jobs and get a deterministic job id (the content hash of the
// normalized spec and the code version); progress is polled at
// /v1/jobs/{id} or streamed at /v1/jobs/{id}/stream, and typed results
// come from /v1/jobs/{id}/result — byte-identical no matter how often,
// at what worker count, or on which side of a restart the job runs.
//
// With -cache-dir, node-simulation results persist in a verified
// content-addressed store: resubmitting a spec — even to a freshly
// restarted daemon — re-renders everything from cache with zero
// re-simulations, jobs running at the same time simulate a cell they
// share once, and any previously issued job id can be fetched again
// because job specs persist alongside the cache.
//
// With -worker the binary instead serves the internal/shard batch API
// (POST /shard/v1/batch) on -addr: a coordinator — heterodmr with
// -shard/-shard-workers, or a simd daemon with -shard — dispatches batches
// to it over the shared -cache-dir store, one batch per node front end
// (every memory design of one hierarchy, benchmark and seed, recorded
// once on the worker) and one per Monte-Carlo range. With -shard the
// daemon itself becomes a coordinator, fanning every job's cell plan out
// to those workers.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cliobs"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/simd"
)

func main() {
	os.Exit(run())
}

func run() int {
	addr := flag.String("addr", "127.0.0.1:8477", "listen address")
	cacheDir := flag.String("cache-dir", "", "persistent run-cache directory (empty = in-memory coalescing only)")
	workers := flag.Int("workers", 0, "per-job worker pool size (0 = GOMAXPROCS); results are identical for every value")
	maxClientJobs := flag.Int("max-client-jobs", 2, "concurrent jobs allowed per client; further submissions queue")
	worker := flag.Bool("worker", false, "serve the shard worker batch API on -addr instead of the job API")
	shardURLs := flag.String("shard", "", "comma-separated shard worker base URLs to fan jobs out to")
	shardSpawn := flag.Int("shard-workers", 0, "spawn this many local shard worker subprocesses")
	cacheMax := flag.Int64("cache-max-bytes", 0, "soft cap on run-cache bytes; oldest-read entries are evicted past it (0 = unbounded)")
	faults := flag.String("faults", "", "deterministic fault-injection spec (default "+faultinject.EnvVar+" env; output stays byte-identical)")
	drain := flag.Duration("drain", 30*time.Second, "shutdown grace window for in-flight connections and jobs")
	ob := cliobs.Register()
	flag.Parse()

	sh := &shard.CLI{
		Worker: *worker, WorkerAddr: *addr, Workers: *shardURLs, Spawn: *shardSpawn,
		CacheDir: *cacheDir, CacheMaxBytes: *cacheMax, Faults: *faults,
	}

	if *workers < 0 || *maxClientJobs < 1 {
		fmt.Fprintln(os.Stderr, "simd: -workers must be >= 0 and -max-client-jobs >= 1")
		return 2
	}
	if sh.Worker {
		return sh.ServeWorker("simd", nil)
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

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "simd: %v\n", err)
		return 1
	}
	hs := &http.Server{
		Handler: srv.Handler(),
		// Reads are tight (a spec is one small JSON object), but writes
		// must cover /v1/jobs?wait=1 and /stream, which legitimately stay
		// open for a full suite run — hence the wide write timeout: it is
		// a backstop against wedged connections, not a pace-setter.
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       time.Minute,
		WriteTimeout:      30 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}

	// The listening line goes to stdout so scripts can scrape the bound
	// address (important with -addr :0).
	fmt.Printf("simd listening on http://%s\n", ln.Addr())

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	errc := make(chan error, 1)
	go serve(hs, ln, errc)

	code := 0
	select {
	case sig := <-stop:
		fmt.Fprintf(os.Stderr, "simd: %v, shutting down\n", sig)
		// Stop accepting, then drain: in-flight jobs finish (persisting
		// their cells) inside the grace window, so whatever the window
		// cuts short is replayed or recomputed byte-identically by the
		// next daemon.
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		if err := hs.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "simd: shutdown: %v\n", err)
			code = 1
		}
		if !srv.Drain(ctx) {
			fmt.Fprintln(os.Stderr, "simd: drain window expired with jobs still running")
		}
		cancel()
	case err := <-errc:
		if err != nil && err != http.ErrServerClosed {
			fmt.Fprintf(os.Stderr, "simd: %v\n", err)
			code = 1
		}
	}
	if c := ob.Finish("simd", reg, nil); c != 0 {
		return c
	}
	return code
}

// serve runs the HTTP server; split out so the goroutine body is a plain
// call.
func serve(hs *http.Server, ln net.Listener, errc chan<- error) {
	errc <- hs.Serve(ln)
}
