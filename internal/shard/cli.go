package shard

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/runcache"
)

// CLI is the flag surface for coordinator and worker modes, in two
// sets. Register adds the flags every coordinator takes: -shard (worker
// URLs), -cache-dir/-cache-max-bytes (the store coordinator and workers
// share) and -faults (the chaos harness). RegisterWorker adds the flags
// of a binary that can itself run as a worker: -worker/-worker-addr
// (worker mode) and -shard-workers (spawn local workers). cmd/heterodmr
// registers both sets, cmd/simd only the first.
type CLI struct {
	Worker        bool
	WorkerAddr    string
	Workers       string
	Spawn         int
	CacheDir      string
	CacheMaxBytes int64
	Faults        string

	planOnce sync.Once
	plan     *faultinject.Plan
	planErr  error
}

// Register installs the coordinator and store flags on fs.
func (c *CLI) Register(fs *flag.FlagSet) {
	fs.StringVar(&c.Workers, "shard", "", "comma-separated shard worker base URLs (e.g. http://127.0.0.1:8481,http://10.0.0.2:8481)")
	fs.StringVar(&c.CacheDir, "cache-dir", "", "content-addressed run cache directory (shared with workers)")
	fs.Int64Var(&c.CacheMaxBytes, "cache-max-bytes", 0, "soft cap on run-cache bytes; oldest-read entries are evicted past it (0 = unbounded)")
	fs.StringVar(&c.Faults, "faults", "", "deterministic fault-injection spec, e.g. 'seed=7;runcache/put/torn=0.2' (spawned workers get it too; output stays byte-identical)")
}

// RegisterWorker installs the worker-mode and spawn flags on fs.
func (c *CLI) RegisterWorker(fs *flag.FlagSet) {
	fs.BoolVar(&c.Worker, "worker", false, "run as a shard worker: serve the /shard/v1 batch API instead of running experiments")
	fs.StringVar(&c.WorkerAddr, "worker-addr", "127.0.0.1:0", "listen address in -worker mode")
	fs.IntVar(&c.Spawn, "shard-workers", 0, "spawn this many local shard worker subprocesses for this run")
}

// Validate refuses flag values no run can use, naming the flag. Call it
// after parsing, before ServeWorker or Pool spawns a worker or opens
// the cache.
func (c *CLI) Validate() error {
	if c.Spawn < 0 {
		return fmt.Errorf("invalid -shard-workers %d: must be >= 0", c.Spawn)
	}
	if c.CacheMaxBytes < 0 {
		return fmt.Errorf("invalid -cache-max-bytes %d: must be >= 0 (0 = unbounded)", c.CacheMaxBytes)
	}
	_, err := c.workerURLs()
	return err
}

// workerURLs parses -shard into worker base URLs. Spaces, empty entries
// and one trailing slash are trimmed; an entry that is not an http or
// https URL with a host is refused, since every dispatch to it would
// fail and the run would quietly compute everything locally.
func (c *CLI) workerURLs() ([]string, error) {
	var urls []string
	for _, u := range strings.Split(c.Workers, ",") {
		if u = strings.TrimSpace(u); u == "" {
			continue
		}
		p, err := url.Parse(u)
		if err != nil || (p.Scheme != "http" && p.Scheme != "https") || p.Host == "" {
			return nil, fmt.Errorf("invalid -shard entry %q: want an http:// or https:// URL with a host", u)
		}
		urls = append(urls, strings.TrimSuffix(u, "/"))
	}
	return urls, nil
}

// FaultPlan resolves the fault-injection plan for this process from the
// -faults flag, which spawned workers receive too, so one flag arms a
// whole local fleet. Nil — inject nothing — is the production result.
// Resolved once: the cache, the pool, and the daemon all share one
// schedule.
func (c *CLI) FaultPlan(reg *obs.Registry) (*faultinject.Plan, error) {
	c.planOnce.Do(func() {
		plan, err := faultinject.Parse(c.Faults)
		if err != nil {
			c.planErr = err
			return
		}
		c.plan = plan.Observe(reg)
	})
	return c.plan, c.planErr
}

// openCache opens the run cache configured by the flags with the given
// fault plan attached.
func (c *CLI) openCache(faults *faultinject.Plan) (*runcache.Cache, error) {
	return runcache.OpenOptions(c.CacheDir, runcache.Options{
		MaxBytes: c.CacheMaxBytes,
		Faults:   faults,
	})
}

// ServeWorker runs the worker main loop for the flags: open the cache,
// listen on WorkerAddr, announce the URL on stdout, serve until
// SIGINT/SIGTERM. A batch executes synchronously inside its request, so
// the write timeout sits well above the coordinator's 2m dispatch
// timeout. Returns a process exit code.
func (c *CLI) ServeWorker(name string) int {
	faults, err := c.FaultPlan(nil)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: faults: %v\n", name, err)
		return 1
	}
	var cache *runcache.Cache
	if c.CacheDir != "" {
		cache, err = c.openCache(faults)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: open cache: %v\n", name, err)
			return 1
		}
	}
	h := NewWorker(runcache.CodeVersion(), cache, nil).Handler()
	return Serve(name+" worker", c.WorkerAddr, h, 5*time.Minute, 5*time.Second, nil)
}

// Serve is the serving loop the shard worker and the simd daemon share.
// It listens on addr, announces "<name> listening on http://ADDR" on
// stdout (the startup handshake SpawnLocal and the smoke scripts scrape
// for the bound address), and serves h until SIGINT or SIGTERM. Reads
// are tight, because every request body either server takes is one
// JSON document; writeTimeout must cover the longest response h
// legitimately streams, as a backstop against wedged connections. On a
// signal Serve stops accepting and shuts down gracefully: in-flight
// requests and then drain (when non-nil) share one grace window, and a
// drain that reports false is logged as an expired window. It returns
// the process exit code: 1 if listening, serving or the graceful
// shutdown fails, else 0.
func Serve(name, addr string, h http.Handler, writeTimeout, grace time.Duration, drain func(context.Context) bool) int {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: listen: %v\n", name, err)
		return 1
	}
	hs := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       time.Minute,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       2 * time.Minute,
	}
	// Catch signals before the announce line, so a caller that signals as
	// soon as it reads the address still gets a graceful shutdown.
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(stop)
	fmt.Printf("%s listening on http://%s\n", name, ln.Addr())
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	select {
	case sig := <-stop:
		fmt.Fprintf(os.Stderr, "%s: %v, shutting down\n", name, sig)
		ctx, cancel := context.WithTimeout(context.Background(), grace)
		defer cancel()
		code := 0
		if err := hs.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "%s: shutdown: %v\n", name, err)
			code = 1
		}
		if drain != nil && !drain(ctx) {
			fmt.Fprintf(os.Stderr, "%s: drain window expired with jobs still running\n", name)
		}
		return code
	case err := <-errc:
		fmt.Fprintf(os.Stderr, "%s: serve: %v\n", name, err)
		return 1
	}
}

// Pool builds the coordinator side from the flags: parse -shard URLs,
// spawn -shard-workers local subprocesses sharing -cache-dir and
// -faults, open the cache. pool is nil when no sharding was requested (the cache may still
// be non-nil: -cache-dir alone enables the persistent layer). The pool's
// dispatches run under a SIGINT/SIGTERM-bound context, so shutdown
// cancels in-flight HTTP calls and drains the rest locally. cleanup
// stops any spawned workers and must be called even on error-free runs.
func (c *CLI) Pool(reg *obs.Registry) (pool *Pool, cache *runcache.Cache, cleanup func(), err error) {
	cleanup = func() {}
	urls, err := c.workerURLs()
	if err != nil {
		return nil, nil, cleanup, err
	}
	faults, err := c.FaultPlan(reg)
	if err != nil {
		return nil, nil, cleanup, err
	}
	if c.CacheDir != "" {
		cache, err = c.openCache(faults)
		if err != nil {
			return nil, nil, cleanup, fmt.Errorf("open cache: %w", err)
		}
	}
	if c.Spawn > 0 {
		spawned, stop, err := SpawnLocal(c.Spawn, c.workerArgs())
		if err != nil {
			return nil, nil, cleanup, fmt.Errorf("spawn workers: %w", err)
		}
		cleanup = stop
		urls = append(urls, spawned...)
	}
	if len(urls) == 0 {
		return nil, cache, cleanup, nil
	}
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	stopSpawned := cleanup
	cleanup = func() {
		stopSignals()
		stopSpawned()
	}
	pool = NewPool(PoolOptions{
		Workers:     urls,
		Cache:       cache,
		BaseContext: ctx,
		Faults:      faults,
		Reg:         reg,
	})
	return pool, cache, cleanup, nil
}

// SpawnLocal starts n copies of the current executable with args (a
// CLI's workerArgs) and returns their base URLs plus a stop function
// (SIGTERM, then kill after a grace period). The worker address is
// scraped from each child's announced "listening on http://..." stdout
// line.
func SpawnLocal(n int, args []string) (urls []string, stop func(), err error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	var procs []*exec.Cmd
	stop = func() {
		for _, cmd := range procs {
			_ = cmd.Process.Signal(syscall.SIGTERM)
		}
		for _, cmd := range procs {
			waited := make(chan struct{})
			go func(cmd *exec.Cmd) { _ = cmd.Wait(); close(waited) }(cmd)
			select {
			case <-waited:
			case <-time.After(5 * time.Second):
				_ = cmd.Process.Kill()
				<-waited
			}
		}
	}
	for i := 0; i < n; i++ {
		cmd := exec.Command(exe, args...)
		cmd.Stderr = os.Stderr
		out, err := cmd.StdoutPipe()
		if err != nil {
			stop()
			return nil, nil, err
		}
		if err := cmd.Start(); err != nil {
			stop()
			return nil, nil, err
		}
		procs = append(procs, cmd)
		url, err := scanWorkerURL(out)
		if err != nil {
			stop()
			return nil, nil, fmt.Errorf("worker %d: %w", i, err)
		}
		urls = append(urls, url)
	}
	return urls, stop, nil
}

// workerArgs returns the flags of a spawned local worker: -worker mode
// on an ephemeral port; when -cache-dir is set, the coordinator's store
// with its size cap; and the coordinator's -faults plan. Workers do
// every Put of a fleet run, so an uncapped worker would leave a capped
// store unbounded, and a fault plan that skipped them would leave the
// fleet's cache writes unfaulted.
func (c *CLI) workerArgs() []string {
	args := []string{"-worker", "-worker-addr", "127.0.0.1:0"}
	if c.CacheDir != "" {
		args = append(args, "-cache-dir", c.CacheDir)
		if c.CacheMaxBytes > 0 {
			args = append(args, "-cache-max-bytes", strconv.FormatInt(c.CacheMaxBytes, 10))
		}
	}
	if c.Faults != "" {
		args = append(args, "-faults", c.Faults)
	}
	return args
}

// scanWorkerURL reads the child's stdout until the announce line.
func scanWorkerURL(out io.Reader) (string, error) {
	sc := bufio.NewScanner(out)
	for sc.Scan() {
		line := sc.Text()
		if i := strings.Index(line, "http://"); i >= 0 && strings.Contains(line, "listening on") {
			return strings.TrimSpace(line[i:]), nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", fmt.Errorf("worker exited before announcing its address")
}
