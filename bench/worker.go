package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime/pprof"
	"syscall"
	"time"

	"repro/internal/runcache"
	"repro/internal/shard"
)

// shardWorker serves the shard unit API for the traced fleet run:
//
//	bench shard-worker <cache-dir> <spans.jsonl> <cpu.prof>
//
// It times every unit it executes, profiles itself, announces its
// address on stdout, and on SIGTERM drains, then writes its spans and
// profile before exiting.
func shardWorker(args []string, stdout, stderr io.Writer) int {
	if len(args) != 3 {
		fmt.Fprintln(stderr, "usage: bench shard-worker <cache-dir> <spans.jsonl> <cpu.prof>")
		return 2
	}
	dir, spansPath, profPath := args[0], args[1], args[2]
	cache, err := runcache.Open(dir)
	if err != nil {
		fmt.Fprintf(stderr, "bench worker: %v\n", err)
		return 1
	}
	f, err := os.Create(profPath)
	if err != nil {
		fmt.Fprintf(stderr, "bench worker: %v\n", err)
		return 1
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		fmt.Fprintf(stderr, "bench worker: %v\n", err)
		return 1
	}
	defer f.Close()
	defer pprof.StopCPUProfile()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintf(stderr, "bench worker: %v\n", err)
		return 1
	}
	t := &tracer{}
	w := shard.NewWorker(runcache.CodeVersion(), cache, nil)
	hs := &http.Server{Handler: t.shardUnitHandler(w.Handler()), ReadHeaderTimeout: 10 * time.Second}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	fmt.Fprintf(stdout, "bench worker listening on http://%s\n", ln.Addr())

	select {
	case <-ctx.Done():
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err = hs.Shutdown(sctx)
		cancel()
		<-served
	case err = <-served:
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench worker: %v\n", err)
		return 1
	}
	if err := writeSpans(spansPath, t.snapshot()); err != nil {
		fmt.Fprintf(stderr, "bench worker: %v\n", err)
		return 1
	}
	return 0
}
