package main

import (
	"bytes"
	"context"
	"fmt"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"time"
)

// procStats is what one finished program process cost.
type procStats struct {
	wall time.Duration
	cpu  time.Duration // user + system, from the child's rusage
	rss  float64       // peak resident set, MB
}

// usage reads a finished command's CPU time and peak RSS.
func usage(cmd *exec.Cmd) (cpu time.Duration, rssMB float64) {
	ps := cmd.ProcessState
	if ps == nil {
		return 0, 0
	}
	cpu = ps.UserTime() + ps.SystemTime()
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return cpu, rssMB
}

// invocation is one finished CLI run.
type invocation struct {
	procStats
	stdout, stderr []byte
}

// runCmd runs a program to completion, capturing its output. A non-zero
// exit is an error that quotes the tail of the program's stderr.
func runCmd(ctx context.Context, path string, args ...string) (invocation, error) {
	cmd := exec.CommandContext(ctx, path, args...)
	cmd.SysProcAttr = childAttr()
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	start := time.Now()
	err := cmd.Run()
	inv := invocation{stdout: out.Bytes(), stderr: errb.Bytes()}
	inv.wall = time.Since(start)
	inv.cpu, inv.rss = usage(cmd)
	if err != nil {
		return inv, fmt.Errorf("%s %s: %v: %s", path, strings.Join(args, " "), err, tail(errb.Bytes()))
	}
	return inv, nil
}

// tail returns the last few hundred bytes of a program's diagnostics.
func tail(b []byte) string {
	const n = 400
	if len(b) > n {
		b = b[len(b)-n:]
	}
	return string(bytes.TrimSpace(b))
}

// server is a long-lived program process (the simd daemon or a shard
// worker) that announces its address with a "listening on http://..."
// line on stdout. Only ephemeral ports are used: the address is scraped
// from that line.
type server struct {
	cmd   *exec.Cmd
	url   string
	start time.Time
	done  chan struct{} // closed once Wait has returned
	out   *announceWriter
	errb  *syncBuffer
	once  sync.Once
	stats procStats
}

// startServer launches a server and waits until it announces its URL,
// returning how long that took.
func startServer(ctx context.Context, path string, args ...string) (*server, time.Duration, error) {
	s := &server{
		cmd:  exec.CommandContext(ctx, path, args...),
		done: make(chan struct{}),
		out:  &announceWriter{url: make(chan string, 1)},
		errb: &syncBuffer{},
	}
	s.cmd.SysProcAttr = childAttr()
	s.cmd.Stdout, s.cmd.Stderr = s.out, s.errb
	s.start = time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, 0, err
	}
	go func() {
		_ = s.cmd.Wait() // the exit status is read from ProcessState in stop
		close(s.done)
	}()
	select {
	case s.url = <-s.out.url:
		return s, time.Since(s.start), nil
	case <-s.done:
		return nil, 0, fmt.Errorf("%s exited before announcing its address: %s", path, tail(s.errb.Bytes()))
	case <-time.After(30 * time.Second):
		s.stop()
		return nil, 0, fmt.Errorf("%s did not announce its address within 30s", path)
	}
}

// stop asks the server to shut down (SIGTERM, then SIGKILL after a grace
// period), waits for it to exit, and returns its lifetime cost. Safe to
// call more than once.
func (s *server) stop() procStats {
	s.once.Do(func() {
		_ = s.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-s.done:
		case <-time.After(15 * time.Second):
			_ = s.cmd.Process.Kill()
			<-s.done
		}
		s.stats.wall = time.Since(s.start)
		s.stats.cpu, s.stats.rss = usage(s.cmd)
	})
	return s.stats
}

// announceWriter collects a server's stdout and delivers the URL of its
// first "listening on http://..." line.
type announceWriter struct {
	mu   sync.Mutex
	buf  []byte
	sent bool
	url  chan string
}

func (w *announceWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.sent {
		return len(p), nil
	}
	w.buf = append(w.buf, p...)
	for {
		line, rest, ok := bytes.Cut(w.buf, []byte("\n"))
		if !ok {
			return len(p), nil
		}
		w.buf = rest
		if _, u, found := strings.Cut(string(line), "listening on "); found && strings.HasPrefix(u, "http://") {
			w.sent = true
			w.url <- strings.TrimSpace(u)
			return len(p), nil
		}
	}
}

// syncBuffer is a bytes.Buffer safe for the exec copier and a reader.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) Bytes() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]byte(nil), s.b.Bytes()...)
}
