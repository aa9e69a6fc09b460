package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/runcache"
	"repro/internal/simd"
)

// jobSpec is the JSON body of one simd job submission.
type jobSpec struct {
	Experiments []string `json:"experiments"`
	Seed        uint64   `json:"seed"`
	Quick       bool     `json:"quick"`
}

// sweepJobs lists seeds seed…seed+n-1, each crossed with figs, seed-major.
func sweepJobs(seed uint64, n int, figs []string) []jobSpec {
	var jobs []jobSpec
	for s := seed; s < seed+uint64(n); s++ {
		for _, f := range figs {
			jobs = append(jobs, jobSpec{Experiments: []string{f}, Seed: s, Quick: true})
		}
	}
	return jobs
}

// jobOutcome is one finished (or failed) job.
type jobOutcome struct {
	spec    jobSpec
	id      string
	latency time.Duration // from submit to the last byte of the result
	body    []byte        // result bytes as served
	text    string        // the rendered tables inside the result
	err     error
}

// sweepClients is the number of closed-loop clients; each waits for its
// job's result before taking the next job from the shared ordered list.
const sweepClients = 2

// runSweep runs jobs against a simd daemon at base. Clients carry
// distinct X-Simd-Client values, so each gets its own admission slots.
func runSweep(ctx context.Context, base string, jobs []jobSpec, t *tracer) []jobOutcome {
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: sweepClients}, Timeout: 3 * time.Minute}
	defer client.CloseIdleConnections()
	out := make([]jobOutcome, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < sweepClients; c++ {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) || ctx.Err() != nil {
					return
				}
				out[i] = runJob(ctx, client, base, name, jobs[i], t)
			}
		}(fmt.Sprintf("bench-%d", c))
	}
	wg.Wait()
	for i := range out {
		if out[i].spec.Experiments == nil {
			out[i] = jobOutcome{spec: jobs[i], err: fmt.Errorf("job %d not run: %v", i, ctx.Err())}
		}
	}
	return out
}

// runJob submits one job, waits for it, and fetches its result.
func runJob(ctx context.Context, client *http.Client, base, name string, spec jobSpec, t *tracer) (o jobOutcome) {
	o.spec = spec
	sid := t.begin("simd.job", "", 0)
	start := time.Now()
	defer func() {
		o.latency = time.Since(start)
		t.end(sid, o.id)
		if o.err != nil {
			o.err = fmt.Errorf("simd job %v seed %d: %w", spec.Experiments, spec.Seed, o.err)
		}
	}()
	body, err := json.Marshal(spec)
	if err != nil {
		o.err = err
		return o
	}
	st, err := call(ctx, client, http.MethodPost, base+"/v1/jobs?wait=1", name, body)
	if err != nil {
		o.err = err
		return o
	}
	var status struct {
		ID    string `json:"id"`
		State string `json:"state"`
		Error string `json:"error"`
	}
	if err := json.Unmarshal(st, &status); err != nil {
		o.err = fmt.Errorf("decoding status: %w", err)
		return o
	}
	o.id = status.ID
	if status.State != "done" {
		o.err = fmt.Errorf("job %s ended %q: %s", status.ID, status.State, status.Error)
		return o
	}
	if o.body, err = call(ctx, client, http.MethodGet, base+"/v1/jobs/"+status.ID+"/result", name, nil); err != nil {
		o.err = err
		return o
	}
	var res struct {
		Tables []struct {
			ID string `json:"id"`
		} `json:"tables"`
		Text string `json:"text"`
	}
	if err := json.Unmarshal(o.body, &res); err != nil {
		o.err = fmt.Errorf("decoding result: %w", err)
		return o
	}
	o.text = res.Text
	switch {
	case len(res.Tables) != 1 || res.Tables[0].ID != spec.Experiments[0]:
		o.err = fmt.Errorf("result holds the wrong tables")
	case res.Text == "" || badNumber.MatchString(res.Text):
		o.err = fmt.Errorf("result text is empty or holds a NaN or infinite value")
	}
	return o
}

// call performs one request and returns the body of a 200 reply.
func call(ctx context.Context, client *http.Client, method, url, name string, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("X-Simd-Client", name)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, tail(data))
	}
	return data, nil
}

// simdServer is the daemon's job API served in-process, built from its
// public constructor with the run cache attached and nothing else set.
type simdServer struct {
	simd   *simd.Server
	cache  *runcache.Cache
	hs     *http.Server
	url    string
	served chan error
}

// serveSimd serves a fresh daemon on an ephemeral port, every request
// timed by t.
func serveSimd(t *tracer, dir string) (*simdServer, error) {
	cache, err := runcache.Open(dir)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &simdServer{
		simd:   simd.New(simd.Config{Cache: cache}),
		cache:  cache,
		url:    "http://" + ln.Addr().String(),
		served: make(chan error, 1),
	}
	s.hs = &http.Server{Handler: t.simdHandler(s.simd.Handler()), ReadHeaderTimeout: 10 * time.Second}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// stop shuts the server down and waits for its jobs to drain.
func (s *simdServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	<-s.served
	if !s.simd.Drain(ctx) && err == nil {
		err = fmt.Errorf("simd: jobs still running after the drain window")
	}
	return err
}
