package simd

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/runcache"
)

func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.CacheVersion == "" {
		cfg.CacheVersion = "test-v1"
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJob(t *testing.T, ts *httptest.Server, body string, query string) (Status, int) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs"+query, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	payload, _ := io.ReadAll(resp.Body)
	var st Status
	if resp.StatusCode < 300 {
		if err := json.Unmarshal(payload, &st); err != nil {
			t.Fatalf("decoding %s: %v", payload, err)
		}
	}
	return st, resp.StatusCode
}

func get(t *testing.T, url string) ([]byte, int) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	payload, _ := io.ReadAll(resp.Body)
	return payload, resp.StatusCode
}

// TestSubmitPollResult walks the basic lifecycle: accepted submission,
// terminal status, typed result with the requested tables.
func TestSubmitPollResult(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 2})
	st, code := postJob(t, ts, `{"experiments":["tab1","fig2"],"quick":true}`, "?wait=1")
	if code != http.StatusOK {
		t.Fatalf("submit status %d", code)
	}
	if st.State != StateDone || st.Done != 2 || st.Total != 2 {
		t.Fatalf("status after wait: %+v", st)
	}
	payload, code := get(t, ts.URL+"/v1/jobs/"+st.ID+"/result")
	if code != http.StatusOK {
		t.Fatalf("result status %d: %s", code, payload)
	}
	var res Result
	if err := json.Unmarshal(payload, &res); err != nil {
		t.Fatal(err)
	}
	if res.ID != st.ID || len(res.Tables) != 2 || res.Tables[0].ID != "tab1" || res.Tables[1].ID != "fig2" {
		t.Fatalf("result shape: id=%s tables=%d", res.ID, len(res.Tables))
	}
	if !strings.Contains(res.Text, "Table I") {
		t.Error("rendered text missing Table I")
	}
}

// TestSubmitIsIdempotent: the job id is the content hash of the
// normalized spec, so equivalent specs — including ones spelled with
// defaulted fields — name the same job, and resubmission coalesces
// instead of re-running.
func TestSubmitIsIdempotent(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 2})
	st1, code1 := postJob(t, ts, `{"experiments":["tab1"],"quick":true}`, "")
	if code1 != http.StatusAccepted {
		t.Fatalf("first submit status %d", code1)
	}
	// Same spec with the defaults spelled out: same id, not a new job.
	st2, code2 := postJob(t, ts, `{"experiments":["tab1"],"quick":true,"seed":1,"seeds":1}`, "?wait=1")
	if code2 != http.StatusOK {
		t.Fatalf("resubmit status %d, want 200 (existing job)", code2)
	}
	if st1.ID != st2.ID {
		t.Fatalf("equivalent specs got different ids:\n %s\n %s", st1.ID, st2.ID)
	}
	snap := s.Registry().Snapshot()
	if snap.Counters["simd/jobs/submitted"] != 1 || snap.Counters["simd/jobs/coalesced"] != 1 {
		t.Errorf("submitted=%d coalesced=%d, want 1/1",
			snap.Counters["simd/jobs/submitted"], snap.Counters["simd/jobs/coalesced"])
	}
	// A different spec is a different job.
	st3, _ := postJob(t, ts, `{"experiments":["tab1"],"quick":true,"seed":2}`, "?wait=1")
	if st3.ID == st1.ID {
		t.Error("different seed produced the same job id")
	}
}

// TestSubmitValidation: malformed JSON, unknown fields, unknown
// experiment ids, a spec over the seed or experiment-count bound, and a
// body over maxSpecBytes are rejected up front, naming what is wrong,
// and create no job.
func TestSubmitValidation(t *testing.T) {
	s, ts := testServer(t, Config{})
	for _, tc := range []struct {
		name, body string
		code       int
		want       string
	}{
		{"bad json", `{`, http.StatusBadRequest, "decoding spec"},
		{"unknown field", `{"experimnts":["tab1"]}`, http.StatusBadRequest, "experimnts"},
		{"unknown experiment", `{"experiments":["fig99"]}`, http.StatusBadRequest, "fig99"},
		{"seeds", `{"experiments":["fig12"],"quick":true,"seeds":1099511627776}`, http.StatusBadRequest, "seeds"},
		{"experiments", `{"experiments":["tab1"` + strings.Repeat(`,"tab1"`, maxExperiments) + `]}`, http.StatusBadRequest, "experiments"},
		{"body", `{"experiments":["` + strings.Repeat("x", maxSpecBytes) + `"]}`, http.StatusRequestEntityTooLarge, "too large"},
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.code || !strings.Contains(string(msg), tc.want) {
			t.Errorf("%s: answered %d %s, want %d naming %q", tc.name, resp.StatusCode, msg, tc.code, tc.want)
		}
	}
	if jobs := s.Jobs(); len(jobs) != 0 {
		t.Errorf("refused specs created %d jobs", len(jobs))
	}
	if _, code := get(t, ts.URL+"/v1/jobs/deadbeef"); code != http.StatusNotFound {
		t.Errorf("unknown job id: status %d, want 404", code)
	}
}

// TestJobRecordsEachFrontEndOnce: a job's entries run as one plan, so
// Figs 5, 12 and 13, whose cells share the quick suite's 12 front ends
// (6 benchmarks × 2 hierarchies), record each front end once.
func TestJobRecordsEachFrontEndOnce(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 2})
	st, code := postJob(t, ts, `{"experiments":["fig5","fig12","fig13"],"quick":true}`, "?wait=1")
	if code != http.StatusOK || st.State != StateDone || st.Done != 3 {
		t.Fatalf("job: code=%d %+v", code, st)
	}
	if got := s.Registry().Snapshot().Counters["simd/runs/recordings"]; got != 12 {
		t.Errorf("job recorded %d front ends, want 12", got)
	}
}

// TestPerClientConcurrencyBound: one client's jobs beyond the bound
// queue behind its running ones; other clients are unaffected.
func TestPerClientConcurrencyBound(t *testing.T) {
	s := New(Config{MaxJobsPerClient: 1, CacheVersion: "test-v1", Workers: 1})
	sem := s.clientSem("busy")
	if cap(sem) != 1 {
		t.Fatalf("semaphore capacity %d, want MaxJobsPerClient=1", cap(sem))
	}
	if s.clientSem("busy") != sem {
		t.Fatal("same client got a second semaphore")
	}
	sem <- struct{}{} // occupy busy's only slot

	j, created, err := s.Submit(JobSpec{Experiments: []string{"tab1"}, Quick: true}, "busy")
	if err != nil || !created {
		t.Fatalf("submit: created=%v err=%v", created, err)
	}
	// Another client proceeds while busy's job is parked.
	other, _, err := s.Submit(JobSpec{Experiments: []string{"fig2"}, Quick: true}, "free")
	if err != nil {
		t.Fatal(err)
	}
	if st := other.Wait(); st.State != StateDone {
		t.Fatalf("free client's job: %+v", st)
	}
	if st := j.status(); st.State != StateQueued {
		t.Fatalf("busy client's job ran past its concurrency bound: %+v", st)
	}
	<-sem // release the slot; the parked job now runs
	if st := j.Wait(); st.State != StateDone {
		t.Fatalf("released job: %+v", st)
	}
}

// TestStreamReportsProgress reads the JSONL stream to completion: done
// counts are non-decreasing, the final line is terminal with done=total.
func TestStreamReportsProgress(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1})
	st, _ := postJob(t, ts, `{"experiments":["tab1","fig1","fig2"],"quick":true}`, "")
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var last Status
	prev := -1
	lines := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		lines++
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("line %d: %v", lines, err)
		}
		if last.Done < prev {
			t.Fatalf("progress went backwards: %d after %d", last.Done, prev)
		}
		prev = last.Done
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines == 0 || last.State != StateDone || last.Done != 3 || last.Total != 3 {
		t.Fatalf("stream ended with %d lines, last %+v", lines, last)
	}
}

// TestResultBytesIdenticalAcrossRestartAndWorkers is the daemon-level
// acceptance test: the same spec submitted to a fresh daemon sharing the
// cache directory — after the first daemon is gone, at a different
// worker count — replays with ZERO re-simulations and serves result
// bytes identical to the original, via a job id the new process has
// never seen.
func TestResultBytesIdenticalAcrossRestartAndWorkers(t *testing.T) {
	dir := t.TempDir()
	open := func(workers int) (*Server, *httptest.Server) {
		c, err := runcache.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		return testServer(t, Config{Workers: workers, Cache: c})
	}

	s1, ts1 := open(1)
	spec := `{"experiments":["fig14"],"quick":true,"seeds":1}`
	st, code := postJob(t, ts1, spec, "?wait=1")
	if code != http.StatusOK || st.State != StateDone {
		t.Fatalf("cold job: code=%d %+v", code, st)
	}
	if st.ComputedRuns == 0 {
		t.Fatal("cold job computed nothing")
	}
	cold, code := get(t, ts1.URL+"/v1/jobs/"+st.ID+"/result")
	if code != http.StatusOK {
		t.Fatalf("cold result status %d", code)
	}
	ts1.Close()
	_ = s1

	// "Restart": a fresh server process sharing only the cache directory.
	s2, ts2 := open(4)
	if _, ok := s2.Job(st.ID); ok {
		t.Fatal("fresh server already knows the job id")
	}
	warm, code := get(t, ts2.URL+"/v1/jobs/"+st.ID+"/result?wait=1")
	if code != http.StatusOK {
		t.Fatalf("replayed result status %d: %s", code, warm)
	}
	if !bytes.Equal(cold, warm) {
		t.Fatal("replayed result bytes differ from the cold run")
	}
	payload, _ := get(t, ts2.URL+"/v1/jobs/"+st.ID)
	var st2 Status
	if err := json.Unmarshal(payload, &st2); err != nil {
		t.Fatal(err)
	}
	if st2.ComputedRuns != 0 {
		t.Errorf("replay re-simulated %d cells, want 0", st2.ComputedRuns)
	}
	if st2.CachedRuns != st.CachedRuns {
		t.Errorf("replay materialized %d cells, cold %d", st2.CachedRuns, st.CachedRuns)
	}
	// The cache hit is visible in the exported metrics.
	snap := s2.Registry().Snapshot()
	if snap.Counters["simd/runcache/hits"] == 0 {
		t.Error("simd/runcache/hits is zero after a full replay")
	}
	if snap.Counters["simd/jobs/replayed"] != 1 {
		t.Errorf("simd/jobs/replayed = %d, want 1", snap.Counters["simd/jobs/replayed"])
	}

	// Resubmitting the spec (rather than fetching by id) also coalesces
	// onto the replayed job: still zero new simulations.
	st3, _ := postJob(t, ts2, spec, "?wait=1")
	if st3.ID != st.ID || st3.ComputedRuns != 0 {
		t.Fatalf("resubmit after restart: %+v", st3)
	}
}

// TestConcurrentJobsComputeEachCellOnce: fig12 and fig13 jobs from two
// clients run at the same time over the same node cells. The daemon
// simulates each cell once between them — simd/runs/computed equals the
// stored entries — and serves the bytes sequential submissions serve.
func TestConcurrentJobsComputeEachCellOnce(t *testing.T) {
	specs := []string{
		`{"experiments":["fig12"],"quick":true}`,
		`{"experiments":["fig13"],"quick":true}`,
	}
	open := func() (*Server, *httptest.Server, *runcache.Cache) {
		c, err := runcache.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		s, ts := testServer(t, Config{Workers: 2, Cache: c})
		return s, ts, c
	}

	s, ts, c := open()
	ids := make([]string, len(specs))
	for i, spec := range specs {
		st, code := postJob(t, ts, spec, fmt.Sprintf("?client=client%d", i))
		if code != http.StatusAccepted {
			t.Fatalf("submit %s: status %d", spec, code)
		}
		ids[i] = st.ID
	}
	concurrent := make([][]byte, len(specs))
	for i, id := range ids {
		var code int
		if concurrent[i], code = get(t, ts.URL+"/v1/jobs/"+id+"/result?wait=1"); code != http.StatusOK {
			t.Fatalf("job %s: status %d: %s", id, code, concurrent[i])
		}
	}
	snap := s.Registry().Snapshot()
	if got, want := snap.Counters["simd/runs/computed"], uint64(c.Len()); got != want {
		t.Errorf("simd/runs/computed = %d for %d stored entries", got, want)
	}

	_, seqTS, _ := open()
	for i, spec := range specs {
		if _, code := postJob(t, seqTS, spec, "?wait=1"); code != http.StatusOK {
			t.Fatalf("sequential submit %s: status %d", spec, code)
		}
		seq, _ := get(t, seqTS.URL+"/v1/jobs/"+ids[i]+"/result")
		if !bytes.Equal(seq, concurrent[i]) {
			t.Errorf("%s: concurrent result bytes differ from a sequential submission", spec)
		}
	}
}

// TestReplayRefusedAcrossVersions: a persisted job id from another code
// version must 404, not serve bytes the current build cannot reproduce.
func TestReplayRefusedAcrossVersions(t *testing.T) {
	dir := t.TempDir()
	open := func(version string) (*Server, *httptest.Server) {
		c, err := runcache.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		return testServer(t, Config{Workers: 1, Cache: c, CacheVersion: version})
	}
	_, ts1 := open("build-A")
	st, _ := postJob(t, ts1, `{"experiments":["tab1"],"quick":true}`, "?wait=1")
	ts1.Close()

	_, ts2 := open("build-B")
	if _, code := get(t, ts2.URL+"/v1/jobs/"+st.ID); code != http.StatusNotFound {
		t.Errorf("build-B served build-A's job id: status %d, want 404", code)
	}
}

// TestEndpointsRenderJSON sanity-checks the informational endpoints.
func TestEndpointsRenderJSON(t *testing.T) {
	dir := t.TempDir()
	c, err := runcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := testServer(t, Config{Cache: c})
	payload, code := get(t, ts.URL+"/healthz")
	if code != http.StatusOK || !strings.Contains(string(payload), `"ok"`) {
		t.Errorf("healthz: %d %s", code, payload)
	}
	payload, _ = get(t, ts.URL+"/v1/experiments")
	if !strings.Contains(string(payload), `"fig17"`) {
		t.Errorf("experiments list missing fig17: %s", payload)
	}
	payload, _ = get(t, ts.URL+"/v1/cache")
	if !strings.Contains(string(payload), `"enabled":true`) {
		t.Errorf("cache stats: %s", payload)
	}
	payload, _ = get(t, ts.URL+"/v1/jobs")
	if !strings.Contains(string(payload), `"jobs"`) {
		t.Errorf("job listing: %s", payload)
	}
	payload, _ = get(t, ts.URL+"/v1/metrics")
	if !strings.Contains(string(payload), "simd/jobs/submitted") {
		t.Errorf("metrics missing job counters: %s", payload)
	}
}

// TestJobListSorted: listings are ordered by id for determinism.
func TestJobListSorted(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 1})
	for i := 0; i < 4; i++ {
		postJob(t, ts, fmt.Sprintf(`{"experiments":["tab1"],"quick":true,"seed":%d}`, i+1), "?wait=1")
	}
	jobs := s.Jobs()
	if len(jobs) != 4 {
		t.Fatalf("%d jobs listed", len(jobs))
	}
	for i := 1; i < len(jobs); i++ {
		if jobs[i-1].ID >= jobs[i].ID {
			t.Fatalf("listing not sorted at %d", i)
		}
	}
}

// TestWaitChangeWakesOnRunning guards the stream's blocking primitive
// directly: waitChange must return on the queued→running change, not
// only at terminal states.
func TestWaitChangeWakesOnRunning(t *testing.T) {
	j := newJob("x", JobSpec{Experiments: []string{"tab1", "fig1"}})
	st := j.status()
	done := make(chan Status, 1)
	go func() { done <- j.waitChange(st) }()
	time.Sleep(10 * time.Millisecond)
	j.setRunning()
	select {
	case got := <-done:
		if got.State != StateRunning || got.Done != 0 {
			t.Fatalf("woke with %+v", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waitChange never woke on the running state")
	}
}
