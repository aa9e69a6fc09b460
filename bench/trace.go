package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own
// code around the layer's public function or HTTP surface. Spans of one
// operation share a trace id — an experiment driver id, a simd job id, or
// a shard unit key — so the client and server sides of a call join up
// even across processes.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Trace  string `json:"trace,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // Unix nanoseconds, comparable across processes on one host
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so traced and untraced runs share one code path.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name, trace string, parent int64) int64 {
	if t == nil {
		return 0
	}
	now := time.Now().UnixNano()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans)) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Trace: trace, Name: name, Start: now})
	return id
}

// end closes span id, setting its trace id when one is given (a simd job
// id is only known once the submit call returns).
func (t *tracer) end(id int64, trace string) {
	if t == nil || id == 0 {
		return
	}
	now := time.Now().UnixNano()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	if trace != "" {
		s.Trace = trace
	}
}

// merge appends spans recorded by another process, renumbering their ids
// past this tracer's so parent links stay within each process.
func (t *tracer) merge(spans []span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	off := int64(len(t.spans))
	for _, s := range spans {
		s.ID += off
		if s.Parent != 0 {
			s.Parent += off
		}
		t.spans = append(t.spans, s)
	}
}

// snapshot returns the closed spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End != 0 {
			out = append(out, s)
		}
	}
	return out
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readSpans reads a JSON-lines span file.
func readSpans(path string) ([]span, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []span
	dec := json.NewDecoder(bytes.NewReader(data))
	for {
		var s span
		if err := dec.Decode(&s); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children's intervals cover (overlapping
// children count once).
func selfTimes(spans []span) map[int64]time.Duration {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered int64
		cur, curEnd := int64(-1), int64(-1)
		for _, k := range kids {
			lo, hi := max(k.Start, s.Start), min(k.End, s.End)
			if hi <= lo {
				continue
			}
			if lo > curEnd {
				if curEnd > cur {
					covered += curEnd - cur
				}
				cur, curEnd = lo, hi
			} else if hi > curEnd {
				curEnd = hi
			}
		}
		if curEnd > cur {
			covered += curEnd - cur
		}
		out[s.ID] = s.dur() - time.Duration(covered)
	}
	return out
}

// selfByName sums self time per span name.
func selfByName(spans []span) map[string]float64 {
	self := selfTimes(spans)
	out := map[string]float64{}
	for _, s := range spans {
		out[s.Name] += self[s.ID].Seconds()
	}
	return out
}

// durByTrace sums the durations of the spans named name per trace id.
func durByTrace(spans []span, name string) map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, s := range spans {
		if s.Name == name {
			out[s.Trace] += s.dur()
		}
	}
	return out
}

// simdHandler times every request the simd API serves. The trace id is
// the job id: from the path for /v1/jobs/{id}/..., from the reply for a
// submit.
func (t *tracer) simdHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		name := "simd.server.other"
		switch {
		case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs":
			name = "simd.server.submit"
		case strings.HasSuffix(r.URL.Path, "/result"):
			name = "simd.server.result"
		}
		id := t.begin(name, "", 0)
		cw := &captureWriter{ResponseWriter: w}
		h.ServeHTTP(cw, r)
		trace := ""
		switch name {
		case "simd.server.result":
			trace = strings.TrimSuffix(strings.TrimPrefix(r.URL.Path, "/v1/jobs/"), "/result")
		case "simd.server.submit":
			var st struct {
				ID string `json:"id"`
			}
			_ = json.Unmarshal(cw.head, &st) // a reply without an id leaves the span untraced
			trace = st.ID
		}
		t.end(id, trace)
	})
}

// captureWriter keeps the head of a response body for trace-id lookup.
type captureWriter struct {
	http.ResponseWriter
	head []byte
}

func (c *captureWriter) Write(p []byte) (int, error) {
	if n := 4096 - len(c.head); n > 0 {
		c.head = append(c.head, p[:min(n, len(p))]...)
	}
	return c.ResponseWriter.Write(p)
}

// unitKey extracts a shard unit's key from its JSON body.
func unitKey(body []byte) string {
	var u struct {
		Key string `json:"key"`
	}
	_ = json.Unmarshal(body, &u) // a malformed unit is the worker's to reject
	return u.Key
}

// shardUnitHandler times each unit a shard worker executes, traced by
// the unit key.
func (t *tracer) shardUnitHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		id := t.begin("shard.unit", unitKey(body), 0)
		h.ServeHTTP(w, r)
		t.end(id, "")
	})
}

// timedTransport times each coordinator-side dispatch from request to
// the close of the reply body, traced by the unit key.
type timedTransport struct {
	base http.RoundTripper
	t    *tracer
}

func (tt timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	key := ""
	if req.GetBody != nil {
		if rc, err := req.GetBody(); err == nil {
			body, _ := io.ReadAll(rc) // a short read only loses the trace id
			rc.Close()
			key = unitKey(body)
		}
	}
	id := tt.t.begin("shard.rtt", key, 0)
	resp, err := tt.base.RoundTrip(req)
	if err != nil {
		tt.t.end(id, "")
		return nil, err
	}
	resp.Body = &spanCloser{ReadCloser: resp.Body, end: func() { tt.t.end(id, "") }}
	return resp, nil
}

// spanCloser ends a span when the body it wraps is closed.
type spanCloser struct {
	io.ReadCloser
	once sync.Once
	end  func()
}

func (s *spanCloser) Close() error {
	s.once.Do(s.end)
	return s.ReadCloser.Close()
}
