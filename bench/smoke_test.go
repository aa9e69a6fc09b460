package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark executable
// when the traced fleet run re-executes itself as a shard worker.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "shard-worker" {
		os.Exit(shardWorker(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// lastLine runs the harness and decodes its final stdout line.
func lastLine(t *testing.T, args ...string) resultLine {
	t.Helper()
	var out, errb bytes.Buffer
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("bench %v exited %d\nstdout:\n%s\nstderr:\n%s", args, code, out.String(), errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var line resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
		t.Fatalf("result line %+v\nstderr:\n%s", line, errb.String())
	}
	return line
}

// TestSmoke drives the harness end to end at smoke size: three workloads
// untraced, then the fleet traced — which also runs its untraced round —
// including the re-executed shard workers and the toolchain's pprof.
func TestSmoke(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("needs the go toolchain to build the CLIs")
	}
	work := t.TempDir()
	out := filepath.Join(work, "r.json")
	untraced := []string{"figs-full", "figs-replay", "simd-sweep"}
	line := lastLine(t, "-smoke", "-workload", strings.Join(untraced, ","), "-root", "..", "-workdir", work, "-out", out)
	for _, w := range untraced {
		for _, d := range endToEnd {
			if v, ok := line.Metrics[w+"."+d.Name]; !ok || v.Value <= 0 || v.Unit != d.Unit {
				t.Errorf("%s.%s = %+v, want a positive value in %s", w, d.Name, v, d.Unit)
			}
		}
	}
	if _, err := readResult(out); err != nil {
		t.Error(err)
	}

	line = lastLine(t, "-smoke", "-trace", "1", "-workload", "fleet-sweep", "-root", "..", "-workdir", work)
	for _, d := range perLayer {
		if _, ok := line.Metrics[d.Name]; !ok {
			t.Errorf("traced run lacks %s", d.Name)
		}
	}
	for _, name := range []string{"shard.rtt_ms", "shard.unit_ms", "node.cell_ms"} {
		if line.Metrics[name].Value <= 0 {
			t.Errorf("%s = %g, want > 0", name, line.Metrics[name].Value)
		}
	}
	spans, err := readSpans(filepath.Join(work, "spans-fleet-sweep.jsonl"))
	if err != nil || len(spans) == 0 {
		t.Errorf("spans: %d, %v", len(spans), err)
	}
}
