package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/loader"
)

// TestListSuite pins the -list output: one line per analyzer, sorted
// (All() is alphabetical), so docs, CI greps, and the README table can
// rely on it byte for byte.
func TestListSuite(t *testing.T) {
	var buf bytes.Buffer
	listSuite(&buf)
	want := "detrand      forbid math/rand and time-seeded RNG construction outside internal/xrand\n" +
		"faultsite    require every declared fault-injection site to be exercised by an in-package test\n" +
		"maporder     flag map iteration in output-producing packages\n" +
		"poolsafe     flag lifetime violations of pooled requests and intrusive chains\n" +
		"seedflow     require positional RNG derivation (xrand.NewAt/SplitMix) for per-item generators\n" +
		"sharedwrite  flag unsynchronized writes to captured state in goroutines and parallel bodies\n" +
		"unitflow     flag arithmetic that mixes picosecond and cycle quantities outside *PS helpers\n"
	if got := buf.String(); got != want {
		t.Errorf("listSuite output changed:\n got: %q\nwant: %q", got, want)
	}
	if len(lint.All()) != 7 {
		t.Fatalf("suite has %d analyzers, want 7", len(lint.All()))
	}
}

func finding(analyzer, file, msg string, line int) loader.Finding {
	return loader.Finding{Analyzer: analyzer, File: file, Line: line, Message: msg}
}

// TestSplitBaseline checks grandfathering semantics: matching by
// (analyzer, file, message) regardless of line, everything fresh when no
// baseline is loaded.
func TestSplitBaseline(t *testing.T) {
	old := finding("unitflow", "a.go", "legacy mix", 10)
	drifted := finding("unitflow", "a.go", "legacy mix", 99) // same finding, moved
	fresh := finding("poolsafe", "b.go", "use of r after Release", 5)

	baseline := map[string]bool{baselineKey(old): true}
	gotFresh, gotGrand := splitBaseline([]loader.Finding{drifted, fresh}, baseline)
	if len(gotGrand) != 1 || gotGrand[0].Message != "legacy mix" {
		t.Errorf("grandfathered = %v, want the drifted legacy finding", gotGrand)
	}
	if len(gotFresh) != 1 || gotFresh[0].Analyzer != "poolsafe" {
		t.Errorf("fresh = %v, want the poolsafe finding", gotFresh)
	}

	all, none := splitBaseline([]loader.Finding{drifted, fresh}, nil)
	if len(all) != 2 || none != nil {
		t.Errorf("nil baseline must pass everything through fresh, got %v / %v", all, none)
	}
}

// TestLoadBaseline round-trips the -json output format through a file.
func TestLoadBaseline(t *testing.T) {
	path := filepath.Join(t.TempDir(), "baseline.json")
	data := `[{"analyzer":"unitflow","file":"a.go","line":10,"column":3,"message":"legacy mix"}]`
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := loadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if !m[baselineKey(finding("unitflow", "a.go", "legacy mix", 123))] {
		t.Error("baseline entry not matched independently of line number")
	}
	if m[baselineKey(finding("unitflow", "a.go", "other message", 10))] {
		t.Error("different message must not match")
	}
	if _, err := loadBaseline(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing baseline file must error")
	}
}
