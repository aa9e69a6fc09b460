package main

import (
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// TestSelfTimes subtracts the union of a span's children, clipped to the
// span, from its duration.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 80, End: 120}, // runs past the parent
		{ID: 5, Parent: 3, Name: "d", Start: 25, End: 35},
		{ID: 6, Name: "other", Start: 0, End: 7},
	}
	want := map[int64]time.Duration{1: 100 - 40 - 20, 2: 20, 3: 30 - 10, 4: 40, 5: 10, 6: 7}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	byName := selfByName(spans)
	if byName["root"] != 40e-9 || byName["b"] != 20e-9 {
		t.Errorf("selfByName = %v", byName)
	}
}

func TestSpansRoundTrip(t *testing.T) {
	tr := &tracer{}
	root := tr.begin("root", "seed-1", 0)
	kid := tr.begin("kid", "", root)
	tr.end(kid, "job-7")
	open := tr.begin("open", "", 0) // never ended: not written
	_ = open
	tr.end(root, "")
	spans := tr.snapshot()
	if len(spans) != 2 || spans[1].Trace != "job-7" || spans[1].Parent != root {
		t.Fatalf("snapshot = %+v", spans)
	}
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := writeSpans(path, spans); err != nil {
		t.Fatal(err)
	}
	back, err := readSpans(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, spans) {
		t.Errorf("read back %+v, want %+v", back, spans)
	}

	// Merged spans keep their parent links, renumbered past ours.
	other := &tracer{}
	other.merge(back)
	other.merge(back)
	got := other.snapshot()
	if got[3].ID != 4 || got[3].Parent != 3 {
		t.Errorf("second merge renumbered to %+v", got[3])
	}

	var none *tracer
	if id := none.begin("x", "", 0); id != 0 {
		t.Errorf("nil tracer begin = %d", id)
	}
	none.end(0, "")
}
