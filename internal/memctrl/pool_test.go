package memctrl

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dramspec"
	"repro/internal/xrand"
)

// TestWBCacheDrainDeterministic pins the drain contract the write path
// depends on: set-major, oldest-parked-first within a set, and identical
// output for identical insertion histories even though drain reuses one
// internal buffer across calls.
func TestWBCacheDrainDeterministic(t *testing.T) {
	history := func() []uint64 {
		rng := xrand.New(7)
		blocks := make([]uint64, 0, 300)
		for i := 0; i < 300; i++ {
			blocks = append(blocks, rng.Uint64n(1<<20))
		}
		return blocks
	}

	run := func() [][]uint64 {
		w := newWBCache(128, 8)
		var drains [][]uint64
		for i, b := range history() {
			w.insert(b)
			if (i+1)%100 == 0 {
				// Copy: the returned slice aliases the drain buffer.
				drains = append(drains, append([]uint64(nil), w.drain()...))
			}
		}
		return drains
	}

	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("drain count differs: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatalf("drain %d length differs: %d vs %d", i, len(a[i]), len(b[i]))
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("drain %d diverges at %d: %d vs %d", i, j, a[i][j], b[i][j])
			}
		}
	}

	// The documented order: ascending set index, insertion order within a
	// set. Replay the last history segment against the set index function.
	w := newWBCache(128, 8)
	var parked []uint64
	for _, blk := range history()[:100] {
		if w.insert(blk) == wbParked {
			parked = append(parked, blk)
		}
	}
	got := w.drain()
	if len(got) != len(parked) {
		t.Fatalf("drained %d blocks, parked %d", len(got), len(parked))
	}
	for i := 1; i < len(got); i++ {
		if w.setIndex(got[i-1]) > w.setIndex(got[i]) {
			t.Fatalf("drain not set-major at %d: set %d after set %d",
				i, w.setIndex(got[i]), w.setIndex(got[i-1]))
		}
	}
	seen := make(map[uint64]bool, len(got))
	for _, blk := range got {
		if seen[blk] {
			t.Fatalf("block %d drained twice", blk)
		}
		seen[blk] = true
	}
	if w.len() != 0 {
		t.Fatalf("%d blocks left after drain", w.len())
	}
}

// poolTraffic drives a seeded mixed read/write stream through a channel.
// Read handles are retained in flight and released after WaitFor, which
// exercises every freelist transition: recycle-at-completion (released
// while pending), recycle-at-release (completed first), and the posted
// write path's immediate recycle. While a handle is held and unreleased
// it must stay untouched: its generation, address, and (once set)
// completion time are asserted stable, so any premature recycle of a
// reachable request fails the test.
func poolTraffic(t *testing.T, c *Channel, seed uint64) {
	t.Helper()
	type held struct {
		req  *Request
		gen  uint32
		addr uint64
		done int64
	}
	check := func(h *held, when string) {
		if h.req.gen != h.gen {
			t.Fatalf("%s: request recycled while reachable (gen %d -> %d)", when, h.gen, h.req.gen)
		}
		if h.req.Addr != h.addr {
			t.Fatalf("%s: held request's Addr changed %#x -> %#x", when, h.addr, h.req.Addr)
		}
		if h.done != 0 && h.req.Done != h.done {
			t.Fatalf("%s: held request's Done changed %d -> %d", when, h.done, h.req.Done)
		}
		h.done = h.req.Done
	}

	rng := xrand.New(seed)
	at := c.Now()
	var pending []*held
	for i := 0; i < 6000; i++ {
		addr := rng.Uint64n(1<<28) &^ 63
		if rng.Bool(0.2) {
			c.SubmitWrite(addr, at)
		} else {
			req := c.SubmitRead(addr, at)
			pending = append(pending, &held{req: req, gen: req.gen, addr: addr, done: req.Done})
		}
		at += int64(rng.Intn(40)) * dramspec.Nanosecond
		if len(pending) > 48 {
			idx := rng.Intn(len(pending))
			h := pending[idx]
			c.WaitFor(h.req)
			check(h, "after WaitFor")
			c.Release(h.req)
			pending = append(pending[:idx], pending[idx+1:]...)
			// Releasing one handle must not disturb the ones still held.
			for _, other := range pending {
				check(other, "after releasing a sibling")
			}
		}
	}
	for _, h := range pending {
		c.WaitFor(h.req)
		check(h, "final drain")
		c.Release(h.req)
	}
	c.Drain()
}

// TestRequestPoolStress checks the freelist under randomized traffic for
// every replication mode: no request is recycled while a caller can still
// reach it (poolTraffic's held-handle checks), the freelist engages, and
// each pooled channel lands on its "table4 pool" line of
// testdata/schedule.golden. Those lines were recorded with pooling on and
// still held with recycling disabled for every channel when the unpooled
// path was retired, so they pin that pooling is purely an allocation
// optimization, never a behavior change.
func TestRequestPoolStress(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "schedule.golden"))
	if err != nil {
		t.Fatal(err)
	}
	for _, repl := range []Replication{
		ReplicationNone, ReplicationFMR, ReplicationHeteroDMR, ReplicationHeteroDMRFMR,
	} {
		t.Run(repl.String(), func(t *testing.T) {
			for seed := uint64(1); seed <= 3; seed++ {
				cfg := trafficConfig(repl)
				cfg.Seed = seed
				c := MustNewChannel(cfg)
				poolTraffic(t, c, seed)
				if len(c.freeReqs) == 0 {
					t.Errorf("seed %d: freelist empty after a release-everything run: pooling never engaged", seed)
				}
				line := fmt.Sprintf("table4 pool %s %d %s", strings.ReplaceAll(repl.String(), " ", "-"), seed, scheduleDigest(c))
				if !strings.Contains(string(golden), line+"\n") {
					t.Errorf("seed %d: pooled schedule %q is not in testdata/schedule.golden", seed, line)
				}
			}
		})
	}
}
