package blocktab

import (
	"testing"

	"repro/internal/xrand"
)

// TestBlockTableMatchesMap drives a block table against a Go map of
// counts: every count must agree after each operation. The first phase
// keeps the 32-slot table at most half full with key sets half homed in
// its last two slots, so probe runs wrap past the end and backward-shift
// deletion pulls entries across it; the second lets occupancy climb
// through several doublings.
func TestBlockTableMatchesMap(t *testing.T) {
	rng := xrand.New(3)
	tab := New(16)
	m := map[uint64]uint32{}
	op := func(i int, block uint64) {
		if m[block] == 0 || rng.Bool(0.5) {
			tab.Inc(block)
			m[block]++
		} else {
			tab.Dec(block)
			if m[block]--; m[block] == 0 {
				delete(m, block)
			}
		}
		if got, want := tab.Count(block), m[block]; got != want {
			t.Fatalf("op %d: count(%d) = %d, want %d", i, block, got, want)
		}
		if tab.Len() != len(m) {
			t.Fatalf("op %d: table holds %d blocks, map %d", i, tab.Len(), len(m))
		}
	}
	drain := func() {
		for k, n := range m {
			if got := tab.Count(k); got != n {
				t.Fatalf("block %d: count %d, want %d", k, got, n)
			}
			for ; n > 0; n-- {
				tab.Dec(k)
			}
			delete(m, k)
		}
		if tab.Len() != 0 {
			t.Fatalf("%d blocks left after removing all", tab.Len())
		}
	}

	for round := uint64(0); round < 100; round++ {
		var keys []uint64
		for k := round << 20; len(keys) < 16; k++ {
			if (tab.home(k+1) >= 30) == (len(keys) < 8) {
				keys = append(keys, k)
			}
		}
		for i := 0; i < 2000; i++ {
			op(i, keys[rng.Intn(len(keys))])
		}
		drain()
	}
	if len(tab.keys) != 32 {
		t.Fatalf("the half-full phase grew the table to %d slots", len(tab.keys))
	}

	for i := 0; i < 200000; i++ {
		block := rng.Uint64n(3000)
		if rng.Bool(0.01) {
			block = rng.Uint64() >> 6 // cover the whole hash spread
		}
		op(i, block)
	}
	if len(tab.keys) <= 1024 {
		t.Fatalf("table only grew to %d slots; growth untested", len(tab.keys))
	}
	drain()
	tab.Inc(7)
	tab.Reset()
	if tab.Len() != 0 || tab.Count(7) != 0 {
		t.Error("reset left entries behind")
	}
}
