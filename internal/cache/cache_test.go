package cache

import (
	"math/bits"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func small() *Cache {
	return New(Config{SizeBytes: 8192, Ways: 4, BlockBytes: 64, LatencyPS: 1000})
}

func TestNewValidation(t *testing.T) {
	bad := []Config{
		{SizeBytes: 0, Ways: 4, BlockBytes: 64},
		{SizeBytes: 8192, Ways: 0, BlockBytes: 64},
		{SizeBytes: 8192, Ways: 3, BlockBytes: 64},     // 128 blocks / 3 ways
		{SizeBytes: 32, Ways: 1, BlockBytes: 64},       // zero sets
		{SizeBytes: 6144, Ways: 4, BlockBytes: 48},     // block size not a power of two
		{SizeBytes: 64 * 17, Ways: 17, BlockBytes: 64}, // more ways than a way order holds
	}
	for i, cfg := range bad {
		err := cfg.Validate()
		if err == nil {
			t.Errorf("bad config %d validates", i)
			continue
		}
		func() {
			defer func() {
				if p := recover(); p != err.Error() {
					t.Errorf("bad config %d: New panicked with %v, want %q", i, p, err)
				}
			}()
			New(cfg)
		}()
	}
	if err := (Config{SizeBytes: 64 * 16, Ways: 16, BlockBytes: 64}).Validate(); err != nil {
		t.Errorf("16 ways rejected: %v", err)
	}
}

func TestMissThenFillThenHit(t *testing.T) {
	c := small()
	if c.Access(0x1000, false) {
		t.Fatal("cold access hit")
	}
	c.Fill(0x1000, false, false)
	if !c.Access(0x1000, false) {
		t.Fatal("filled block missed")
	}
	if c.Hits != 1 || c.Misses != 1 {
		t.Errorf("hits=%d misses=%d", c.Hits, c.Misses)
	}
}

func TestSameBlockDifferentOffsets(t *testing.T) {
	c := small()
	c.Fill(0x1000, false, false)
	if !c.Access(0x1030, false) {
		t.Error("offset within same block missed")
	}
}

func TestWriteAllocateDirtyEviction(t *testing.T) {
	c := small()
	c.Fill(0x40, true, false) // dirty fill
	if c.DirtyCount() != 1 {
		t.Fatalf("DirtyCount = %d", c.DirtyCount())
	}
	// Fill several times the cache's capacity so the dirty block must be
	// evicted regardless of how the set-index hash spreads addresses.
	var evictedDirty bool
	for i := 1; i <= 512; i++ {
		if _, d := c.Fill(uint64(0x40+i*64), false, false); d {
			evictedDirty = true
		}
	}
	if !evictedDirty {
		t.Error("dirty block never evicted with writeback")
	}
	if c.Writebacks == 0 {
		t.Error("no writebacks counted")
	}
}

func TestLRUVictimSelection(t *testing.T) {
	// Direct construction: fill all 4 ways of one set, touch three of
	// them, then force an eviction — the untouched one must go.
	c := New(Config{SizeBytes: 64 * 4, Ways: 4, BlockBytes: 64}) // 1 set
	for i := 0; i < 4; i++ {
		c.Fill(uint64(i*64), false, false)
	}
	// Touch blocks 1..3, leaving block 0 LRU.
	for i := 1; i < 4; i++ {
		if !c.Access(uint64(i*64), false) {
			t.Fatal("resident block missed")
		}
	}
	c.Fill(4*64, false, false)
	if c.Lookup(0) {
		t.Error("LRU block 0 survived eviction")
	}
	for i := 1; i < 5; i++ {
		if !c.Lookup(uint64(i * 64)) {
			t.Errorf("block %d missing after eviction", i)
		}
	}
}

func TestCleanDirtyLRUFirst(t *testing.T) {
	c := New(Config{SizeBytes: 64 * 8, Ways: 8, BlockBytes: 64}) // 1 set
	for i := 0; i < 8; i++ {
		c.Fill(uint64(i*64), true, false)
	}
	// Touch 0..3 so 4..7 stay older... order of fills already sets
	// recency; re-touch the first half to make them MRU.
	for i := 0; i < 4; i++ {
		c.Access(uint64(i*64), true)
	}
	cleaned := c.CleanDirtyMatching(4, nil)
	if len(cleaned) != 4 {
		t.Fatalf("cleaned %d, want 4", len(cleaned))
	}
	want := map[uint64]bool{4 * 64: true, 5 * 64: true, 6 * 64: true, 7 * 64: true}
	for _, a := range cleaned {
		if !want[a] {
			t.Errorf("cleaned non-LRU block %#x", a)
		}
	}
	if c.DirtyCount() != 4 {
		t.Errorf("DirtyCount after clean = %d", c.DirtyCount())
	}
	if c.CleanDirtyMatching(0, nil) != nil {
		t.Error("CleanDirtyMatching(0, nil) returned blocks")
	}
}

func TestCleanedBlocksStayResident(t *testing.T) {
	c := small()
	c.Fill(0x100, true, false)
	c.CleanDirtyMatching(10, nil)
	if !c.Lookup(0x100) {
		t.Error("cleaning evicted the block (must only mark clean)")
	}
}

func TestPrefetchAccounting(t *testing.T) {
	c := small()
	c.Fill(0x200, false, true)
	if c.PrefetchFills != 1 {
		t.Errorf("PrefetchFills = %d", c.PrefetchFills)
	}
	c.Access(0x200, false)
	if c.PrefetchUseful != 1 {
		t.Errorf("PrefetchUseful = %d", c.PrefetchUseful)
	}
	// Second access must not double-count usefulness.
	c.Access(0x200, false)
	if c.PrefetchUseful != 1 {
		t.Errorf("PrefetchUseful double-counted: %d", c.PrefetchUseful)
	}
}

// Property: after Fill(addr), Lookup(addr) is always true.
func TestFillThenLookupProperty(t *testing.T) {
	c := small()
	f := func(addr uint64) bool {
		c.Fill(addr, false, false)
		return c.Lookup(addr)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: the number of resident dirty lines never exceeds capacity.
func TestDirtyBounded(t *testing.T) {
	c := small()
	capBlocks := 8192 / 64
	f := func(addrs []uint32) bool {
		for _, a := range addrs {
			c.Fill(uint64(a), true, false)
		}
		return c.DirtyCount() <= capBlocks
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestStridePrefetcherDetectsStride(t *testing.T) {
	p := NewStridePrefetcher(2)
	var got []uint64
	for i := uint64(0); i < 6; i++ {
		got = p.AppendObserve(nil, 1, 100+i*4)
	}
	if len(got) != 2 || got[0] != 124 || got[1] != 128 {
		t.Errorf("stride predictions = %v, want [124 128]", got)
	}
}

func TestStridePrefetcherIgnoresRandom(t *testing.T) {
	p := NewStridePrefetcher(2)
	seq := []uint64{5, 100, 3, 77, 12, 9000}
	for _, b := range seq {
		if out := p.AppendObserve(nil, 2, b); out != nil {
			t.Errorf("random stream produced prefetch %v", out)
		}
	}
}

func TestStridePrefetcherPerStream(t *testing.T) {
	p := NewStridePrefetcher(1)
	// Interleaved streams with different strides must both be detected.
	var g1, g2 []uint64
	for i := uint64(0); i < 6; i++ {
		g1 = p.AppendObserve(nil, 1, i*2)
		g2 = p.AppendObserve(nil, 2, 1000+i*8)
	}
	if len(g1) != 1 || g1[0] != 12 {
		t.Errorf("stream1 prediction %v", g1)
	}
	if len(g2) != 1 || g2[0] != 1048 {
		t.Errorf("stream2 prediction %v", g2)
	}
}

func TestStridePrefetcherPanicsOnBadDegree(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("degree 0 accepted")
		}
	}()
	NewStridePrefetcher(0)
}

func TestNextLineAutoTurnOff(t *testing.T) {
	p := NewNextLinePrefetcher(16, 0.5)
	if !p.Enabled() {
		t.Fatal("prefetcher starts disabled")
	}
	// Issue a window's worth with zero usefulness: must turn off.
	for i := uint64(0); i < 16; i++ {
		p.AppendObserve(nil, i*100)
	}
	if p.Enabled() {
		t.Error("useless next-line prefetcher did not turn off")
	}
	if p.AppendObserve(nil, 5) != nil {
		t.Error("disabled prefetcher still predicting")
	}
}

func TestNextLineStaysOnWhenUseful(t *testing.T) {
	p := NewNextLinePrefetcher(16, 0.5)
	for i := uint64(0); i < 64; i++ {
		p.AppendObserve(nil, i)
		p.CreditUseful()
	}
	if !p.Enabled() {
		t.Error("useful next-line prefetcher turned off")
	}
}

func TestNextLinePanicsOnZeroWindow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero window accepted")
		}
	}()
	NewNextLinePrefetcher(0, 0.5)
}

// TestFastmodMatchesModulo pins the Lemire set-index reduction to %: for
// the LLC set counts both hierarchies use (28MB and 22MB, 16-way, 64B
// blocks, at every scale shift the node model accepts), the index of
// edge-case and random hashes must equal the plain modulo.
func TestFastmodMatchesModulo(t *testing.T) {
	rng := xrand.New(7)
	for _, total := range []int{28 << 20, 22 << 20} {
		for shift := uint(0); shift <= 10; shift++ {
			c := New(Config{SizeBytes: total >> shift, Ways: 16, BlockBytes: 64})
			if c.setMask >= 0 {
				continue // power-of-two set count: the mask path
			}
			d := uint64(c.nsets)
			hashes := []uint64{0, 1, d - 1, d, d + 1, 1<<32 - 1, 1<<32 - d, 1 << 31}
			for i := 0; i < 20000; i++ {
				hashes = append(hashes, rng.Uint64()>>32)
			}
			for _, h := range hashes {
				if got, want := fastmod32(h, c.fastM, d), h%d; got != want {
					t.Fatalf("nsets %d: fastmod32(%d) = %d, want %d", d, h, got, want)
				}
			}
			// End to end through index, including hashes past 2^32 that
			// take the % fallback.
			for i := 0; i < 20000; i++ {
				block := rng.Uint64() >> (20 + rng.Intn(24))
				h := block ^ (block >> uint(bits.Len(uint(c.nsets))))
				if got, want := c.index(block), int(h%d); got != want {
					t.Fatalf("nsets %d: index(%d) = %d, want %d", d, block, got, want)
				}
			}
		}
	}
}

// TestCopyFromIsExact drives a cache through fills, accesses and
// cleaning, copies it, then applies one identical operation sequence to
// both: every return value and the final state must agree.
func TestCopyFromIsExact(t *testing.T) {
	cfg := Config{SizeBytes: 64 * 16 * 7, Ways: 16, BlockBytes: 64} // 7 sets: fastmod path
	src := New(cfg)
	ops := func(c *Cache, rng *xrand.Rand, n int) []uint64 {
		var out []uint64
		for i := 0; i < n; i++ {
			addr := rng.Uint64n(1<<16) &^ 63
			switch rng.Intn(4) {
			case 0, 1:
				v, d := c.Fill(addr, rng.Bool(0.3), rng.Bool(0.2))
				if d {
					out = append(out, v)
				}
			case 2:
				if c.Access(addr, rng.Bool(0.3)) {
					out = append(out, 1)
				}
			case 3:
				out = append(out, c.CleanDirtyMatching(rng.Intn(4), nil)...)
			}
		}
		return out
	}
	ops(src, xrand.New(1), 3000)
	dst := New(cfg)
	dst.Fill(0x40, true, false) // stale state CopyFrom must overwrite
	dst.CopyFrom(src)
	a, b := ops(src, xrand.New(2), 3000), ops(dst, xrand.New(2), 3000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("copy diverged from its source under identical operations")
	}
	// Compare every field except the cleaning scratch buffer.
	strip := func(c *Cache) Cache {
		x := *c
		x.cleanOut = nil
		return x
	}
	if !reflect.DeepEqual(strip(src), strip(dst)) {
		t.Error("copy state differs from source")
	}
	if vs := dst.CheckConservation("copy"); len(vs) != 0 {
		t.Errorf("copy violates conservation: %v", vs)
	}
}

func TestCopyFromRejectsOtherConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("CopyFrom across configs accepted")
		}
	}()
	small().CopyFrom(New(Config{SizeBytes: 16384, Ways: 4, BlockBytes: 64}))
}

// TestStridePrefetcherGrowsStreams covers the slice-indexed stream table:
// a high stream id observed first, then a low one, each tracked apart.
func TestStridePrefetcherGrowsStreams(t *testing.T) {
	p := NewStridePrefetcher(1)
	var g9, g0 []uint64
	for i := uint64(0); i < 4; i++ {
		g9 = p.AppendObserve(nil, 9, 50+i*3)
		g0 = p.AppendObserve(nil, 0, 7+i)
	}
	if len(g9) != 1 || g9[0] != 62 || len(g0) != 1 || g0[0] != 11 {
		t.Errorf("predictions: stream 9 %v, stream 0 %v", g9, g0)
	}
}

// TestCheckConservationCatchesBrokenOrders: each way-order and
// dirty-list invariant CheckConservation states is reported, not
// panicked on, once it is broken.
func TestCheckConservationCatchesBrokenOrders(t *testing.T) {
	cfg := Config{SizeBytes: 64 * 8 * 2, Ways: 8, BlockBytes: 64} // 2 sets
	for name, c := range map[string]struct {
		want    string
		corrupt func(c *Cache)
	}{
		"way out of range":            {"way-orders-valid", func(c *Cache) { c.order[1] |= 0xF }},
		"way twice":                   {"way-orders-valid", func(c *Cache) { c.order[0] = c.order[0]&^0xF | c.order[0]>>4&0xF }},
		"valid way behind empty ones": {"way-orders-valid", func(c *Cache) { c.order[0] = c.order[0]>>4 | c.order[0]&0xF<<28 }},
		"dirty count":                 {"dirty-count==dirty-scan", func(c *Cache) { c.ndirty++ }},
		"clean line listed":           {"dirty-list-valid", func(c *Cache) { c.flags[c.dirtyHead] &^= flagDirty; c.ndirty-- }},
		"back link":                   {"dirty-list-valid", func(c *Cache) { c.prev[c.dirtyTail] = -1 }},
		"wild link":                   {"dirty-list-valid", func(c *Cache) { c.next[c.dirtyTail] = 1 << 20 }},
	} {
		cache := New(cfg)
		for i := 0; i < 6; i++ {
			cache.Fill(uint64(i*64), true, false)
		}
		if vs := cache.CheckConservation("ok"); len(vs) != 0 {
			t.Fatalf("%s: intact cache reports %v", name, vs)
		}
		c.corrupt(cache)
		found := false
		for _, v := range cache.CheckConservation(name) {
			found = found || v.Name == c.want
		}
		if !found {
			t.Errorf("%s: no %s violation in %v", name, c.want, cache.CheckConservation(name))
		}
	}
}
