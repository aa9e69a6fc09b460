// Package cache implements the set-associative write-back caches of the
// simulated node (Table IV of the paper): split L1, per-core L2, shared
// L3, LRU replacement, stride and next-line prefetchers with auto
// turn-off, and the LLC dirty-block cleaning hook Hetero-DMR's enlarged
// write batches rely on (§III-E: clean the least-recently-used dirty
// blocks first, as they are unlikely to be re-written before eviction).
package cache

import (
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/obs"
)

// Line metadata is stored struct-of-arrays: the tag probe — the loop every
// access runs — walks a dense []uint64 window (one or two cache lines for
// an 8/16-way set) instead of striding through per-line structs, and the
// LRU victim scan walks an equally dense lastUse window. Dirty/prefetched
// bits live in a byte array touched only for the single way an operation
// settles on. A way's validity is encoded in its tag: invalidTag is
// unreachable as a block address (block = addr/BlockBytes with
// BlockBytes >= 2, so blocks fit in 63 bits), which lets the probe loop
// compare tags alone with no validity test.
const invalidTag = uint64(1) << 63

// fastmodLimit bounds the set-index hashes the exact 32-bit Lemire
// reduction covers; larger hashes (addresses beyond 256GB) fall back to %.
const fastmodLimit = uint64(1) << 32

const (
	flagDirty uint8 = 1 << iota
	flagPrefetched
)

// Config sizes a cache level.
type Config struct {
	SizeBytes  int
	Ways       int
	BlockBytes int
	LatencyPS  int64 // access latency charged on hits at this level
}

// Cache is one level of set-associative write-back cache.
// It is not safe for concurrent use.
type Cache struct {
	cfg        Config
	nsets      int
	ways       int
	setMask    int    // nsets-1 when nsets is a power of two, else -1
	fastM      uint64 // Lemire reciprocal of nsets when it is not a power of two
	hashShift  uint   // bits.Len(nsets): how far the index hash folds the upper bits
	blockShift uint   // log2(BlockBytes)
	tick       uint64

	// Flat per-line state, indexed by position p = set*ways + way.
	tags    []uint64 // block address, or invalidTag
	lastUse []uint64 // LRU timestamp
	flags   []uint8  // flagDirty | flagPrefetched

	// Dirty-line index: dirtyList holds the position of every dirty
	// resident line, dirtyPos maps a position back to its dirtyList slot
	// (-1 when clean). DirtyCount and the proactive cleaning sweep read
	// the list instead of scanning every line; order within the list is
	// irrelevant because cleaning selects and sorts by the strictly
	// unique lastUse ticks.
	dirtyList []int32
	dirtyPos  []int32

	// Stats.
	Hits, Misses   uint64
	Writebacks     uint64
	PrefetchFills  uint64
	PrefetchUseful uint64
	Cleans         uint64
	Fills          uint64 // lines allocated (demand + prefetch)
	Evictions      uint64 // valid lines displaced by Fill (dirty or clean)
	Invalidations  uint64 // valid lines dropped by Invalidate

	// Scratch reused across CleanDirtyMatching calls; the slice that call
	// returns aliases cleanOut and is valid until the next call.
	cleanCands cleanCands
	cleanOut   []uint64
}

// pool is one typed backing store inside an Arena. alloc hands out a
// zeroed window of n elements; when the current backing is exhausted a
// larger one is allocated, and windows carved earlier keep pointing at
// the old backing, which dies with the hierarchy using it.
type pool[T any] struct {
	buf []T
	off int
}

func (p *pool[T]) alloc(n int) []T {
	if p.off+n > len(p.buf) {
		size := 2 * len(p.buf)
		if size < n {
			size = n
		}
		p.buf = make([]T, size)
		p.off = 0
	}
	s := p.buf[p.off : p.off+n : p.off+n]
	p.off += n
	return s
}

func (p *pool[T]) reset() {
	var zero T
	used := p.buf[:p.off]
	for i := range used {
		used[i] = zero
	}
	p.off = 0
}

// Arena is a reusable backing store for cache state arrays. A caller that
// builds many short-lived hierarchies back to back (the experiment
// engine's prewarm cache) keeps one Arena per worker: NewIn carves each
// cache's arrays out of it, and Reset zeroes the used portions so the
// next hierarchy starts from the exact state a fresh allocation would
// have. The zero value is ready to use. An Arena must not be Reset while
// any cache built from it is still in use.
type Arena struct {
	u64 pool[uint64]
	u8  pool[uint8]
	i32 pool[int32]
}

// Reset zeroes the windows handed out since the last Reset, readying the
// Arena for the next hierarchy.
func (a *Arena) Reset() {
	a.u64.reset()
	a.u8.reset()
	a.i32.reset()
}

// New builds a cache level. It panics on invalid geometry so
// misconfiguration fails fast at node construction.
func New(cfg Config) *Cache { return NewIn(nil, cfg) }

// NewIn is New with the state arrays carved out of arena (nil behaves
// like New). Arena-backed caches cost no steady-state allocation when the
// arena is recycled across hierarchies.
func NewIn(arena *Arena, cfg Config) *Cache {
	if cfg.SizeBytes <= 0 || cfg.Ways <= 0 || cfg.BlockBytes < 2 || cfg.BlockBytes&(cfg.BlockBytes-1) != 0 {
		// BlockBytes >= 2 keeps block addresses below invalidTag; a power
		// of two lets Block shift instead of divide.
		panic(fmt.Sprintf("cache: invalid config %+v", cfg))
	}
	blocks := cfg.SizeBytes / cfg.BlockBytes
	if blocks%cfg.Ways != 0 {
		panic(fmt.Sprintf("cache: %d blocks not divisible by %d ways", blocks, cfg.Ways))
	}
	nsets := blocks / cfg.Ways
	if nsets == 0 {
		panic("cache: zero sets")
	}
	c := &Cache{
		cfg:        cfg,
		nsets:      nsets,
		ways:       cfg.Ways,
		hashShift:  uint(bits.Len(uint(nsets))),
		blockShift: uint(bits.TrailingZeros(uint(cfg.BlockBytes))),
	}
	if arena != nil {
		c.tags = arena.u64.alloc(blocks)
		c.lastUse = arena.u64.alloc(blocks)
		c.flags = arena.u8.alloc(blocks)
		c.dirtyPos = arena.i32.alloc(blocks)
		// The dirty list can never exceed one entry per line, so a
		// full-capacity window makes append allocation-free for the
		// cache's whole lifetime.
		c.dirtyList = arena.i32.alloc(blocks)[:0]
	} else {
		c.tags = make([]uint64, blocks)
		c.lastUse = make([]uint64, blocks)
		c.flags = make([]uint8, blocks)
		c.dirtyPos = make([]int32, blocks)
	}
	for i := range c.tags {
		c.tags[i] = invalidTag
	}
	for i := range c.dirtyPos {
		c.dirtyPos[i] = -1
	}
	c.setMask = -1
	if nsets&(nsets-1) == 0 {
		c.setMask = nsets - 1
	} else {
		c.fastM = ^uint64(0)/uint64(nsets) + 1
	}
	return c
}

// markDirty records position p (set*ways+way) as dirty.
func (c *Cache) markDirty(p int) {
	c.dirtyPos[p] = int32(len(c.dirtyList))
	c.dirtyList = append(c.dirtyList, int32(p))
}

// markClean removes position p from the dirty index (swap-with-last).
func (c *Cache) markClean(p int) {
	i := c.dirtyPos[p]
	last := len(c.dirtyList) - 1
	moved := c.dirtyList[last]
	c.dirtyList[i] = moved
	c.dirtyPos[moved] = i
	c.dirtyList = c.dirtyList[:last]
	c.dirtyPos[p] = -1
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

func (c *Cache) index(block uint64) int {
	// Hash the upper bits in lightly so strided streams spread across
	// sets the way physical indexing does. Set counts need not be powers
	// of two (the paper's 28MB/22MB L3 sizes are not), so index by modulo
	// — with a mask fast path when they are (identical result, and the
	// L1/L2 levels on the access-critical path are always powers of two).
	h := block ^ (block >> c.hashShift)
	if c.setMask >= 0 {
		return int(h) & c.setMask
	}
	if h < fastmodLimit {
		return int(fastmod32(h, c.fastM, uint64(c.nsets)))
	}
	return int(h % uint64(c.nsets))
}

// fastmod32 is Lemire's exact remainder a % d for a, d < 2^32, given
// m = ^uint64(0)/d + 1: one multiply-high replaces the divide.
func fastmod32(a, m, d uint64) uint64 {
	hi, _ := bits.Mul64(m*a, d)
	return hi
}

// Block converts an address to its block address.
func (c *Cache) Block(addr uint64) uint64 { return addr >> c.blockShift }

// Lookup probes the cache without changing replacement or dirty state.
func (c *Cache) Lookup(addr uint64) bool {
	block := c.Block(addr)
	base := c.index(block) * c.ways
	for _, t := range c.tags[base : base+c.ways] {
		if t == block {
			return true
		}
	}
	return false
}

// Access performs a demand access. On a hit it updates LRU (and dirtiness
// for writes) and returns hit=true. On a miss it returns hit=false and
// does NOT allocate; the caller fetches the block from the next level and
// then calls Fill.
func (c *Cache) Access(addr uint64, write bool) bool {
	c.tick++
	block := c.Block(addr)
	base := c.index(block) * c.ways
	for i, t := range c.tags[base : base+c.ways] {
		if t == block {
			p := base + i
			c.lastUse[p] = c.tick
			if write && c.flags[p]&flagDirty == 0 {
				c.flags[p] |= flagDirty
				c.markDirty(p)
			}
			if c.flags[p]&flagPrefetched != 0 {
				c.flags[p] &^= flagPrefetched
				c.PrefetchUseful++
			}
			c.Hits++
			return true
		}
	}
	c.Misses++
	return false
}

// Fill allocates the block after a miss (demand or prefetch), evicting the
// LRU line of the set if necessary. It returns the evicted block's address
// and whether that block was dirty (needing writeback). For a write miss
// the filled line starts dirty (write-allocate).
func (c *Cache) Fill(addr uint64, write, prefetch bool) (victim uint64, dirtyVictim bool) {
	c.tick++
	block := c.Block(addr)
	base := c.index(block) * c.ways
	tags := c.tags[base : base+c.ways]
	// Probe the tags alone: bail out if the block is already present
	// (e.g. a racing prefetch), noting the first invalid way on the way.
	vi := -1
	for i, t := range tags {
		if t == block {
			p := base + i
			if write && c.flags[p]&flagDirty == 0 {
				c.flags[p] |= flagDirty
				c.markDirty(p)
			}
			c.lastUse[p] = c.tick
			return 0, false
		}
		if t == invalidTag && vi < 0 {
			vi = i
		}
	}
	// The victim is the first invalid way, else — only on a full set —
	// the least-recently-used one.
	viValid := vi < 0
	if viValid {
		lu := c.lastUse[base : base+c.ways]
		vi = 0
		oldest := lu[0]
		for i := 1; i < len(lu); i++ {
			if lu[i] < oldest {
				vi, oldest = i, lu[i]
			}
		}
	}
	vp := base + vi
	vTag := tags[vi]
	vDirty := c.flags[vp]&flagDirty != 0
	tags[vi] = block
	c.lastUse[vp] = c.tick
	var nf uint8
	if write {
		nf = flagDirty
	}
	if prefetch {
		nf |= flagPrefetched
	}
	c.flags[vp] = nf
	if viValid && vDirty {
		if !write {
			c.markClean(vp)
		}
	} else if write {
		c.markDirty(vp)
	}
	c.Fills++
	if prefetch {
		c.PrefetchFills++
	}
	if viValid {
		c.Evictions++
	}
	if viValid && vDirty {
		c.Writebacks++
		return vTag << c.blockShift, true
	}
	return 0, false
}

// CopyFrom makes c an exact copy of src: every line's tag, recency and
// flags, the dirty index, the LRU clock and the statistics, so c behaves
// bit for bit as src would from here on. Both must share one Config. The
// experiment engine uses it to hand each memory design its own copy of a
// prefilled LLC.
func (c *Cache) CopyFrom(src *Cache) {
	if c.cfg != src.cfg {
		panic(fmt.Sprintf("cache: CopyFrom between configs %+v and %+v", c.cfg, src.cfg))
	}
	c.tick = src.tick
	copy(c.tags, src.tags)
	copy(c.lastUse, src.lastUse)
	copy(c.flags, src.flags)
	copy(c.dirtyPos, src.dirtyPos)
	c.dirtyList = append(c.dirtyList[:0], src.dirtyList...)
	c.Hits, c.Misses = src.Hits, src.Misses
	c.Writebacks = src.Writebacks
	c.PrefetchFills, c.PrefetchUseful = src.PrefetchFills, src.PrefetchUseful
	c.Cleans, c.Fills = src.Cleans, src.Fills
	c.Evictions, c.Invalidations = src.Evictions, src.Invalidations
}

// Invalidate drops a block if present, returning whether it was dirty.
func (c *Cache) Invalidate(addr uint64) (wasDirty bool) {
	block := c.Block(addr)
	base := c.index(block) * c.ways
	for i, t := range c.tags[base : base+c.ways] {
		if t == block {
			p := base + i
			d := c.flags[p]&flagDirty != 0
			if d {
				c.markClean(p)
			}
			c.tags[p] = invalidTag
			c.lastUse[p] = 0
			c.flags[p] = 0
			c.Invalidations++
			return d
		}
	}
	return false
}

// Resident returns the number of valid lines.
func (c *Cache) Resident() int {
	n := 0
	for _, t := range c.tags {
		if t != invalidTag {
			n++
		}
	}
	return n
}

// DirtyCount returns the number of dirty lines currently resident.
// O(1): the dirty index tracks every transition.
func (c *Cache) DirtyCount() int { return len(c.dirtyList) }

// CleanDirty implements §III-E's proactive LLC cleaning: it marks up to
// max dirty blocks clean, least-recently-used first, and returns their
// addresses so the memory controller writes them back as part of the
// current write batch. It satisfies memctrl.CleanSource.
func (c *Cache) CleanDirty(max int) []uint64 {
	return c.CleanDirtyMatching(max, nil)
}

// cleanCand locates one dirty line considered for proactive cleaning.
type cleanCand struct {
	pos     int32
	lastUse uint64
}

// cleanCands sorts candidates least-recently-used first. lastUse values
// are unique (the tick advances on every access), so the order — and the
// drained output — is deterministic.
type cleanCands []cleanCand

func (s cleanCands) Len() int           { return len(s) }
func (s cleanCands) Less(i, j int) bool { return s[i].lastUse < s[j].lastUse }
func (s cleanCands) Swap(i, j int)      { s[i], s[j] = s[j], s[i] }

// siftDown restores the max-heap property (largest lastUse at the root)
// at index i of h. Hand-rolled rather than container/heap because the
// interface boxes every Push/Pop operand, and this runs on the write-mode
// path.
func siftDown(h []cleanCand, i int) {
	for {
		child := 2*i + 1
		if child >= len(h) {
			return
		}
		if r := child + 1; r < len(h) && h[r].lastUse > h[child].lastUse {
			child = r
		}
		if h[child].lastUse <= h[i].lastUse {
			return
		}
		h[i], h[child] = h[child], h[i]
		i = child
	}
}

// CleanDirtyMatching is CleanDirty restricted to blocks whose address
// satisfies match (nil matches everything); multi-channel nodes use it so
// each channel's write batch cleans only blocks homed on that channel.
// The returned slice aliases internal scratch valid until the next call;
// callers consume it immediately (memctrl moves it into its write queue).
func (c *Cache) CleanDirtyMatching(max int, match func(addr uint64) bool) []uint64 {
	if max <= 0 {
		return nil
	}
	// Enumerate candidates from the dirty index instead of scanning every
	// line. The index's order is arbitrary (swap-with-last removal), but
	// the selection below keys on the strictly unique lastUse ticks, so
	// the cleaned set and its order are independent of enumeration order.
	cands := c.cleanCands[:0]
	for _, p := range c.dirtyList {
		if match != nil && !match(c.tags[p]<<c.blockShift) {
			continue
		}
		cands = append(cands, cleanCand{p, c.lastUse[p]})
	}
	c.cleanCands = cands
	if len(cands) > max {
		// Bounded selection: keep the max least-recently-used candidates in
		// a max-heap (root = youngest kept) and stream the rest through it,
		// then sort just the survivors. Because lastUse values are unique,
		// this yields exactly the same output as sorting every candidate and
		// truncating — at O(n log max) instead of O(n log n), which matters
		// when the LLC holds far more dirty lines than the batch cleans.
		h := cands[:max]
		for i := max/2 - 1; i >= 0; i-- {
			siftDown(h, i)
		}
		for _, cd := range cands[max:] {
			if cd.lastUse < h[0].lastUse {
				h[0] = cd
				siftDown(h, 0)
			}
		}
		cands = h
	}
	sort.Sort(cands)
	out := c.cleanOut[:0]
	for _, cd := range cands {
		p := int(cd.pos)
		c.flags[p] &^= flagDirty
		c.markClean(p)
		out = append(out, c.tags[p]<<c.blockShift)
	}
	c.cleanOut = out
	c.Cleans += uint64(len(out))
	return out
}

// CheckConservation verifies the level's line accounting: every
// allocated line is still resident, was evicted, or was invalidated; a
// line only becomes useful-prefetch after being prefetch-filled.
func (c *Cache) CheckConservation(source string) []obs.Violation {
	ck := obs.NewChecker(source)
	ck.CheckEq(int64(c.Fills), int64(c.Evictions+c.Invalidations)+int64(c.Resident()),
		"fills==evictions+invalidations+resident")
	ck.Check(c.Evictions >= c.Writebacks, "evictions>=writebacks",
		"%d evictions, %d writebacks", c.Evictions, c.Writebacks)
	ck.Check(c.PrefetchUseful <= c.PrefetchFills, "prefetch-useful<=prefetch-fills",
		"%d useful, %d fills", c.PrefetchUseful, c.PrefetchFills)
	ck.Check(c.PrefetchFills <= c.Fills, "prefetch-fills<=fills",
		"%d prefetch fills, %d fills", c.PrefetchFills, c.Fills)
	ck.Check(c.Resident() <= c.nsets*c.ways, "resident<=capacity",
		"%d resident, %d lines", c.Resident(), c.nsets*c.ways)
	// The dirty index must mirror the line state exactly: same count as a
	// full scan, and every indexed position a dirty resident line whose
	// back-pointer round-trips.
	scan := 0
	for p, t := range c.tags {
		if t != invalidTag && c.flags[p]&flagDirty != 0 {
			scan++
		}
	}
	ck.CheckEq(int64(len(c.dirtyList)), int64(scan), "dirty-index==dirty-scan")
	indexOK := true
	for i, p := range c.dirtyList {
		if c.tags[p] == invalidTag || c.flags[p]&flagDirty == 0 || c.dirtyPos[p] != int32(i) {
			indexOK = false
			break
		}
	}
	ck.Check(indexOK, "dirty-index-entries-valid",
		"a dirty-index entry points at a clean, invalid, or mis-linked line")
	return ck.Violations()
}

// MissRate returns misses / (hits + misses), or 0 with no accesses.
func (c *Cache) MissRate() float64 {
	total := c.Hits + c.Misses
	if total == 0 {
		return 0
	}
	return float64(c.Misses) / float64(total)
}
