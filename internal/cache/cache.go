// Package cache implements the set-associative write-back caches of the
// simulated node (Table IV of the paper): split L1, per-core L2, shared
// L3, LRU replacement, stride and next-line prefetchers with auto
// turn-off, and the LLC dirty-block cleaning hook that tops up the memory
// controller's write batches (§III-E: clean the least-recently-used dirty
// blocks first, as they are unlikely to be re-written before eviction).
package cache

import (
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/obs"
)

// Line metadata is stored struct-of-arrays: the tag probe — the loop every
// access runs — walks a dense []uint64 window (one or two cache lines for
// an 8/16-way set) instead of striding through per-line structs.
// Dirty/prefetched bits live in a byte array touched only for the single
// way an operation settles on. Recency is kept as two orders: each set's
// way order (one uint64) names its victim without a scan, and the dirty
// lines form one list in recency order that cleaning walks from its least
// recent end. A way's validity is encoded in its tag: invalidTag is
// unreachable as a block address (block = addr/BlockBytes with
// BlockBytes >= 2, so blocks fit in 63 bits), which lets the probe loop
// compare tags alone with no validity test.
const invalidTag = uint64(1) << 63

// maxWays is the associativity a set's way order holds: sixteen 4-bit
// fields of one uint64.
const maxWays = 16

// nibbles has a one in every 4-bit field; times a way index it repeats the
// index in every field, the key of the way order's SWAR search.
const nibbles = 0x1111111111111111

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
	lastField  uint   // 4*(ways-1): the bit offset of a way order's victim field

	// Flat per-line state, indexed by position p = set*ways + way.
	tags  []uint64 // block address, or invalidTag
	flags []uint8  // flagDirty | flagPrefetched

	// order holds each set's way order: its ways as 4-bit fields, the most
	// recently used in the lowest, the victim in the field at lastField.
	// A use or fill moves a way to the front. Empty ways start at the
	// victim end, lowest index last, and only a fill moves one, so the
	// victim is the first empty way, else the least recently used.
	order []uint64

	// The dirty lines form one doubly-linked list through prev and next
	// (line positions, -1 at either end), least recently used at
	// dirtyHead. A line joins at the tail when dirtied, moves there when
	// used, and leaves when evicted or cleaned, so the list holds the
	// dirty lines in recency order.
	prev, next           []int32
	dirtyHead, dirtyTail int32
	ndirty               int

	// Stats.
	Hits, Misses   uint64
	Writebacks     uint64
	PrefetchFills  uint64
	PrefetchUseful uint64
	Cleans         uint64
	Fills          uint64 // lines allocated (demand + prefetch)
	Evictions      uint64 // valid lines displaced by Fill (dirty or clean)

	// Scratch reused across CleanDirtyMatching calls; the slice that call
	// returns aliases it and is valid until the next call.
	cleanOut []uint64
}

// Validate reports a geometry a cache level cannot have: a non-positive
// size or way count, a block size below 2 bytes or not a power of two,
// more than 16 ways, or a line count that is not a positive multiple of
// the ways.
func (cfg Config) Validate() error {
	switch {
	case cfg.SizeBytes <= 0 || cfg.Ways <= 0 || cfg.BlockBytes < 2 || cfg.BlockBytes&(cfg.BlockBytes-1) != 0:
		// BlockBytes >= 2 keeps block addresses below invalidTag; a power
		// of two lets Block shift instead of divide.
		return fmt.Errorf("cache: invalid config %+v", cfg)
	case cfg.Ways > maxWays:
		return fmt.Errorf("cache: %d ways exceed the %d a set's way order holds", cfg.Ways, maxWays)
	}
	blocks := cfg.SizeBytes / cfg.BlockBytes
	if blocks%cfg.Ways != 0 {
		return fmt.Errorf("cache: %d blocks not divisible by %d ways", blocks, cfg.Ways)
	}
	if blocks == 0 {
		return errors.New("cache: zero sets")
	}
	return nil
}

// New builds a cache level. It panics with Validate's message on an
// invalid geometry; callers that take a geometry as input validate first.
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	blocks := cfg.SizeBytes / cfg.BlockBytes
	nsets := blocks / cfg.Ways
	c := &Cache{
		cfg:        cfg,
		nsets:      nsets,
		ways:       cfg.Ways,
		hashShift:  uint(bits.Len(uint(nsets))),
		blockShift: uint(bits.TrailingZeros(uint(cfg.BlockBytes))),
		lastField:  uint(4 * (cfg.Ways - 1)),
		tags:       make([]uint64, blocks),
		flags:      make([]uint8, blocks),
		order:      make([]uint64, nsets),
		prev:       make([]int32, blocks),
		next:       make([]int32, blocks),
		dirtyHead:  -1,
		dirtyTail:  -1,
	}
	for i := range c.tags {
		c.tags[i] = invalidTag
	}
	// Every set starts empty: way 0 in the victim field, the highest way
	// at the front.
	var empty uint64
	for w := uint(0); w < uint(cfg.Ways); w++ {
		empty |= uint64(w) << (c.lastField - 4*w)
	}
	for i := range c.order {
		c.order[i] = empty
	}
	c.setMask = -1
	if nsets&(nsets-1) == 0 {
		c.setMask = nsets - 1
	} else {
		c.fastM = ^uint64(0)/uint64(nsets) + 1
	}
	return c
}

// use records a use of way w of set, the line at position p: it moves
// the way to the front of the set's order and, for a line that is or
// becomes dirty (write), to the tail of the dirty list.
func (c *Cache) use(set, w, p int, write bool) {
	// SWAR search: x has a zero field exactly where the order holds w,
	// and the lowest field the borrow trick flags is the first zero one.
	o := c.order[set]
	x := o ^ uint64(w)*nibbles
	k := uint(bits.TrailingZeros64((x-nibbles)&^x&(nibbles<<3))) &^ 3
	c.order[set] = o&^(uint64(1)<<(k+4)-1) | (o&(uint64(1)<<k-1))<<4 | uint64(w)
	dirty := c.flags[p]&flagDirty != 0
	if dirty {
		c.unlinkDirty(int32(p))
	}
	if dirty || write {
		c.flags[p] |= flagDirty
		c.pushDirty(int32(p))
	}
}

// pushDirty appends line p at the tail, the most recent end, of the
// dirty list.
func (c *Cache) pushDirty(p int32) {
	c.prev[p], c.next[p] = c.dirtyTail, -1
	if c.dirtyTail >= 0 {
		c.next[c.dirtyTail] = p
	} else {
		c.dirtyHead = p
	}
	c.dirtyTail = p
	c.ndirty++
}

// unlinkDirty removes line p from the dirty list.
func (c *Cache) unlinkDirty(p int32) {
	prev, next := c.prev[p], c.next[p]
	if prev >= 0 {
		c.next[prev] = next
	} else {
		c.dirtyHead = next
	}
	if next >= 0 {
		c.prev[next] = prev
	} else {
		c.dirtyTail = prev
	}
	c.ndirty--
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
	block := c.Block(addr)
	set := c.index(block)
	base := set * c.ways
	for i, t := range c.tags[base : base+c.ways] {
		if t == block {
			p := base + i
			c.use(set, i, p, write)
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
	block := c.Block(addr)
	set := c.index(block)
	base := set * c.ways
	tags := c.tags[base : base+c.ways]
	// Bail out if the block is already present (e.g. a racing prefetch).
	for i, t := range tags {
		if t == block {
			c.use(set, i, base+i, write)
			return 0, false
		}
	}
	// The victim is the way in the order's last field: the first empty
	// way, else the least recently used.
	vi := int(c.order[set] >> c.lastField & 0xF)
	vp := base + vi
	vTag := tags[vi]
	vDirty := c.flags[vp]&flagDirty != 0
	if vDirty {
		c.unlinkDirty(int32(vp))
	}
	tags[vi] = block
	c.flags[vp] = 0
	if prefetch {
		c.flags[vp] = flagPrefetched
	}
	c.use(set, vi, vp, write)
	c.Fills++
	if prefetch {
		c.PrefetchFills++
	}
	if vTag != invalidTag {
		c.Evictions++
	}
	if vDirty {
		c.Writebacks++
		return vTag << c.blockShift, true
	}
	return 0, false
}

// CopyFrom makes c an exact copy of src: every line's tag and flags, the
// way orders, the dirty list and the statistics, so c behaves bit for bit
// as src would from here on. Both must share one Config. A node replay
// uses it to refill its LLC from the recorded, prefilled one.
func (c *Cache) CopyFrom(src *Cache) {
	if c.cfg != src.cfg {
		panic(fmt.Sprintf("cache: CopyFrom between configs %+v and %+v", c.cfg, src.cfg))
	}
	copy(c.tags, src.tags)
	copy(c.flags, src.flags)
	copy(c.order, src.order)
	copy(c.prev, src.prev)
	copy(c.next, src.next)
	c.dirtyHead, c.dirtyTail, c.ndirty = src.dirtyHead, src.dirtyTail, src.ndirty
	c.Hits, c.Misses = src.Hits, src.Misses
	c.Writebacks = src.Writebacks
	c.PrefetchFills, c.PrefetchUseful = src.PrefetchFills, src.PrefetchUseful
	c.Cleans, c.Fills = src.Cleans, src.Fills
	c.Evictions = src.Evictions
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
// O(1): the dirty list counts its lines.
func (c *Cache) DirtyCount() int { return c.ndirty }

// CleanDirtyMatching implements §III-E's proactive LLC cleaning: it
// marks up to max dirty blocks whose address satisfies match (nil
// matches everything) clean, least-recently-used first, and returns
// their addresses so the memory controller writes them back as part of
// the current write batch. Multi-channel nodes pass a match so each
// channel's write batch cleans only blocks homed on that channel. The
// returned slice aliases internal scratch valid until the next call;
// callers consume it immediately (memctrl moves it into its write queue).
func (c *Cache) CleanDirtyMatching(max int, match func(addr uint64) bool) []uint64 {
	if max <= 0 {
		return nil
	}
	// The dirty list runs least recently used first, so its first max
	// matching lines are the ones to clean, in order.
	out := c.cleanOut[:0]
	for p := c.dirtyHead; p >= 0 && len(out) < max; {
		next := c.next[p]
		if addr := c.tags[p] << c.blockShift; match == nil || match(addr) {
			c.flags[p] &^= flagDirty
			c.unlinkDirty(p)
			out = append(out, addr)
		}
		p = next
	}
	c.cleanOut = out
	c.Cleans += uint64(len(out))
	return out
}

// CheckConservation verifies the level's line accounting: every
// allocated line is still resident or was evicted; a line only becomes
// useful-prefetch after being prefetch-filled; every set's way order is a
// permutation of its ways with the empty ones at the victim end, lowest
// index last; and the dirty list links exactly the dirty resident lines.
func (c *Cache) CheckConservation(source string) []obs.Violation {
	ck := obs.NewChecker(source)
	resident := c.Resident()
	ck.CheckEq(int64(c.Fills), int64(c.Evictions)+int64(resident), "fills==evictions+resident")
	ck.Check(c.Evictions >= c.Writebacks, "evictions>=writebacks",
		"%d evictions, %d writebacks", c.Evictions, c.Writebacks)
	ck.Check(c.PrefetchUseful <= c.PrefetchFills, "prefetch-useful<=prefetch-fills",
		"%d useful, %d fills", c.PrefetchUseful, c.PrefetchFills)
	ck.Check(c.PrefetchFills <= c.Fills, "prefetch-fills<=fills",
		"%d prefetch fills, %d fills", c.PrefetchFills, c.Fills)
	ck.Check(resident <= c.nsets*c.ways, "resident<=capacity",
		"%d resident, %d lines", resident, c.nsets*c.ways)
	orderOK := true
	for set, o := range c.order {
		var seen uint32
		empty := c.ways // the last empty way met walking toward the victim; c.ways: none yet
		for k := uint(0); k <= c.lastField && orderOK; k += 4 {
			w := int(o >> k & 0xF)
			valid := w < c.ways && c.tags[set*c.ways+w] != invalidTag
			orderOK = w < c.ways && seen&(1<<w) == 0 && (valid && empty == c.ways || !valid && w < empty)
			seen |= 1 << w
			if !valid {
				empty = w
			}
		}
		orderOK = orderOK && o>>(c.lastField+4) == 0
	}
	ck.Check(orderOK, "way-orders-valid",
		"a set's way order is no permutation of its ways, or its empty ways are not last in descending order")
	// The dirty list must hold exactly the dirty resident lines: as many
	// as a full scan finds, each dirty and valid, every back link intact.
	scan := 0
	for p, t := range c.tags {
		if t != invalidTag && c.flags[p]&flagDirty != 0 {
			scan++
		}
	}
	ck.CheckEq(int64(c.ndirty), int64(scan), "dirty-count==dirty-scan")
	n, last, p := 0, int32(-1), c.dirtyHead
	for ; p >= 0 && int(p) < len(c.tags) && n < len(c.tags); p = c.next[p] {
		if c.prev[p] != last || c.tags[p] == invalidTag || c.flags[p]&flagDirty == 0 {
			break
		}
		n, last = n+1, p
	}
	ck.Check(p == -1 && last == c.dirtyTail && n == scan, "dirty-list-valid",
		"the dirty list holds %d lines of %d dirty, or links a clean, invalid or mis-linked line", n, scan)
	return ck.Violations()
}
