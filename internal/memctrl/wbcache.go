package memctrl

// wbCache is the per-channel victim writeback cache of §III-E: 128 KB,
// 64-way (2048 blocks in 32 sets). Evicted dirty LLC blocks park here
// instead of the small write buffer so the write buffer does not fill
// before the LLC has accumulated a full Hetero-DMR write batch. The
// command scheduler never inspects it; its content drains through the
// write buffer during write mode.
//
// Storage is a single flat array (set s occupies the fixed window
// blocks[s*ways : (s+1)*ways], filled to setLen[s] in insertion order),
// which fixes the drain order; membership is answered by a block table
// over the same blocks, so neither a park nor the read path's forwarding
// check scans a 64-way set. The cache allocates everything up front and
// nothing per operation.
type wbCache struct {
	blocks   []uint64 // nsets*ways flat backing store
	setLen   []int    // occupied entries per set
	index    blockTable
	nsets    int
	ways     int
	count    int
	drainBuf []uint64 // reused by drain; see its doc comment
}

func newWBCache(blocks, ways int) *wbCache {
	if blocks <= 0 || ways <= 0 {
		panic("memctrl: wbCache needs positive blocks and ways")
	}
	// blocks < ways would make blocks/ways == 0 sets and setIndex a
	// modulo-by-zero; a cache smaller than one full set degrades to a
	// single set of `blocks` ways.
	if ways > blocks {
		ways = blocks
	}
	nsets := blocks / ways
	return &wbCache{
		blocks:   make([]uint64, nsets*ways),
		setLen:   make([]int, nsets),
		index:    newBlockTable(nsets * ways),
		nsets:    nsets,
		ways:     ways,
		drainBuf: make([]uint64, 0, nsets*ways),
	}
}

func (w *wbCache) setIndex(blockAddr uint64) int {
	return int(blockAddr % uint64(w.nsets))
}

// wbInsert is insert's outcome, distinguished so the conservation
// counters can balance parks against drains exactly.
type wbInsert int

const (
	wbRejected  wbInsert = iota // set full; caller uses the write buffer
	wbCoalesced                 // merged with an already-parked block
	wbParked                    // newly parked
)

// insert records a dirty block. The caller falls back to the write buffer
// on wbRejected.
func (w *wbCache) insert(blockAddr uint64) wbInsert {
	if w.index.count(blockAddr) != 0 {
		return wbCoalesced // coalesced with an earlier writeback
	}
	si := w.setIndex(blockAddr)
	n := w.setLen[si]
	if n >= w.ways {
		return wbRejected
	}
	w.blocks[si*w.ways+n] = blockAddr
	w.setLen[si] = n + 1
	w.index.inc(blockAddr)
	w.count++
	return wbParked
}

// contains reports whether the block is parked in the cache.
func (w *wbCache) contains(blockAddr uint64) bool { return w.index.count(blockAddr) != 0 }

// len returns the number of parked blocks.
func (w *wbCache) len() int { return w.count }

// drain removes and returns every parked block, set-major in insertion
// order (ascending set index, oldest parked first within a set) — the
// same deterministic order every run. The returned slice aliases an
// internal buffer that the next drain reuses; the caller must consume it
// before draining again (enterWriteMode moves it straight into the write
// queue).
func (w *wbCache) drain() []uint64 {
	out := w.drainBuf[:0]
	for si := 0; si < w.nsets; si++ {
		base := si * w.ways
		out = append(out, w.blocks[base:base+w.setLen[si]]...)
		w.setLen[si] = 0
	}
	w.count = 0
	w.index.reset()
	w.drainBuf = out
	return out
}

// blockTable counts entries per block address: a fixed open-addressing
// table (linear probing, backward-shift delete) keyed by block+1, so a
// zero key marks an empty slot. It indexes the write queue (queued
// writes per block) and the writeback cache (parked blocks), making the
// read path's pending-write check a probe or two. The table is sized
// for its owner's nominal capacity at a load factor of at most one half
// and doubles only if occupancy passes that (write mode tops the write
// queue up past WriteQueueCap), so the steady state never allocates.
type blockTable struct {
	keys   []uint64 // block+1 per slot; 0 = empty
	counts []uint32 // entries per occupied slot
	shift  uint     // 64 - log2(len(keys)), for Fibonacci hashing
	n      int      // occupied slots
}

func newBlockTable(capHint int) blockTable {
	size, bits := 8, uint(3)
	for size < 2*capHint {
		size <<= 1
		bits++
	}
	return blockTable{keys: make([]uint64, size), counts: make([]uint32, size), shift: 64 - bits}
}

func (t *blockTable) home(key uint64) int {
	return int((key * 0x9E3779B97F4A7C15) >> t.shift)
}

// find returns the slot holding key, or the empty slot ending its probe
// run.
func (t *blockTable) find(key uint64) int {
	mask := len(t.keys) - 1
	i := t.home(key)
	for t.keys[i] != key && t.keys[i] != 0 {
		i = (i + 1) & mask
	}
	return i
}

// count returns the block's entry count (0 when absent).
func (t *blockTable) count(block uint64) uint32 {
	if i := t.find(block + 1); t.keys[i] != 0 {
		return t.counts[i]
	}
	return 0
}

// inc adds one entry for block.
func (t *blockTable) inc(block uint64) {
	k := block + 1
	i := t.find(k)
	if t.keys[i] != 0 {
		t.counts[i]++
		return
	}
	t.keys[i], t.counts[i] = k, 1
	t.n++
	if 2*t.n > len(t.keys) {
		t.grow()
	}
}

// dec removes one entry for block, which must be present, and frees its
// slot when the count reaches zero.
func (t *blockTable) dec(block uint64) {
	i := t.find(block + 1)
	if t.keys[i] == 0 {
		panic("memctrl: blockTable.dec of an absent block")
	}
	if t.counts[i] > 1 {
		t.counts[i]--
		return
	}
	// Backward-shift deletion: pull later entries of the probe run into
	// the hole unless their home slot lies cyclically in (hole, j].
	mask := len(t.keys) - 1
	for j := (i + 1) & mask; t.keys[j] != 0; j = (j + 1) & mask {
		h := t.home(t.keys[j])
		if (j > i && (h <= i || h > j)) || (j < i && h <= i && h > j) {
			t.keys[i], t.counts[i] = t.keys[j], t.counts[j]
			i = j
		}
	}
	t.keys[i] = 0
	t.n--
}

// len returns the number of distinct blocks held.
func (t *blockTable) len() int { return t.n }

// reset empties the table, keeping its storage.
func (t *blockTable) reset() {
	clear(t.keys)
	t.n = 0
}

// grow doubles the table and rehashes every entry.
func (t *blockTable) grow() {
	keys, counts := t.keys, t.counts
	t.keys = make([]uint64, 2*len(keys))
	t.counts = make([]uint32, 2*len(keys))
	t.shift--
	for i, k := range keys {
		if k != 0 {
			j := t.find(k)
			t.keys[j], t.counts[j] = k, counts[i]
		}
	}
}
