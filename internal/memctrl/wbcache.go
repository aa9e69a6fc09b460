package memctrl

import "repro/internal/blocktab"

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
	index    *blocktab.Table
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
		index:    blocktab.New(nsets * ways),
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
	if w.index.Count(blockAddr) != 0 {
		return wbCoalesced // coalesced with an earlier writeback
	}
	si := w.setIndex(blockAddr)
	n := w.setLen[si]
	if n >= w.ways {
		return wbRejected
	}
	w.blocks[si*w.ways+n] = blockAddr
	w.setLen[si] = n + 1
	w.index.Inc(blockAddr)
	w.count++
	return wbParked
}

// contains reports whether the block is parked in the cache.
func (w *wbCache) contains(blockAddr uint64) bool { return w.index.Count(blockAddr) != 0 }

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
	w.index.Reset()
	w.drainBuf = out
	return out
}
