// Package blocktab counts entries per block address in a fixed
// open-addressing table (Fibonacci hashing, linear probing,
// backward-shift delete) keyed by block+1, so a zero key marks an empty
// slot. The memory controller indexes its write queue and writeback
// cache with it, making the read path's pending-write check a probe or
// two, and the core recorder keeps its outstanding next-line
// predictions in one. A table is sized for its owner's nominal capacity
// at a load factor of at most one half and doubles only if occupancy
// passes that (write mode tops the write queue up past its capacity), so
// the steady state never allocates.
package blocktab

// Table is a block-address multiset. It is not safe for concurrent use.
type Table struct {
	keys   []uint64 // block+1 per slot; 0 = empty
	counts []uint32 // entries per occupied slot
	shift  uint     // 64 - log2(len(keys)), for Fibonacci hashing
	n      int      // occupied slots
}

// New returns an empty table with room for capHint blocks at a load
// factor of at most one half.
func New(capHint int) *Table {
	size, bits := 8, uint(3)
	for size < 2*capHint {
		size <<= 1
		bits++
	}
	return &Table{keys: make([]uint64, size), counts: make([]uint32, size), shift: 64 - bits}
}

func (t *Table) home(key uint64) int {
	return int((key * 0x9E3779B97F4A7C15) >> t.shift)
}

// find returns the slot holding key, or the empty slot ending its probe
// run.
func (t *Table) find(key uint64) int {
	mask := len(t.keys) - 1
	i := t.home(key)
	for t.keys[i] != key && t.keys[i] != 0 {
		i = (i + 1) & mask
	}
	return i
}

// Count returns the block's entry count (0 when absent).
func (t *Table) Count(block uint64) uint32 {
	if i := t.find(block + 1); t.keys[i] != 0 {
		return t.counts[i]
	}
	return 0
}

// Inc adds one entry for block.
func (t *Table) Inc(block uint64) {
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

// Dec removes one entry for block, which must be present, and frees its
// slot when the count reaches zero.
func (t *Table) Dec(block uint64) {
	i := t.find(block + 1)
	if t.keys[i] == 0 {
		panic("blocktab: Dec of an absent block")
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

// Len returns the number of distinct blocks held.
func (t *Table) Len() int { return t.n }

// Reset empties the table, keeping its storage.
func (t *Table) Reset() {
	clear(t.keys)
	t.n = 0
}

// grow doubles the table and rehashes every entry.
func (t *Table) grow() {
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
