package cache

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"testing"

	"repro/internal/xrand"
)

// refCache is the textbook LRU write-back cache that Cache must match
// decision for decision. Every line carries the tick of its last use; the
// victim is the first empty way, else the way with the smallest tick; and
// cleaning sorts the matching dirty lines by tick and takes the first max.
type refCache struct {
	nsets, ways int
	tick        uint64
	tags        []uint64 // block address + 1; 0 marks an empty way
	use         []uint64
	dirty       []bool
	resident    int
	ndirty      int
}

func newRefCache(cfg Config) *refCache {
	lines := cfg.SizeBytes / cfg.BlockBytes
	return &refCache{
		nsets: lines / cfg.Ways,
		ways:  cfg.Ways,
		tags:  make([]uint64, lines),
		use:   make([]uint64, lines),
		dirty: make([]bool, lines),
	}
}

// find returns the block's set base and its line position, or -1.
func (r *refCache) find(addr uint64) (block uint64, base, p int) {
	block = addr / 64
	h := block ^ (block >> uint(bits.Len(uint(r.nsets))))
	base = int(h%uint64(r.nsets)) * r.ways
	for w := 0; w < r.ways; w++ {
		if r.tags[base+w] == block+1 {
			return block, base, base + w
		}
	}
	return block, base, -1
}

func (r *refCache) lookup(addr uint64) bool {
	_, _, p := r.find(addr)
	return p >= 0
}

func (r *refCache) access(addr uint64, write bool) bool {
	r.tick++
	_, _, p := r.find(addr)
	if p < 0 {
		return false
	}
	r.touch(p, write)
	return true
}

// touch records a use of line p, dirtying it on a write.
func (r *refCache) touch(p int, write bool) {
	r.use[p] = r.tick
	if write && !r.dirty[p] {
		r.dirty[p] = true
		r.ndirty++
	}
}

func (r *refCache) fill(addr uint64, write bool) (uint64, bool) {
	r.tick++
	block, base, p := r.find(addr)
	if p >= 0 {
		r.touch(p, write)
		return 0, false
	}
	v := -1
	for w := 0; w < r.ways && v < 0; w++ {
		if r.tags[base+w] == 0 {
			v = base + w
		}
	}
	if v < 0 {
		v = base
		for w := 1; w < r.ways; w++ {
			if r.use[base+w] < r.use[v] {
				v = base + w
			}
		}
	}
	old, wasDirty := r.tags[v], r.dirty[v]
	if old == 0 {
		r.resident++
	}
	if wasDirty {
		r.ndirty--
	}
	r.tags[v], r.dirty[v] = block+1, false
	r.touch(v, write)
	if wasDirty {
		return (old - 1) * 64, true
	}
	return 0, false
}

func (r *refCache) clean(max int, match func(uint64) bool) []uint64 {
	if max <= 0 {
		return nil
	}
	var cands []int
	for p, t := range r.tags {
		if t != 0 && r.dirty[p] && (match == nil || match((t-1)*64)) {
			cands = append(cands, p)
		}
	}
	sort.Slice(cands, func(i, j int) bool { return r.use[cands[i]] < r.use[cands[j]] })
	if len(cands) > max {
		cands = cands[:max]
	}
	out := make([]uint64, len(cands))
	for i, p := range cands {
		r.dirty[p] = false
		out[i] = (r.tags[p] - 1) * 64
	}
	r.ndirty -= len(out)
	return out
}

// TestMatchesTimestampLRU drives Cache and refCache with one seeded
// sequence of calls, with a nil and a parity match, over 1 to 16 ways and
// power-of-two and other set counts, including the scaled Hierarchy1 and
// Hierarchy2 LLCs (1792 and 1408 sets of 16 ways). Each run prefills
// twice the cache's lines, a quarter of the fills dirty, as
// node.prefillL3 does, then mixes Access (with a Fill on a miss),
// prefetch Fill, Lookup and CleanDirtyMatching calls. After every call
// the return values, the cleaned addresses in order and DirtyCount must
// agree, and so must Resident: after every call on caches of up to 4096
// lines, and after every 64th call and the last on the larger ones,
// where each count scans every line.
func TestMatchesTimestampLRU(t *testing.T) {
	geoms := []struct{ sets, ways, steps int }{
		{1, 1, 2000}, {7, 1, 2000}, {1, 2, 2000}, {5, 2, 4000}, {64, 2, 4000},
		{1, 8, 4000}, {13, 8, 8000}, {16, 8, 8000}, {1, 16, 4000}, {7, 16, 8000},
		{32, 16, 12000}, {1792, 16, 16000}, {1408, 16, 16000},
	}
	parity := func(addr uint64) bool { return addr>>6&1 == 0 }
	for _, g := range geoms {
		for _, match := range []func(uint64) bool{nil, parity} {
			t.Run(fmt.Sprintf("%dx%d/match=%v", g.sets, g.ways, match != nil), func(t *testing.T) {
				cfg := Config{SizeBytes: g.sets * g.ways * 64, Ways: g.ways, BlockBytes: 64}
				c, ref := New(cfg), newRefCache(cfg)
				rng := xrand.New(uint64(g.sets*g.ways) ^ 0x5eed)
				lines := g.sets * g.ways
				prefill := 2 * lines
				for step := 0; step < prefill+g.steps; step++ {
					addr := rng.Uint64n(2*uint64(lines)+3)<<6 | rng.Uint64n(64)
					write := rng.Bool(0.25)
					op := 8 // a prefetch Fill
					if step >= prefill {
						op = rng.Intn(16)
					}
					fill := func(prefetch bool) {
						v, d := c.Fill(addr, write, prefetch)
						if wv, wd := ref.fill(addr, write); v != wv || d != wd {
							t.Fatalf("step %d: Fill(%#x, %v, %v) = (%#x, %v), want (%#x, %v)",
								step, addr, write, prefetch, v, d, wv, wd)
						}
					}
					switch {
					case op < 8:
						hit := c.Access(addr, write)
						if want := ref.access(addr, write); hit != want {
							t.Fatalf("step %d: Access(%#x, %v) = %v, want %v", step, addr, write, hit, want)
						}
						if !hit {
							fill(false)
						}
					case op < 11:
						fill(step >= prefill)
					case op < 14:
						if got, want := c.Lookup(addr), ref.lookup(addr); got != want {
							t.Fatalf("step %d: Lookup(%#x) = %v, want %v", step, addr, got, want)
						}
					default:
						max := rng.Intn(lines/4 + 3)
						if got, want := c.CleanDirtyMatching(max, match), ref.clean(max, match); !slices.Equal(got, want) {
							t.Fatalf("step %d: CleanDirtyMatching(%d) cleaned %#x, want %#x", step, max, got, want)
						}
					}
					if got, want := c.DirtyCount(), ref.ndirty; got != want {
						t.Fatalf("step %d: DirtyCount %d, want %d", step, got, want)
					}
					if lines <= 4096 || step%64 == 0 || step == prefill+g.steps-1 {
						if got, want := c.Resident(), ref.resident; got != want {
							t.Fatalf("step %d: Resident %d, want %d", step, got, want)
						}
					}
				}
			})
		}
	}
}
