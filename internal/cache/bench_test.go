package cache

import (
	"testing"

	"repro/internal/xrand"
)

// BenchmarkCacheLLC times the scaled Hierarchy1 LLC (1792 sets of 16
// ways) in the state a node recording leaves it: prefilled with twice its
// lines of seeded fills, a quarter of them dirty, over a footprint four
// times its size. Each op is a seeded Access, a quarter of them writes,
// with a Fill on a miss; every 256 ops one of two channels' write batches
// cleans up to 32 of its own dirty blocks. The steady state must not
// allocate.
func BenchmarkCacheLLC(b *testing.B) {
	const lines = 1792 * 16
	c := New(Config{SizeBytes: lines * 64, Ways: 16, BlockBytes: 64})
	rng := xrand.New(1)
	footprint := uint64(4 * lines * 64)
	for i := 0; i < 2*lines; i++ {
		c.Fill(rng.Uint64n(footprint)&^63, rng.Bool(0.25), false)
	}
	channel := uint64(0)
	match := func(addr uint64) bool { return addr>>6&1 == channel }
	c.CleanDirtyMatching(32, match) // sizes the cleaning scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr, write := rng.Uint64n(footprint)&^63, rng.Bool(0.25)
		if !c.Access(addr, write) {
			c.Fill(addr, write, false)
		}
		if i%256 == 255 {
			channel ^= 1
			c.CleanDirtyMatching(32, match)
		}
	}
}
