package memctrl

import (
	"testing"

	"repro/internal/xrand"
)

// benchStream drives the controller's hot loop: a stream of reads with
// enough writebacks mixed in to exercise the writeback cache, mode
// switching, and (on fast designs) both frequency transitions.
func benchStream(b *testing.B, c *Channel) {
	b.ReportAllocs()
	b.ResetTimer()
	addr := uint64(0)
	for i := 0; i < b.N; i++ {
		req := c.SubmitRead(addr, c.Now())
		c.WaitFor(req)
		c.Release(req)
		if i%4 == 3 {
			c.SubmitWrite(addr^0x40000, c.Now())
		}
		// Mix strides so the stream produces row hits, misses, and bank
		// conflicts rather than a single open-row sweep.
		if i%7 == 0 {
			addr += 8 << 10
		} else {
			addr += 64
		}
	}
}

// BenchmarkChannelReadStream measures the event-driven scheduler (the
// default): clock jumps to the read queue's head, gated
// refresh/lazy-close, and chain-indexed row-hit picks. Run with
// -benchmem; the steady state should not allocate.
func BenchmarkChannelReadStream(b *testing.B) {
	benchStream(b, hdmrChannel())
}

// benchBurst drives the burst-friendly shape: several banks' worth of
// row streaks submitted together in bank-clustered order (each cluster
// is a run of sequential blocks in one row — consecutive rows land on
// different banks), then a wait on the newest. The scheduler drains
// cluster after cluster inside one WaitFor, re-walking the hot-bank
// list on every serve.
func benchBurst(b *testing.B, c *Channel) {
	const clusters, per = 8, 8
	row := uint64(c.cfg.RowBytes)
	blk := uint64(c.cfg.BlockBytes)
	b.ReportAllocs()
	b.ResetTimer()
	addr := uint64(0)
	var window [clusters * per]*Request
	for i := 0; i < b.N; i++ {
		at := c.Now()
		n := 0
		for cl := 0; cl < clusters; cl++ {
			a := addr + uint64(cl)*row
			for k := 0; k < per; k++ {
				window[n] = c.SubmitRead(a, at)
				a += blk
				n++
			}
		}
		c.WaitFor(window[n-1])
		for _, r := range window {
			c.Release(r)
		}
		addr += clusters * row // fresh rows next window
	}
}

// BenchmarkChannelBatchIssue measures the FR-FCFS row-hit pass on
// bank-clustered streaks: each pick finds the oldest arrived hit across
// the hot banks, and bank fairness caps every streak. Run with
// -benchmem; the steady state must not allocate (the alloc-gate pins
// this).
func BenchmarkChannelBatchIssue(b *testing.B) {
	benchBurst(b, hdmrChannel())
}

// BenchmarkChannelWriteDrain measures the write path on the node-shaped
// Hetero-DMR channel (writeback cache on, proactive cleaning from a stub
// LLC). One op submits a 64-request window with ~30% writes — every read
// probes both block tables, every write parks in the writeback cache or
// the write queue — then drains: the slow phase's write mode tops the
// queue up from the writeback cache and the cleaner, and every write
// retires through the write pick. Run with -benchmem; the steady state
// must not allocate (the alloc-gate pins this).
func BenchmarkChannelWriteDrain(b *testing.B) {
	cfg := nodeShapedConfig(ReplicationHeteroDMR, 1)
	cfg.CleanSource.(*stubCleaner).limit = 64
	c := MustNewChannel(cfg)
	rng := xrand.New(3)
	var window [64]*Request
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at := c.Now()
		n := 0
		for k := range window {
			addr := rng.Uint64n(1<<26) &^ 63
			if k%10 < 3 {
				c.SubmitWrite(addr, at)
				continue
			}
			window[n] = c.SubmitRead(addr, at)
			n++
		}
		c.WaitFor(window[n-1])
		for _, r := range window[:n] {
			c.Release(r)
		}
		c.Drain()
	}
}
