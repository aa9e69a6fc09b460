package memctrl

import (
	"testing"

	"repro/internal/dramspec"
	"repro/internal/xrand"
)

// FuzzAddrMapBijective fuzzes the XOR-hashed address mapping: for the
// baseline (unreplicated) channel every physical address must round-trip
// through decode — reconstructing the address from (rank, bank, row) plus
// the column and block-offset bits must give back exactly the input, so
// no two addresses can alias onto the same cell. For the replicated
// modes, decode must keep the folded rank inside the original-data
// region.
func FuzzAddrMapBijective(f *testing.F) {
	f.Add(uint64(0))
	f.Add(uint64(64))
	f.Add(uint64(1) << 33)
	f.Add(uint64(0xDEADBEEF))
	f.Add(^uint64(0))

	spec := dramspec.TableII(dramspec.SettingSpec, dramspec.DDR4_3200, 800)
	base := MustNewChannel(DefaultConfig(ReplicationNone, spec, nil))
	fast := dramspec.TableII(dramspec.SettingFreqLatMargin, dramspec.DDR4_3200, 800)
	replicated := []*Channel{
		MustNewChannel(DefaultConfig(ReplicationFMR, spec, nil)),
		MustNewChannel(DefaultConfig(ReplicationHeteroDMR, spec, &fast)),
		MustNewChannel(DefaultConfig(ReplicationHeteroDMRFMR, spec, &fast)),
	}

	f.Fuzz(func(t *testing.T, addr uint64) {
		// Bound the row index so the reconstruction below cannot overflow
		// int64 rows (the mapping is defined on realistic capacities).
		addr %= uint64(1) << 40

		c := base
		rank, bank, row := c.decode(addr)
		cfg := c.cfg
		if rank < 0 || rank >= cfg.Ranks || bank < 0 || bank >= cfg.BanksPerRank || row < 0 {
			t.Fatalf("decode(%#x) out of bounds: rank=%d bank=%d row=%d", addr, rank, bank, row)
		}
		// Invert: un-hash the bank, then repack [row|rank|bank|col] and
		// the block offset.
		ba := addr / uint64(cfg.BlockBytes)
		col := ba & (uint64(1)<<uint(c.colBits) - 1)
		offset := addr % uint64(cfg.BlockBytes)
		bankStored := uint64(bank ^ int(uint64(row)&uint64(cfg.BanksPerRank-1)))
		back := uint64(row)
		back = back<<uint(c.rankBits) | uint64(rank)
		back = back<<uint(c.bankBits) | bankStored
		back = back<<uint(c.colBits) | col
		back = back*uint64(cfg.BlockBytes) + offset
		if back != addr {
			t.Fatalf("address map not bijective: %#x -> (r%d b%d row%d col%d) -> %#x",
				addr, rank, bank, row, col, back)
		}

		// Replicated modes fold the rank into the original-data region;
		// the fold must stay in range and preserve bank/row.
		for _, rc := range replicated {
			rr, rb, rrow := rc.decode(addr)
			limit := rc.cfg.Ranks / 2
			if rc.cfg.Replication == ReplicationHeteroDMRFMR {
				limit = 1
			}
			if rr < 0 || rr >= limit {
				t.Fatalf("%v: folded rank %d outside original region [0,%d)", rc.cfg.Replication, rr, limit)
			}
			if rb != bank || rrow != row {
				t.Fatalf("%v: fold changed bank/row: (%d,%d) vs baseline (%d,%d)",
					rc.cfg.Replication, rb, rrow, bank, row)
			}
		}
	})
}

// FuzzChannelTraffic runs generated traffic through a channel and then
// drains it. The genome picks the replication mode, the seed (channel
// errors, addresses and the stub cleaner), the write share, the maximum
// arrival gap and the read/write queue capacities, bounded to [8, 256]
// and [5, 128]: 5 is the smallest write queue Config.Validate accepts
// (below it the write-pressure and read-preemption watermarks coincide
// and the channel would flip modes forever). The channel is the
// node-shaped one, so
// writeback parking, write-mode top-ups and Hetero-DMR phases all run.
// Any panic — the DRAM model panics on a timing violation — any
// conservation violation, or a pending-write table left non-empty by
// Drain fails the input.
func FuzzChannelTraffic(f *testing.F) {
	f.Add(uint8(0), uint64(1), uint8(60), uint16(40), uint8(255), uint8(127))
	f.Add(uint8(1), uint64(2), uint8(120), uint16(10), uint8(16), uint8(8))
	f.Add(uint8(2), uint64(3), uint8(200), uint16(5), uint8(64), uint8(32))
	f.Add(uint8(3), uint64(4), uint8(30), uint16(200), uint8(8), uint8(100))

	f.Fuzz(func(t *testing.T, mode uint8, seed uint64, writeShare uint8, gapNS uint16, readCap, writeCap uint8) {
		repl := Replication(mode % 4)
		cfg := nodeShapedConfig(repl, seed)
		cfg.Seed = seed
		cfg.ReadQueueCap = 8 + int(readCap)%249
		cfg.WriteQueueCap = 5 + int(writeCap)%124
		c := MustNewChannel(cfg)

		rng := xrand.New(seed)
		share := float64(writeShare) / 255
		at := c.Now()
		var pending []*Request
		for i := 0; i < 500; i++ {
			addr := rng.Uint64n(1<<24) &^ 63
			if rng.Bool(share) {
				c.SubmitWrite(addr, at)
			} else if req := c.SubmitRead(addr, at); req.Done == 0 {
				pending = append(pending, req)
			} else {
				c.Release(req)
			}
			at += int64(rng.Uint64n(uint64(gapNS)+1)) * dramspec.Nanosecond
			if len(pending) > 24 {
				k := rng.Intn(len(pending))
				c.WaitFor(pending[k])
				c.Release(pending[k])
				pending = append(pending[:k], pending[k+1:]...)
			}
		}
		for _, req := range pending {
			c.WaitFor(req)
			c.Release(req)
		}
		c.Drain()

		for _, v := range c.CheckConservation("fuzz") {
			t.Errorf("violation: %s", v)
		}
		if n := c.wqBlocks.Len(); n != 0 {
			t.Errorf("write-queue block table holds %d blocks after Drain", n)
		}
		if n := c.wb.index.Len(); n != 0 {
			t.Errorf("writeback cache index holds %d blocks after Drain", n)
		}
	})
}
