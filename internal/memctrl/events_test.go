package memctrl

import (
	"testing"

	"repro/internal/dramspec"
	"repro/internal/xrand"
)

// TestWriteQueueIndexEmptyAfterDrain pins the write-queue block index's
// garbage collection: a block's slot is freed when its last queued write
// retires, so after Drain the table is empty rather than accumulating
// dead keys for every block ever written.
func TestWriteQueueIndexEmptyAfterDrain(t *testing.T) {
	for _, repl := range []Replication{ReplicationNone, ReplicationHeteroDMR} {
		t.Run(repl.String(), func(t *testing.T) {
			c := MustNewChannel(trafficConfig(repl))
			writeTraffic(c, 5)
			if c.wqBlocks.len() == 0 {
				t.Fatal("no writes ever indexed; test is vacuous")
			}
			c.Drain()
			if c.writeQ.len() != 0 || c.wb.len() != 0 {
				t.Fatalf("drain left %d queued and %d parked writes",
					c.writeQ.len(), c.wb.len())
			}
			if n := c.wqBlocks.len(); n != 0 {
				t.Errorf("wqBlocks holds %d blocks after Drain, want 0", n)
			}
		})
	}
}

// writeTraffic submits TestWriteQueueIndexEmptyAfterDrain's seeded
// write-heavy stream: every step a write, a quarter of them followed by
// a fire-and-forget read that forces mode switches mid-stream. It does
// not drain, so callers can inspect the indexes with writes still
// queued.
func writeTraffic(c *Channel, seed uint64) {
	rng := xrand.New(seed)
	at := c.Now()
	for i := 0; i < 4000; i++ {
		addr := rng.Uint64n(1<<26) &^ 63
		c.SubmitWrite(addr, at)
		if rng.Bool(0.25) {
			// Reads force write-mode switches so retirement runs
			// under both modes.
			c.Release(c.SubmitRead(rng.Uint64n(1<<26)&^63, at))
		}
		at += int64(rng.Intn(30)) * dramspec.Nanosecond
	}
}

// addrAt returns an address that decodes to (rank, bank, row) at column
// col on an unreplicated channel.
func addrAt(c *Channel, rank, bank int, row int64, col uint64) uint64 {
	stored := uint64(bank) ^ uint64(row)&uint64(c.cfg.BanksPerRank-1)
	ba := uint64(row)<<uint(c.rankBits) | uint64(rank)
	ba = ba<<uint(c.bankBits) | stored
	ba = ba<<uint(c.colBits) | col
	return ba * uint64(c.cfg.BlockBytes)
}

// TestWriteProjectionWindow pins the projection pass's window: a bank
// whose only write lies beyond the writeScanCap oldest live writes is
// not a candidate, however soon it could take a column. Bank 3 holds an
// open row and the queue's oldest writes conflict with it; bank 5 is
// closed, so its write projects sooner and wins exactly when it falls
// inside the window.
func TestWriteProjectionWindow(t *testing.T) {
	for _, tc := range []struct {
		conflicts int
		wantBank5 bool
	}{{writeScanCap, false}, {writeScanCap - 1, true}} {
		cfg := trafficConfig(ReplicationNone)
		cfg.PageTimeout = 0 // keep bank 3's row open
		cfg.WritebackCacheBlocks = 0
		c := MustNewChannel(cfg)
		c.WaitFor(c.SubmitRead(addrAt(c, 0, 3, 10, 0), 0))
		at := c.Now()
		for i := 0; i < tc.conflicts; i++ {
			c.SubmitWrite(addrAt(c, 0, 3, 11, uint64(i)), at)
		}
		c.SubmitWrite(addrAt(c, 0, 5, 20, 0), at)
		if c.wHits.total != 0 {
			t.Fatal("a queued write is a row hit; the projection pass would not run")
		}
		for !c.writeMode {
			c.step()
		}
		c.step() // serves one write
		if c.stats.Writes != 1 {
			t.Fatalf("served %d writes, want 1", c.stats.Writes)
		}
		got5 := c.ranks[0].Bank(5).OpenRow() == 20
		if got5 != tc.wantBank5 {
			t.Errorf("%d conflicting writes ahead: bank 5 picked = %v, want %v", tc.conflicts, got5, tc.wantBank5)
		}
	}
}
