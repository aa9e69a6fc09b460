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
			if c.wqBlocks.Len() == 0 {
				t.Fatal("no writes ever indexed; test is vacuous")
			}
			c.Drain()
			if c.writeQ.len() != 0 || c.wb.len() != 0 {
				t.Fatalf("drain left %d queued and %d parked writes",
					c.writeQ.len(), c.wb.len())
			}
			if n := c.wqBlocks.Len(); n != 0 {
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
// open row and every queued bank-3 write conflicts with it, each on a
// row of its own, so serving one opens a row no other write matches and
// the projection pass runs for every pick. Bank 5 is closed, so its
// write projects sooner and wins exactly when it falls inside the
// window. With retired > 0, that many bank-3 writes ahead of the window
// retire first; bank 5's write starts beyond the window and enters it
// only if the window edge advances past each retired write.
func TestWriteProjectionWindow(t *testing.T) {
	for _, tc := range []struct {
		conflicts, retired int
		wantBank5          bool
	}{
		{writeScanCap, 0, false},
		{writeScanCap - 1, 0, true},
		{writeScanCap + 1, 1, false},
		{writeScanCap, 1, true},
		{writeScanCap + 5, 5, false},
		{writeScanCap + 4, 5, true},
	} {
		cfg := trafficConfig(ReplicationNone)
		cfg.PageTimeout = 0 // keep bank 3's row open
		cfg.WritebackCacheBlocks = 0
		c := MustNewChannel(cfg)
		c.WaitFor(c.SubmitRead(addrAt(c, 0, 3, 10, 0), 0))
		at := c.Now()
		for i := 0; i < tc.conflicts; i++ {
			c.SubmitWrite(addrAt(c, 0, 3, 11+int64(i), 0), at)
		}
		c.SubmitWrite(addrAt(c, 0, 5, 20, 0), at)
		for !c.writeMode {
			c.step()
		}
		for served := 0; served <= tc.retired; served++ {
			if c.wHits.total != 0 {
				t.Fatalf("%+v: a queued write is a row hit before pick %d; the projection pass would not run", tc, served)
			}
			if c.ranks[0].Bank(5).OpenRow() == 20 {
				t.Fatalf("%+v: bank 5 served after %d picks, before the pick under test", tc, served)
			}
			for c.stats.Writes == uint64(served) {
				c.step()
			}
		}
		if c.stats.Writes != uint64(tc.retired+1) {
			t.Fatalf("%+v: served %d writes, want %d", tc, c.stats.Writes, tc.retired+1)
		}
		got5 := c.ranks[0].Bank(5).OpenRow() == 20
		if got5 != tc.wantBank5 {
			t.Errorf("%d conflicting writes ahead, %d retired: bank 5 picked = %v, want %v",
				tc.conflicts, tc.retired, got5, tc.wantBank5)
		}
	}
}

// TestReqQueueMatchesSlice drives a request queue with random pushes and
// removals against a slice kept in push order. After every operation the
// queue's head, tail and length agree with the slice; walking qnext from
// the head visits exactly the slice's requests with seq strictly
// increasing, and walking qprev from the tail visits them in reverse.
// Removals favor the head, as the oldest-first pass does, but reach
// every position, and the queue empties out repeatedly.
func TestReqQueueMatchesSlice(t *testing.T) {
	rng := xrand.New(7)
	var q reqQueue
	var want []*Request
	pushes := uint64(0)
	for i := 0; i < 20000; i++ {
		if len(want) == 0 || (len(want) < 200 && rng.Bool(0.5)) {
			r := &Request{}
			q.push(r)
			pushes++
			want = append(want, r)
		} else {
			j := 0
			if !rng.Bool(0.3) {
				j = rng.Intn(len(want))
			}
			r := want[j]
			q.remove(r)
			if r.qnext != nil || r.qprev != nil {
				t.Fatalf("op %d: a removed request keeps its queue links", i)
			}
			want = append(want[:j], want[j+1:]...)
		}
		if q.len() != len(want) || q.seq != pushes {
			t.Fatalf("op %d: len %d seq %d, want %d and %d", i, q.len(), q.seq, len(want), pushes)
		}
		if len(want) == 0 {
			if q.head != nil || q.tail != nil {
				t.Fatalf("op %d: an empty queue keeps a head or tail", i)
			}
			continue
		}
		if q.head != want[0] || q.tail != want[len(want)-1] {
			t.Fatalf("op %d: head or tail is not the oldest or newest request", i)
		}
		k := 0
		for r := q.head; r != nil; r = r.qnext {
			if k >= len(want) || r != want[k] {
				t.Fatalf("op %d: qnext walk diverges from push order at %d", i, k)
			}
			if r.qnext != nil && r.qnext.seq <= r.seq {
				t.Fatalf("op %d: seq %d follows seq %d", i, r.qnext.seq, r.seq)
			}
			k++
		}
		if k != len(want) {
			t.Fatalf("op %d: qnext walk visits %d of %d requests", i, k, len(want))
		}
		for r := q.tail; r != nil; r = r.qprev {
			if k--; k < 0 || r != want[k] {
				t.Fatalf("op %d: qprev walk diverges from push order at %d", i, k)
			}
		}
	}
}
