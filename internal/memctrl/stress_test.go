package memctrl

import (
	"testing"

	"repro/internal/dramspec"
	"repro/internal/xrand"
)

// stressChannel pushes randomized mixed traffic through a channel and
// checks cross-cutting invariants. The DRAM model underneath panics on
// any JEDEC-timing violation, so a clean pass is itself a correctness
// statement about the scheduler.
func stressChannel(t *testing.T, repl Replication, seed uint64) {
	t.Helper()
	cfg := trafficConfig(repl)
	cfg.Seed = seed
	c := MustNewChannel(cfg)
	stressTraffic(t, c, seed)

	s := c.Stats()
	if s.ReadCount != s.Reads+s.WriteForwards {
		t.Errorf("read accounting: count=%d dram=%d forwards=%d", s.ReadCount, s.Reads, s.WriteForwards)
	}
	if got := s.RowHits + s.RowMisses + s.RowConflicts; got != s.Reads+s.Writes {
		t.Errorf("row outcomes %d != reads+writes %d", got, s.Reads+s.Writes)
	}
	if repl.Replicated() && s.Writes > 0 && s.BroadcastWrites != s.Writes {
		t.Errorf("replicated design broadcast %d of %d writes", s.BroadcastWrites, s.Writes)
	}
	if !repl.Replicated() && s.BroadcastWrites != 0 {
		t.Errorf("baseline broadcast writes: %d", s.BroadcastWrites)
	}
	if repl.Fast() && s.Corrections != s.DetectedErrors {
		t.Errorf("corrections %d != detections %d", s.Corrections, s.DetectedErrors)
	}
	rq, wq, parked := c.QueueDepths()
	if rq != 0 || wq != 0 || parked != 0 {
		t.Errorf("queues not empty after drain: %d %d %d", rq, wq, parked)
	}
}

// stressTraffic drives stressChannel's seeded read-heavy stream (15%
// writes, waits on random pending reads) and drains the channel.
func stressTraffic(t *testing.T, c *Channel, seed uint64) {
	t.Helper()
	rng := xrand.New(seed)
	at := c.Now()
	var pending []*Request
	for i := 0; i < 4000; i++ {
		addr := rng.Uint64n(1<<28) &^ 63
		switch {
		case rng.Bool(0.15):
			c.SubmitWrite(addr, at)
		default:
			req := c.SubmitRead(addr, at)
			if req.Done == 0 {
				pending = append(pending, req)
			}
			if req.Done != 0 && req.Done < req.Arrive {
				t.Fatalf("forwarded read completed before it arrived: %+v", req)
			}
		}
		// Advance time irregularly; occasionally wait on a random pending
		// read to exercise the scheduling loop mid-stream.
		at += int64(rng.Intn(50)) * dramspec.Nanosecond
		if len(pending) > 32 {
			idx := rng.Intn(len(pending))
			done := c.WaitFor(pending[idx])
			if done < pending[idx].Arrive {
				t.Fatalf("read completed at %d before arrival %d", done, pending[idx].Arrive)
			}
			pending = append(pending[:idx], pending[idx+1:]...)
		}
	}
	for _, req := range pending {
		if done := c.WaitFor(req); done <= 0 {
			t.Fatal("read never completed")
		}
	}
	c.Drain()
}

func TestStressBaseline(t *testing.T)     { stressChannel(t, ReplicationNone, 1) }
func TestStressFMR(t *testing.T)          { stressChannel(t, ReplicationFMR, 2) }
func TestStressHeteroDMR(t *testing.T)    { stressChannel(t, ReplicationHeteroDMR, 3) }
func TestStressHeteroDMRFMR(t *testing.T) { stressChannel(t, ReplicationHeteroDMRFMR, 4) }

func TestStressManySeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed stress")
	}
	for seed := uint64(10); seed < 14; seed++ {
		stressChannel(t, ReplicationHeteroDMR, seed)
	}
}

// TestSlowPhaseRoundTrip drives a Hetero-DMR channel through full
// fast->slow->fast cycles and checks the mode machine's bookkeeping.
func TestSlowPhaseRoundTrip(t *testing.T) {
	spec := dramspec.TableII(dramspec.SettingSpec, dramspec.DDR4_3200, 800)
	fast := dramspec.TableII(dramspec.SettingFreqLatMargin, dramspec.DDR4_3200, 800)
	cfg := DefaultConfig(ReplicationHeteroDMR, spec, &fast)
	cfg.WriteBatch = 256 // small batch so phases cycle quickly
	c := MustNewChannel(cfg)

	at := c.Now()
	for i := 0; i < 3000; i++ {
		addr := uint64(i*131) % (1 << 26) &^ 63
		if i%4 == 0 {
			c.SubmitWrite(addr, at)
		} else {
			c.WaitFor(c.SubmitRead(addr, at))
		}
		at = c.Now()
	}
	c.Drain()
	s := c.Stats()
	if s.FreqSwitches < 3 {
		t.Fatal("no slow-phase round trips despite write pressure")
	}
	// Construction performs one switch up; after that every slow phase is
	// a down+up pair, so the total is odd.
	if s.FreqSwitches%2 != 1 {
		t.Errorf("unpaired frequency switches: %d (1 + 2 per slow phase)", s.FreqSwitches)
	}
	// After Drain the channel is back at the fast point with originals
	// parked.
	if !c.Rank(0).InSelfRefresh() || c.Rank(2).InSelfRefresh() {
		t.Error("rank states wrong after drain")
	}
	if c.Rank(2).ClockPS() != fast.Rate.ClockPS() {
		t.Error("copy ranks not at the fast clock after drain")
	}
	if s.FastPS <= 0 {
		t.Error("no fast-mode time accumulated")
	}
}
