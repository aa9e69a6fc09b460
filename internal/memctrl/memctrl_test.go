package memctrl

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/dram"
	"repro/internal/dramspec"
)

func specPoint() dramspec.Config {
	return dramspec.TableII(dramspec.SettingSpec, dramspec.DDR4_3200, 800)
}

func fastPoint() dramspec.Config {
	return dramspec.TableII(dramspec.SettingFreqLatMargin, dramspec.DDR4_3200, 800)
}

func baselineChannel() *Channel {
	return MustNewChannel(DefaultConfig(ReplicationNone, specPoint(), nil))
}

func hdmrChannel() *Channel {
	fast := fastPoint()
	return MustNewChannel(DefaultConfig(ReplicationHeteroDMR, specPoint(), &fast))
}

func TestConfigValidation(t *testing.T) {
	good := DefaultConfig(ReplicationNone, specPoint(), nil)
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []func(c *Config){
		func(c *Config) { c.Ranks = 3 },
		func(c *Config) { c.Ranks = 0 },
		func(c *Config) { c.RanksPerMod = 3 },
		func(c *Config) { c.BanksPerRank = 5 },
		func(c *Config) { c.RowBytes = 100 },
		func(c *Config) { c.ReadQueueCap = 0 },
		func(c *Config) { c.Replication = ReplicationHeteroDMR }, // no Fast point
		func(c *Config) { c.Spec.Rate = 0 },
		func(c *Config) {
			fast := fastPoint()
			fast.Rate = 0
			c.Replication, c.Fast = ReplicationHeteroDMR, &fast
		},
		func(c *Config) { c.WritebackCacheBlocks = 100; c.WritebackCacheWays = 64 },
		func(c *Config) { c.Replication = Replication(9) },
		// Hetero-DMR+FMR's two copies need two ranks in the free half.
		func(c *Config) {
			fast := fastPoint()
			c.Replication, c.Fast = ReplicationHeteroDMRFMR, &fast
			c.Ranks, c.RanksPerMod = 2, 1
		},
	}
	for i, mutate := range bad {
		c := DefaultConfig(ReplicationNone, specPoint(), nil)
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
		if _, err := NewChannel(c); err == nil {
			t.Errorf("bad config %d: NewChannel returned no error", i)
		}
	}
	// A write queue of 1 to 4 livelocks: its write-pressure watermark
	// (7/8 of the cap) equals its read-preemption watermark (3/4). The
	// error names both; 5 is the smallest accepted cap.
	for wq := 1; wq <= 5; wq++ {
		c := DefaultConfig(ReplicationNone, specPoint(), nil)
		c.WriteQueueCap = wq
		err := c.Validate()
		if wq == 5 {
			if err != nil {
				t.Errorf("WriteQueueCap=5 rejected: %v", err)
			}
			continue
		}
		pressure, preempt := writeWatermarks(wq)
		if err == nil {
			t.Errorf("WriteQueueCap=%d accepted", wq)
		} else if msg := err.Error(); !strings.Contains(msg, fmt.Sprintf("watermark %d", pressure)) ||
			!strings.Contains(msg, fmt.Sprintf("watermark %d", preempt)) {
			t.Errorf("WriteQueueCap=%d: error %q does not name both watermarks", wq, msg)
		}
	}
}

func TestReplicationStrings(t *testing.T) {
	names := map[Replication]string{
		ReplicationNone:         "Commercial Baseline",
		ReplicationFMR:          "FMR",
		ReplicationHeteroDMR:    "Hetero-DMR",
		ReplicationHeteroDMRFMR: "Hetero-DMR+FMR",
	}
	for r, want := range names {
		if r.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(r), r.String(), want)
		}
	}
}

func TestBaselineSingleRead(t *testing.T) {
	c := baselineChannel()
	req := c.SubmitRead(0x10000, 0)
	done := c.WaitFor(req)
	if done <= 0 {
		t.Fatal("read never completed")
	}
	// A cold read costs roughly tRCD + tCL + burst + overhead.
	tm := specPoint().Timing
	floor := tm.TRCD + tm.TCL
	if done < floor {
		t.Errorf("read done at %d, below physical floor %d", done, floor)
	}
	if done > 200*dramspec.Nanosecond {
		t.Errorf("idle-channel read took %dns", done/dramspec.Nanosecond)
	}
	s := c.Stats()
	if s.Reads != 1 || s.RowMisses != 1 {
		t.Errorf("stats: %+v", s)
	}
}

func TestRowHitFasterThanConflict(t *testing.T) {
	c := baselineChannel()
	r1 := c.SubmitRead(0x0, 0)
	d1 := c.WaitFor(r1)
	// Same row, next block: row hit.
	r2 := c.SubmitRead(0x40, d1)
	d2 := c.WaitFor(r2)
	hitLat := d2 - d1
	// Different row, same bank: conflict (addresses differ only in row bits).
	cfg := c.Config()
	rowStride := uint64(cfg.RowBytes * cfg.BanksPerRank * cfg.Ranks)
	// The XOR bank hash perturbs the bank with the row's low bits, so jump
	// by banks*ranks rows to keep the hash bits identical.
	r3 := c.SubmitRead(rowStride*uint64(cfg.BanksPerRank), d2)
	d3 := c.WaitFor(r3)
	confLat := d3 - d2
	if hitLat >= confLat {
		t.Errorf("row hit latency %d !< conflict latency %d", hitLat, confLat)
	}
}

// TestRowHitStreakCap pins bank fairness (Table IV's "FR-FCFS with bank
// fairness"): a row miss waiting behind a run of row hits on another
// bank is served once that bank's streak reaches hitStreakCap. The read
// that opens the row starts the streak, so exactly hitStreakCap-1 of the
// queued hits go before the miss and the rest after it.
func TestRowHitStreakCap(t *testing.T) {
	c := baselineChannel()
	cfg := c.Config()
	open := uint64(10 * cfg.RowBytes * cfg.BanksPerRank * cfg.Ranks)
	if rank, bank, row := c.decode(open); rank != 0 || bank != 10 || row != 10 {
		t.Fatalf("open address decodes to rank %d bank %d row %d, want 0 10 10", rank, bank, row)
	}
	if _, bank, _ := c.decode(open + uint64(cfg.RowBytes)); bank != 11 {
		t.Fatalf("miss address decodes to bank %d, want 11", bank)
	}
	c.WaitFor(c.SubmitRead(open, 0))

	at := c.Now() + 1000
	miss := c.SubmitRead(open+uint64(cfg.RowBytes), at)
	hits := make([]*Request, 24)
	for i := range hits {
		hits[i] = c.SubmitRead(open+uint64((i+1)*cfg.BlockBytes), at)
	}
	c.Drain()

	before, after := 0, 0
	for _, h := range hits {
		switch {
		case h.Done < miss.Done:
			before++
		case h.Done > miss.Done:
			after++
		}
	}
	if before != hitStreakCap-1 || after != len(hits)-before {
		t.Errorf("%d hits before the miss and %d after, want hitStreakCap-1 = %d before and the rest after",
			before, after, hitStreakCap-1)
	}
	if s := c.Stats(); s.RowHits != uint64(len(hits)) || s.RowMisses != 2 {
		t.Errorf("stats: %d row hits, %d misses; want %d and 2", s.RowHits, s.RowMisses, len(hits))
	}
}

func TestWriteForwarding(t *testing.T) {
	c := baselineChannel()
	c.SubmitWrite(0x2000, 0)
	req := c.SubmitRead(0x2000, 10)
	if req.Done == 0 {
		t.Fatal("forwarded read has no completion time")
	}
	if got := req.Done - 10; got != ForwardLatency {
		t.Errorf("forward latency = %d, want %d", got, ForwardLatency)
	}
	if c.Stats().WriteForwards != 1 {
		t.Errorf("WriteForwards = %d", c.Stats().WriteForwards)
	}
}

func TestWritebackCacheAbsorbsWrites(t *testing.T) {
	c := baselineChannel()
	for i := 0; i < 100; i++ {
		c.SubmitWrite(uint64(i)*64, 0)
	}
	_, wq, parked := c.QueueDepths()
	if parked != 100 || wq != 0 {
		t.Errorf("parked=%d writeQ=%d, want 100/0", parked, wq)
	}
	// Re-dirtying the same blocks coalesces.
	for i := 0; i < 100; i++ {
		c.SubmitWrite(uint64(i)*64, 0)
	}
	if _, _, parked := c.QueueDepths(); parked != 100 {
		t.Errorf("coalescing failed: parked=%d", parked)
	}
}

func TestDrainFlushesEverything(t *testing.T) {
	c := baselineChannel()
	for i := 0; i < 300; i++ {
		c.SubmitWrite(uint64(i)*64, 0)
	}
	c.Drain()
	rq, wq, parked := c.QueueDepths()
	if rq != 0 || wq != 0 || parked != 0 {
		t.Errorf("after drain: rq=%d wq=%d parked=%d", rq, wq, parked)
	}
	if got := c.Stats().Writes; got != 300 {
		t.Errorf("Writes = %d, want 300", got)
	}
}

func TestBaselineNoBroadcast(t *testing.T) {
	c := baselineChannel()
	for i := 0; i < 50; i++ {
		c.SubmitWrite(uint64(i)*64, 0)
	}
	c.Drain()
	if c.Stats().BroadcastWrites != 0 {
		t.Error("baseline produced broadcast writes")
	}
}

func TestFMRBroadcastsWrites(t *testing.T) {
	c := MustNewChannel(DefaultConfig(ReplicationFMR, specPoint(), nil))
	for i := 0; i < 50; i++ {
		c.SubmitWrite(uint64(i)*64, 0)
	}
	c.Drain()
	s := c.Stats()
	if s.Writes != 50 {
		t.Errorf("Writes = %d, want 50 (broadcast costs one transaction)", s.Writes)
	}
	if s.BroadcastWrites != 50 {
		t.Errorf("BroadcastWrites = %d, want 50", s.BroadcastWrites)
	}
}

func TestHDMROriginalsInSelfRefreshDuringReadMode(t *testing.T) {
	c := hdmrChannel()
	// Originals (ranks 0,1) parked; copies (ranks 2,3) awake and fast.
	for i := 0; i < 2; i++ {
		if !c.Rank(i).InSelfRefresh() {
			t.Errorf("original rank %d not in self-refresh", i)
		}
	}
	for i := 2; i < 4; i++ {
		if c.Rank(i).InSelfRefresh() {
			t.Errorf("copy rank %d in self-refresh", i)
		}
		if c.Rank(i).ClockPS() != fastPoint().Rate.ClockPS() {
			t.Errorf("copy rank %d not at fast clock", i)
		}
	}
}

func TestHDMRReadsServedByCopyRanks(t *testing.T) {
	c := hdmrChannel()
	start := c.Now()
	for i := 0; i < 20; i++ {
		req := c.SubmitRead(uint64(i)*4096, start)
		c.WaitFor(req)
	}
	if c.Rank(0).Reads+c.Rank(1).Reads != 0 {
		t.Error("reads touched original ranks during read mode")
	}
	if c.Rank(2).Reads+c.Rank(3).Reads != 20 {
		t.Errorf("copy ranks served %d reads, want 20",
			c.Rank(2).Reads+c.Rank(3).Reads)
	}
}

func TestHDMRWriteModeSlowsAndWakesOriginals(t *testing.T) {
	c := hdmrChannel()
	// Fill the write queue past the high watermark to force write mode.
	cfg := c.Config()
	n := cfg.WritebackCacheBlocks + cfg.WriteQueueCap
	for i := 0; i < n; i++ {
		c.SubmitWrite(uint64(i)*64, c.Now())
	}
	c.Drain()
	s := c.Stats()
	if s.ModeSwitches < 2 {
		t.Errorf("ModeSwitches = %d, want >= 2 (enter+exit write mode)", s.ModeSwitches)
	}
	if s.FreqSwitches < 2 {
		t.Errorf("FreqSwitches = %d", s.FreqSwitches)
	}
	// All writes landed on original ranks (and broadcast to copies).
	if c.Rank(0).Writes+c.Rank(1).Writes == 0 {
		t.Error("no writes reached original ranks")
	}
	if s.BroadcastWrites != s.Writes {
		t.Errorf("broadcast %d of %d writes", s.BroadcastWrites, s.Writes)
	}
	// Back in read mode: originals parked again.
	if !c.Rank(0).InSelfRefresh() {
		t.Error("original rank awake after drain back to read mode")
	}
}

func TestHDMRFMRTwoCopies(t *testing.T) {
	fast := fastPoint()
	c := MustNewChannel(DefaultConfig(ReplicationHeteroDMRFMR, specPoint(), &fast))
	for i := 0; i < 30; i++ {
		c.SubmitWrite(uint64(i)*64, 0)
	}
	c.Drain()
	s := c.Stats()
	if s.Writes != 30 || s.BroadcastWrites != 30 {
		t.Errorf("writes=%d broadcast=%d", s.Writes, s.BroadcastWrites)
	}
	// Each broadcast wrote original + two copies.
	per := c.Rank(0).Writes
	if per != 30 || c.Rank(2).Writes != 30 || c.Rank(3).Writes != 30 {
		t.Errorf("rank writes: %d %d %d %d", c.Rank(0).Writes, c.Rank(1).Writes,
			c.Rank(2).Writes, c.Rank(3).Writes)
	}
	if c.Rank(1).Writes != 0 {
		t.Error("unused rank 1 received writes")
	}
}

func TestErrorInjectionTriggersCorrection(t *testing.T) {
	fast := fastPoint()
	cfg := DefaultConfig(ReplicationHeteroDMR, specPoint(), &fast)
	cfg.CopyErrorRate = 0.2 // absurdly high, to exercise the path
	c := MustNewChannel(cfg)
	at := c.Now()
	for i := 0; i < 200; i++ {
		req := c.SubmitRead(uint64(i)*4096, at)
		at = c.WaitFor(req)
	}
	s := c.Stats()
	if s.DetectedErrors == 0 || s.Corrections != s.DetectedErrors {
		t.Errorf("detected=%d corrections=%d", s.DetectedErrors, s.Corrections)
	}
	// Each correction costs two frequency switches plus spec accesses.
	if pen := c.correctionPenalty(); pen < 2*dramspec.FrequencySwitchLatency {
		t.Errorf("correction penalty %d below two switches", pen)
	}
}

func TestNoErrorsAtZeroRate(t *testing.T) {
	c := hdmrChannel()
	at := c.Now()
	for i := 0; i < 100; i++ {
		req := c.SubmitRead(uint64(i)*64, at)
		at = c.WaitFor(req)
	}
	if c.Stats().DetectedErrors != 0 {
		t.Error("errors detected with zero error rate")
	}
}

func TestFasterReadModeBeatsBaseline(t *testing.T) {
	// The core performance claim at the channel level: a random-ish read
	// stream completes sooner under Hetero-DMR's fast read mode than under
	// the baseline at spec.
	run := func(c *Channel) int64 {
		at := c.Now()
		start := at
		var last int64
		for i := 0; i < 500; i++ {
			req := c.SubmitRead(uint64(i*37)*4096, at)
			last = c.WaitFor(req)
			at = last
		}
		return last - start
	}
	base := run(baselineChannel())
	hdmr := run(hdmrChannel())
	if hdmr >= base {
		t.Errorf("Hetero-DMR read stream (%d) not faster than baseline (%d)", hdmr, base)
	}
	speedup := float64(base) / float64(hdmr)
	if speedup < 1.05 || speedup > 1.6 {
		t.Errorf("speedup %.3f outside plausible band [1.05, 1.6]", speedup)
	}
}

func TestRefreshHappens(t *testing.T) {
	c := baselineChannel()
	at := int64(0)
	// Submit sparse reads spanning well past tREFI.
	for i := 0; i < 50; i++ {
		req := c.SubmitRead(uint64(i)*4096, at)
		done := c.WaitFor(req)
		at = done + dramspec.Microsecond // spread the stream out
	}
	var refreshes uint64
	for i := 0; i < c.Config().Ranks; i++ {
		refreshes += c.Rank(i).Refreshes
	}
	if refreshes == 0 {
		t.Error("no refreshes over a multi-tREFI window")
	}
}

func TestAddressDecodeFolding(t *testing.T) {
	c := hdmrChannel()
	cfg := c.Config()
	seen := map[int]bool{}
	for i := 0; i < 1024; i++ {
		r, b, row := c.decode(uint64(i) * 64 * 131) // scatter
		if r >= cfg.Ranks/2 {
			t.Fatalf("original rank %d outside in-use module", r)
		}
		if b < 0 || b >= cfg.BanksPerRank || row < 0 {
			t.Fatalf("decode out of range: r=%d b=%d row=%d", r, b, row)
		}
		seen[r] = true
	}
	if len(seen) != 2 {
		t.Errorf("folded ranks used: %v, want both module-0 ranks", seen)
	}
}

func TestCopyRankMapping(t *testing.T) {
	c := hdmrChannel()
	if got := c.appendCopyRanks(nil, 0); len(got) != 1 || got[0] != 2 {
		t.Errorf("appendCopyRanks(nil, 0) = %v", got)
	}
	if got := c.appendCopyRanks(nil, 1); len(got) != 1 || got[0] != 3 {
		t.Errorf("appendCopyRanks(nil, 1) = %v", got)
	}
	base := baselineChannel()
	if got := base.appendCopyRanks(nil, 0); got != nil {
		t.Errorf("baseline appendCopyRanks(nil, 0) = %v", got)
	}
}

func TestLazyPageClose(t *testing.T) {
	c := baselineChannel()
	req := c.SubmitRead(0x0, 0)
	done := c.WaitFor(req)
	// Well beyond the page timeout, a read to another bank triggers the
	// lazy close of bank 0's row.
	far := done + 10*c.Config().PageTimeout
	req2 := c.SubmitRead(1<<20, far)
	c.WaitFor(req2)
	r0, b0, _ := c.decode(0x0)
	if c.Rank(r0).Bank(b0).OpenRow() != dram.RowClosed {
		t.Error("stale row not closed by hybrid page policy")
	}
}

func TestStatsReadLatencyAccounting(t *testing.T) {
	c := baselineChannel()
	req := c.SubmitRead(0x40, 0)
	done := c.WaitFor(req)
	s := c.Stats()
	if s.ReadCount != 1 || s.ReadLatencySumPS != done {
		t.Errorf("latency accounting: count=%d sum=%d done=%d", s.ReadCount, s.ReadLatencySumPS, done)
	}
}
