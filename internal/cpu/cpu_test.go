package cpu

import (
	"testing"
	"unsafe"

	"repro/internal/cache"
	"repro/internal/dramspec"
	"repro/internal/memctrl"
	"repro/internal/workload"
	"repro/internal/xrand"
)

func testMem() *memctrl.Channel {
	spec := dramspec.TableII(dramspec.SettingSpec, dramspec.DDR4_3200, 800)
	return memctrl.MustNewChannel(memctrl.DefaultConfig(memctrl.ReplicationNone, spec, nil))
}

type singleChannel struct{ ch *memctrl.Channel }

func (s *singleChannel) SubmitRead(addr uint64, at int64) *memctrl.Request {
	return s.ch.SubmitRead(addr, at)
}
func (s *singleChannel) SubmitWrite(addr uint64, at int64) { s.ch.SubmitWrite(addr, at) }
func (s *singleChannel) WaitFor(r *memctrl.Request) int64  { return s.ch.WaitFor(r) }
func (s *singleChannel) Release(r *memctrl.Request)        { s.ch.Release(r) }

// stepCore feeds a core one event at a time: Step records the event
// through the core's private L1/L2 and replays the record at once.
type stepCore struct {
	*Core
	rec Recorder
	tr  Trace
}

func (c *stepCore) Step(ev workload.Event) {
	c.tr.Reset()
	c.rec.Record(ev, &c.tr)
	c.Replay(c.tr.recs[0], c.tr.ops)
}

func testCore(t *testing.T) (*stepCore, *memctrl.Channel) {
	t.Helper()
	ch := testMem()
	l1 := cache.New(cache.Config{SizeBytes: 16 << 10, Ways: 8, BlockBytes: 64, LatencyPS: 3 * ClockPS})
	l2 := cache.New(cache.Config{SizeBytes: 64 << 10, Ways: 16, BlockBytes: 64, LatencyPS: 12 * ClockPS})
	l3 := cache.New(cache.Config{SizeBytes: 256 << 10, Ways: 16, BlockBytes: 64, LatencyPS: 22 * dramspec.Nanosecond})
	core := New(Config{ID: 0, L2LatencyPS: l2.Config().LatencyPS, L3: l3, Mem: &singleChannel{ch}, MLP: 4})
	sc := &stepCore{Core: core}
	sc.rec.Reset(l1, l2)
	return sc, ch
}

func TestNewValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("incomplete config accepted")
		}
	}()
	New(Config{})
}

func TestComputeAdvancesClock(t *testing.T) {
	c, _ := testCore(t)
	c.Step(workload.Event{Kind: workload.Compute, Instr: 400})
	want := int64(400) * ClockPS / IssueWidth
	if c.Now() != want {
		t.Errorf("clock = %d, want %d", c.Now(), want)
	}
	if c.Stats().Instructions != 400 {
		t.Errorf("instructions = %d", c.Stats().Instructions)
	}
}

func TestCommPassesUnscaled(t *testing.T) {
	c, _ := testCore(t)
	c.Step(workload.Event{Kind: workload.Comm, DurationPS: 5000})
	if c.Now() != 5000 || c.Stats().CommPS != 5000 {
		t.Errorf("comm: now=%d commPS=%d", c.Now(), c.Stats().CommPS)
	}
}

func TestDependentReadStalls(t *testing.T) {
	c, _ := testCore(t)
	before := c.Now()
	c.Step(workload.Event{Kind: workload.Read, Addr: 0x100000, Dependent: true})
	if c.Now() <= before {
		t.Error("dependent DRAM read did not stall the core")
	}
	if c.Stats().MemStallPS == 0 {
		t.Error("no stall accounted")
	}
	if c.Stats().L3Misses != 1 {
		t.Errorf("L3Misses = %d", c.Stats().L3Misses)
	}
}

func TestIndependentReadsOverlap(t *testing.T) {
	c, _ := testCore(t)
	// Fewer than MLP independent reads cost no core time.
	for i := 0; i < 3; i++ {
		c.Step(workload.Event{Kind: workload.Read, Addr: uint64(0x100000 + i*4096)})
	}
	if c.Now() != 0 {
		t.Errorf("independent reads under MLP advanced the clock to %d", c.Now())
	}
	// The 4th read (MLP=4) forces a wait on the oldest.
	c.Step(workload.Event{Kind: workload.Read, Addr: 0x200000})
	if c.Now() == 0 {
		t.Error("MLP saturation did not stall")
	}
}

func TestCachedReadIsFree(t *testing.T) {
	c, _ := testCore(t)
	c.Step(workload.Event{Kind: workload.Read, Addr: 0x40, Dependent: true})
	after := c.Now()
	c.Step(workload.Event{Kind: workload.Read, Addr: 0x40, Dependent: true})
	if c.Now() != after {
		t.Error("L1 hit cost core time")
	}
}

func TestFinishDrainsOutstanding(t *testing.T) {
	c, _ := testCore(t)
	c.Step(workload.Event{Kind: workload.Read, Addr: 0x300000})
	c.Finish()
	if c.Now() == 0 {
		t.Error("Finish did not wait for the outstanding read")
	}
}

func TestWritesArePosted(t *testing.T) {
	c, ch := testCore(t)
	for i := 0; i < 3; i++ {
		c.Step(workload.Event{Kind: workload.Write, Addr: uint64(0x400000 + i*4096)})
	}
	if c.Stats().DemandWrites != 3 {
		t.Errorf("DemandWrites = %d", c.Stats().DemandWrites)
	}
	// Write misses fetch the block (fetch-for-write reads).
	if c.Stats().L3Misses != 3 {
		t.Errorf("L3Misses = %d, want 3 fetch-for-write", c.Stats().L3Misses)
	}
	_ = ch
}

func TestDirtyEvictionReachesMemory(t *testing.T) {
	c, ch := testCore(t)
	// Dirty many distinct blocks to overflow every cache level.
	for i := 0; i < 30000; i++ {
		c.Step(workload.Event{Kind: workload.Write, Addr: uint64(i) * 64})
	}
	c.Finish()
	ch.Drain()
	if ch.Stats().Writes == 0 {
		t.Error("no writebacks reached DRAM despite cache overflow")
	}
}

func TestPrefetchersGenerateTraffic(t *testing.T) {
	c, _ := testCore(t)
	// A long sequential stream on stream id 1 triggers stride prefetching.
	for i := 0; i < 200; i++ {
		c.Step(workload.Event{Kind: workload.Read, Addr: uint64(0x800000 + i*64), Stream: 1})
	}
	if c.Stats().Prefetches == 0 {
		t.Error("sequential stream produced no prefetches")
	}
}

func TestPrefetchingReducesStalls(t *testing.T) {
	run := func(stream int) int64 {
		c, _ := testCore(t)
		for i := 0; i < 400; i++ {
			c.Step(workload.Event{Kind: workload.Read, Addr: uint64(0x800000 + i*64), Stream: stream, Dependent: true})
		}
		c.Finish()
		return c.Now()
	}
	withPF := run(1)  // stream id enables stride detection
	without := run(0) // anonymous accesses: next-line only
	if withPF >= without {
		t.Errorf("stride prefetching did not help: with=%d without=%d", withPF, without)
	}
}

func TestRecordIsEightBytes(t *testing.T) {
	if n := unsafe.Sizeof(Record{}); n != 8 {
		t.Errorf("Record is %d bytes, want 8", n)
	}
}

// TestNLSetMatchesMap drives the recorder's next-line usefulness set
// and a map with the same bounded predict/credit sequence: membership,
// the nlIssuedMax bound and every credit's removal must agree.
func TestNLSetMatchesMap(t *testing.T) {
	var r Recorder
	r.Reset(cache.New(cache.Config{SizeBytes: 1 << 10, Ways: 2, BlockBytes: 64, LatencyPS: ClockPS}),
		cache.New(cache.Config{SizeBytes: 2 << 10, Ways: 2, BlockBytes: 64, LatencyPS: ClockPS}))
	rng := xrand.New(3)
	m := map[uint64]bool{}
	capped := 0
	for i := 0; i < 200000; i++ {
		// A narrow key range forces long probe runs, collisions and
		// deletions inside runs; a few wide keys cover the hash spread.
		block := rng.Uint64n(6000)
		if rng.Bool(0.01) {
			block = rng.Uint64() >> 8
		}
		if rng.Bool(0.55) {
			r.predictNextLine(block)
			if len(m) < nlIssuedMax {
				m[block] = true
			} else if !m[block] {
				capped++
			}
		} else {
			r.creditNextLine(block * 64)
			delete(m, block)
		}
		if got, want := r.nl.Count(block) != 0, m[block]; got != want {
			t.Fatalf("op %d: block %d held = %v, want %v", i, block, got, want)
		}
		if r.nl.Len() != len(m) {
			t.Fatalf("op %d: set holds %d, map %d", i, r.nl.Len(), len(m))
		}
	}
	if capped == 0 {
		t.Fatal("no prediction met the nlIssuedMax bound; the bound is untested")
	}
	for k := range m {
		r.creditNextLine(k * 64)
	}
	if r.nl.Len() != 0 || !r.nextL1.Enabled() {
		t.Errorf("%d entries left after crediting all (prefetcher enabled: %v)", r.nl.Len(), r.nextL1.Enabled())
	}
}

// TestReplayMatchesStep records whole event streams once and replays
// them on fresh cores: clock and statistics must equal the same events
// fed through Step, which records and replays one event at a time.
func TestReplayMatchesStep(t *testing.T) {
	for _, name := range []string{"hpcg", "graph500", "lulesh"} {
		prof := workload.ByName(name)
		prof.FootprintBytes >>= 6
		stepped, _ := testCore(t)
		l1 := cache.New(cache.Config{SizeBytes: 16 << 10, Ways: 8, BlockBytes: 64, LatencyPS: 3 * ClockPS})
		l2 := cache.New(cache.Config{SizeBytes: 64 << 10, Ways: 16, BlockBytes: 64, LatencyPS: 12 * ClockPS})
		var rec Recorder
		rec.Reset(l1, l2)
		var tr Trace
		stream := prof.NewStream(9, 60_000)
		for {
			ev, ok := stream.Next()
			if !ok {
				break
			}
			stepped.Step(ev)
			rec.Record(ev, &tr)
		}
		l3 := cache.New(cache.Config{SizeBytes: 256 << 10, Ways: 16, BlockBytes: 64, LatencyPS: 22 * dramspec.Nanosecond})
		replayed := New(Config{L2LatencyPS: 12 * ClockPS, L3: l3, Mem: &singleChannel{testMem()}, MLP: 4})
		rd := tr.Reader()
		n := 0
		for {
			r, ops, ok := rd.Next()
			if !ok {
				break
			}
			replayed.Replay(r, ops)
			n++
		}
		if n != len(tr.recs) {
			t.Fatalf("%s: reader yielded %d of %d records", name, n, len(tr.recs))
		}
		stepped.Finish()
		replayed.Finish()
		if stepped.Now() != replayed.Now() || stepped.Stats() != replayed.Stats() {
			t.Errorf("%s: replay diverged from Step:\nstep:   %d %+v\nreplay: %d %+v",
				name, stepped.Now(), stepped.Stats(), replayed.Now(), replayed.Stats())
		}
		if replayed.Stats().L3Misses == 0 || replayed.Stats().Prefetches == 0 {
			t.Errorf("%s: degenerate replay %+v", name, replayed.Stats())
		}
	}
}

func TestRecordRangesPanic(t *testing.T) {
	for name, ev := range map[string]workload.Event{
		"address": {Kind: workload.Read, Addr: opBlockLimit * 64},
		"compute": {Kind: workload.Compute, Instr: 1 << 32},
		"comm":    {Kind: workload.Comm, DurationPS: -1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s out of range recorded", name)
				}
			}()
			l1 := cache.New(cache.Config{SizeBytes: 16 << 10, Ways: 8, BlockBytes: 64})
			l2 := cache.New(cache.Config{SizeBytes: 64 << 10, Ways: 16, BlockBytes: 64})
			var rec Recorder
			rec.Reset(l1, l2)
			var tr Trace
			rec.Record(ev, &tr)
		}()
	}
}
