package cpu

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/dramspec"
	"repro/internal/workload"
)

// BenchmarkCoreReplay times the shared-state half of a core: one op
// replays a 200k-instruction hpcg trace, recorded once through a 16KB L1
// and a 32KB L2, against a 64KB LLC and a Table IV channel. The core,
// LLC and channel carry over from op to op, and two untimed replays warm
// the channel's request freelist first, so the steady state — the MLP
// window sliding over every overlapped miss included — must not
// allocate.
func BenchmarkCoreReplay(b *testing.B) {
	l1 := cache.New(cache.Config{SizeBytes: 16 << 10, Ways: 8, BlockBytes: 64, LatencyPS: 3 * ClockPS})
	l2 := cache.New(cache.Config{SizeBytes: 32 << 10, Ways: 16, BlockBytes: 64, LatencyPS: 12 * ClockPS})
	var rec Recorder
	rec.Reset(l1, l2)
	var tr Trace
	prof := workload.ByName("hpcg")
	stream := prof.NewStream(1, 200_000)
	for {
		ev, ok := stream.Next()
		if !ok {
			break
		}
		rec.Record(ev, &tr)
	}
	l3 := cache.New(cache.Config{SizeBytes: 64 << 10, Ways: 16, BlockBytes: 64, LatencyPS: 22 * dramspec.Nanosecond})
	core := New(Config{L2LatencyPS: l2.Config().LatencyPS, L3: l3, Mem: &singleChannel{testMem()}, MLP: prof.MLP})
	replay := func() {
		rd := tr.Reader()
		for {
			r, ops, ok := rd.Next()
			if !ok {
				return
			}
			core.Replay(r, ops)
		}
	}
	replay()
	replay()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		replay()
	}
}
