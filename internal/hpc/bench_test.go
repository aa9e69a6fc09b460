package hpc

import "testing"

var (
	benchSink *Result
	traceSink *Trace
)

// BenchmarkSimulateGrizzly runs the seed-1 Grizzly-scale trace (1490
// nodes, 58K jobs) through the four Fig 17 systems; one op is all four
// simulations.
func BenchmarkSimulateGrizzly(b *testing.B) {
	tr := GenerateGrizzlyTrace(testFrac, 1)
	defs := fig17Defs(GrizzlyNodes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, d := range defs {
			benchSink = Simulate(tr, d.cluster, d.policy, d.model, 1)
		}
	}
}

// BenchmarkGenerateGrizzlyTrace synthesizes the seed-1 Grizzly-scale
// trace (58K jobs on 1490 nodes) that BenchmarkSimulateGrizzly schedules.
func BenchmarkGenerateGrizzlyTrace(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		traceSink = GenerateGrizzlyTrace(testFrac, 1)
	}
}
