package memuse

import "testing"

var fracSink Fractions

// BenchmarkGenerateFractions computes the Fig 1 fractions as the full
// suite does: Generate and Analyze 58K jobs at seed 1.
func BenchmarkGenerateFractions(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fracSink = Analyze(Generate(GeneratorConfig{Jobs: 58_000, Seed: 1}))
	}
}
