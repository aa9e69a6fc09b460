package workload

// The benchmark suites of §II-B. Each profile encodes the published
// character of the benchmark (see package comment); the absolute numbers
// were calibrated so the node simulation lands near the paper's Fig 5 and
// Fig 12 shapes (Linpack 1.24x from margins, memory-bound suites such as
// HPCG/Graph500 gaining most, ~15% average write share per Fig 15, ~13%
// average MPI share under Hierarchy1).

const (
	mb = 1 << 20
	gb = 1 << 30
)

// Profiles returns every benchmark profile, grouped by suite in the
// paper's presentation order: Linpack, HPCG, Graph500, CORAL2, LULESH,
// NPB.
func Profiles() []Profile {
	return []Profile{
		{
			Name: "linpack", Suite: "Linpack",
			AccessesPerKI: 25, WriteFraction: 0.13, ReuseFraction: 0.70,
			StreamFraction: 0.92, DependentFrac: 0.03, MLP: 24,
			WarmFraction: 0.40, WarmSetBytes: 3 * mb,
			FootprintBytes: 512 * mb, Streams: 8, CommShare: 0.08,
		},
		{
			Name: "hpcg", Suite: "HPCG",
			AccessesPerKI: 33, WriteFraction: 0.10, ReuseFraction: 0.58,
			StreamFraction: 0.85, DependentFrac: 0.07, MLP: 20,
			WarmFraction: 0.35, WarmSetBytes: 3 * mb,
			FootprintBytes: 1 * gb, Streams: 6, CommShare: 0.12,
		},
		{
			Name: "graph500", Suite: "Graph500",
			AccessesPerKI: 34, WriteFraction: 0.08, ReuseFraction: 0.45,
			StreamFraction: 0.20, DependentFrac: 0.25, MLP: 12,
			WarmFraction: 0.30, WarmSetBytes: 4 * mb,
			FootprintBytes: 2 * gb, Streams: 2, CommShare: 0.15,
		},
		{
			Name: "amg", Suite: "CORAL2",
			AccessesPerKI: 29, WriteFraction: 0.12, ReuseFraction: 0.60,
			StreamFraction: 0.70, DependentFrac: 0.10, MLP: 16,
			WarmFraction: 0.37, WarmSetBytes: 3 * mb,
			FootprintBytes: 1 * gb, Streams: 4, CommShare: 0.15,
		},
		{
			Name: "kripke", Suite: "CORAL2",
			AccessesPerKI: 25, WriteFraction: 0.18, ReuseFraction: 0.65,
			StreamFraction: 0.90, DependentFrac: 0.05, MLP: 20,
			WarmFraction: 0.40, WarmSetBytes: 3 * mb,
			FootprintBytes: 768 * mb, Streams: 6, CommShare: 0.12,
		},
		{
			Name: "quicksilver", Suite: "CORAL2",
			AccessesPerKI: 28, WriteFraction: 0.10, ReuseFraction: 0.50,
			StreamFraction: 0.30, DependentFrac: 0.17, MLP: 12,
			WarmFraction: 0.33, WarmSetBytes: 4 * mb,
			FootprintBytes: 3 * gb / 2, Streams: 2, CommShare: 0.12,
		},
		{
			Name: "pennant", Suite: "CORAL2",
			AccessesPerKI: 24, WriteFraction: 0.15, ReuseFraction: 0.65,
			StreamFraction: 0.80, DependentFrac: 0.07, MLP: 16,
			WarmFraction: 0.40, WarmSetBytes: 3 * mb,
			FootprintBytes: 512 * mb, Streams: 4, CommShare: 0.13,
		},
		{
			Name: "lulesh", Suite: "LULESH",
			AccessesPerKI: 21, WriteFraction: 0.18, ReuseFraction: 0.70,
			StreamFraction: 0.85, DependentFrac: 0.05, MLP: 16,
			WarmFraction: 0.43, WarmSetBytes: 3 * mb,
			FootprintBytes: 512 * mb, Streams: 6, CommShare: 0.10,
		},
		{
			Name: "npb.cg", Suite: "NPB",
			AccessesPerKI: 34, WriteFraction: 0.08, ReuseFraction: 0.55,
			StreamFraction: 0.50, DependentFrac: 0.15, MLP: 16,
			WarmFraction: 0.35, WarmSetBytes: 3 * mb,
			FootprintBytes: 1 * gb, Streams: 3, CommShare: 0.14,
		},
		{
			Name: "npb.mg", Suite: "NPB",
			AccessesPerKI: 29, WriteFraction: 0.12, ReuseFraction: 0.60,
			StreamFraction: 0.90, DependentFrac: 0.05, MLP: 20,
			WarmFraction: 0.37, WarmSetBytes: 3 * mb,
			FootprintBytes: 1 * gb, Streams: 6, CommShare: 0.12,
		},
		{
			Name: "npb.ft", Suite: "NPB",
			AccessesPerKI: 27, WriteFraction: 0.10, ReuseFraction: 0.62,
			StreamFraction: 0.90, DependentFrac: 0.04, MLP: 24,
			WarmFraction: 0.37, WarmSetBytes: 3 * mb,
			FootprintBytes: 1 * gb, Streams: 8, CommShare: 0.13,
		},
		{
			Name: "npb.bt", Suite: "NPB",
			AccessesPerKI: 20, WriteFraction: 0.15, ReuseFraction: 0.72,
			StreamFraction: 0.85, DependentFrac: 0.05, MLP: 16,
			WarmFraction: 0.45, WarmSetBytes: 3 * mb,
			FootprintBytes: 512 * mb, Streams: 5, CommShare: 0.12,
		},
	}
}

// ByName returns a single benchmark profile. It panics on an unknown name.
func ByName(name string) Profile {
	for _, p := range Profiles() {
		if p.Name == name {
			return p
		}
	}
	panic("workload: unknown benchmark " + name)
}
