package experiments

import (
	"testing"

	"repro/internal/obs"
)

// TestCheckedDriversCleanAndByteStable runs the Fig 12 and Fig 17
// drivers with conservation checks and full instrumentation enabled, at
// Workers=1 and Workers=4, and requires zero violations plus rendered
// output byte-identical to an unchecked run: observability must never
// perturb results, at any worker count.
func TestCheckedDriversCleanAndByteStable(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick node matrix")
	}
	entries := []Entry{entry(t, "fig12"), entry(t, "fig17")}
	render := func(s *Suite) string {
		tabs := s.Run(entries)
		return tabs[0].String() + tabs[1].String()
	}
	base := render(New(Options{Seed: 1, Quick: true, Workers: 1}))

	for _, workers := range []int{1, 4} {
		s := New(Options{Seed: 1, Quick: true, Workers: workers, Check: true, Obs: obs.NewRegistry()})
		got := render(s)
		if got != base {
			t.Errorf("Workers=%d: checked run rendered different bytes than unchecked run", workers)
		}
		for _, v := range s.Violations() {
			t.Errorf("Workers=%d: violation: %s", workers, v)
		}
		// Every cell's channels report to a registry of the cell's own,
		// merged into the suite's as the cell lands.
		const cellMetric = "Hierarchy1/Commercial Baseline/amg/seed1/chan0/cmd/ACT"
		if s.opt.Obs.Snapshot().Counters[cellMetric] == 0 {
			t.Errorf("Workers=%d: no %s after an instrumented run", workers, cellMetric)
		}
	}
}

// TestViolationsSortedAndStable pins that the suite's violation list is
// deterministic: Violations always returns a sorted copy.
func TestViolationsSortedAndStable(t *testing.T) {
	s := New(Options{Seed: 1, Quick: true})
	s.addViolations([]obs.Violation{
		{Source: "b", Name: "n2", Detail: "d"},
		{Source: "a", Name: "n1", Detail: "d"},
	})
	vs := s.Violations()
	if len(vs) != 2 || vs[0].Source != "a" || vs[1].Source != "b" {
		t.Errorf("violations not sorted: %v", vs)
	}
}
