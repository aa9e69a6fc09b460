package experiments

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"repro/internal/memctrl"
	"repro/internal/node"
	"repro/internal/parallel"
	"repro/internal/runcache"
)

func quick(t *testing.T) *Suite {
	t.Helper()
	return New(Options{Seed: 1, Quick: true})
}

// entry returns the registry or ablation entry id.
func entry(t *testing.T, id string) Entry {
	t.Helper()
	e, err := ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// frontEnds counts the distinct front ends among the cells entries
// declare.
func frontEnds(s *Suite, entries []Entry) int {
	return len(parallel.GroupBy(s.plan(entries), func(c cell) (node.FrontEndKey, bool) {
		return node.FrontEndKeyOf(s.nodeConfig(c), c.prof), true
	}))
}

func TestRegistryCoversEveryPaperArtifact(t *testing.T) {
	want := []string{"tab1", "fig1", "fig2", "fig3", "fig4", "tab2", "fig5",
		"fig6", "fig11", "fig12", "fig12d", "fig13", "fig14", "fig15", "fig16", "fig17", "config"}
	reg := Registry()
	if len(reg) != len(want) {
		t.Fatalf("registry has %d entries, want %d", len(reg), len(want))
	}
	for i, id := range want {
		if reg[i].ID != id {
			t.Errorf("registry[%d] = %s, want %s", i, reg[i].ID, id)
		}
	}
}

func TestByID(t *testing.T) {
	for _, id := range []string{"fig12", "abl-ddr5"} {
		if _, err := ByID(id); err != nil {
			t.Error(err)
		}
	}
	if _, err := ByID("fig99"); err == nil {
		t.Error("unknown id accepted")
	}
}

func TestCharacterizationTables(t *testing.T) {
	s := quick(t)
	tab1 := s.Table1()
	if len(tab1.Rows) != 7 {
		t.Errorf("Table I rows %d, want 7 studies", len(tab1.Rows))
	}
	if !strings.Contains(tab1.Rows[0][3], "3006") {
		t.Errorf("Table I chip census row: %v", tab1.Rows[0])
	}

	fig1 := s.Fig1()
	if len(fig1.Rows) != 2 {
		t.Errorf("Fig 1 rows %d", len(fig1.Rows))
	}

	fig2 := s.Fig2()
	if len(fig2.Rows) == 0 {
		t.Error("Fig 2 empty")
	}
	// The 800 MT/s bucket should be the mode for major brands.
	bestRow, bestCount := "", -1
	for _, row := range fig2.Rows {
		n := 0
		for _, c := range row[1:4] {
			v, _ := strconv.Atoi(c)
			n += v
		}
		if n > bestCount {
			bestCount, bestRow = n, row[0]
		}
	}
	if bestRow != "800" {
		t.Errorf("modal margin bucket %s, want 800", bestRow)
	}

	if rows := len(s.Fig3().Rows); rows < 8 {
		t.Errorf("Fig 3 rows %d", rows)
	}
	if rows := len(s.Fig4().Rows); rows < 9 {
		t.Errorf("Fig 4 rows %d", rows)
	}
	tab2 := s.Table2()
	if len(tab2.Rows) != 4 {
		t.Errorf("Table II rows %d", len(tab2.Rows))
	}
	if tab2.Rows[3][1] != "4000MT/s" {
		t.Errorf("freq+lat rate %s", tab2.Rows[3][1])
	}
	if rows := len(s.Fig6().Rows); rows != 5 {
		t.Errorf("Fig 6 rows %d", rows)
	}
}

func TestFig11Table(t *testing.T) {
	tab := quick(t).Fig11()
	if len(tab.Rows) != 4 {
		t.Fatalf("Fig 11 rows %d", len(tab.Rows))
	}
}

func parse(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "%"), 64)
	if err != nil {
		t.Fatalf("cell %q: %v", cell, err)
	}
	return v
}

func TestFig12Shape(t *testing.T) {
	tab := entry(t, "fig12").Run(quick(t))
	if len(tab.Rows) != 10 { // 5 designs x 2 hierarchies
		t.Fatalf("Fig 12 rows %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		b0 := parse(t, row[2])
		b2 := parse(t, row[4])
		if b2 != 1 {
			t.Errorf("%s %s: >=50%% bucket %v, want 1.0 (falls back to baseline)", row[0], row[1], b2)
		}
		if b0 < 0.7 || b0 > 1.6 {
			t.Errorf("%s %s: <25%% bucket %v implausible", row[0], row[1], b0)
		}
	}
	// On the bandwidth-bound Hierarchy1, Hetero-DMR@0.8 must beat the
	// baseline and the 0.6 GT/s margin must not beat 0.8.
	var h1hd8, h1hd6 float64
	for _, row := range tab.Rows {
		if row[0] == "Hierarchy1" && row[1] == "Hetero-DMR@0.8GT/s" {
			h1hd8 = parse(t, row[2])
		}
		if row[0] == "Hierarchy1" && row[1] == "Hetero-DMR@0.6GT/s" {
			h1hd6 = parse(t, row[2])
		}
	}
	if h1hd8 < 1.03 {
		t.Errorf("H1 Hetero-DMR@0.8 = %v, want clear win", h1hd8)
	}
	if h1hd6 > h1hd8+0.02 {
		t.Errorf("0.6GT/s margin (%v) beats 0.8GT/s (%v)", h1hd6, h1hd8)
	}
}

func TestFig13EPIImproves(t *testing.T) {
	tab := entry(t, "fig13").Run(quick(t))
	for _, row := range tab.Rows {
		if row[0] == "Hierarchy1" && row[1] == "Hetero-DMR@0.8GT/s" {
			if r := parse(t, row[2]); r > 1.03 {
				t.Errorf("H1 Hetero-DMR EPI ratio %v, want <= ~1", r)
			}
		}
	}
}

func TestFig14OverheadSmall(t *testing.T) {
	tab := entry(t, "fig14").Run(quick(t))
	for _, row := range tab.Rows {
		if r := parse(t, row[3]); r > 1.12 {
			t.Errorf("%s access overhead ratio %v", row[0], r)
		}
	}
}

func TestFig15WriteShare(t *testing.T) {
	tab := entry(t, "fig15").Run(quick(t))
	for _, row := range tab.Rows {
		ws := parse(t, row[2])
		if ws < 0.03 || ws > 0.30 {
			t.Errorf("%s write share %v", row[0], ws)
		}
	}
}

func TestFig16EmulationTracksSimulation(t *testing.T) {
	tab := entry(t, "fig16").Run(quick(t))
	for _, row := range tab.Rows {
		sim := parse(t, row[2])
		emu := parse(t, row[3])
		if diff := sim - emu; diff > 0.25 || diff < -0.25 {
			t.Errorf("%s: simulated %v vs emulated %v diverge", row[0], sim, emu)
		}
	}
}

func TestFig17SystemShape(t *testing.T) {
	tab := entry(t, "fig17").Run(quick(t))
	if len(tab.Rows) != 5 { // 2 systems x 2 hierarchies + control
		t.Fatalf("Fig 17 rows %d", len(tab.Rows))
	}
	for _, row := range tab.Rows[:4] {
		exec := parse(t, row[2])
		turn := parse(t, row[4])
		if exec < 0.99 {
			t.Errorf("%s %s execution speedup %v below 1", row[0], row[1], exec)
		}
		if turn < exec-0.02 {
			t.Errorf("%s %s turnaround %v below execution %v", row[0], row[1], turn, exec)
		}
	}
}

func TestRunCaching(t *testing.T) {
	s := quick(t)
	fig15 := entry(t, "fig15")
	fig15.Run(s)
	n := s.CachedRuns()
	fig15.Run(s)
	if s.CachedRuns() != n {
		t.Error("repeated experiment re-ran simulations")
	}
}

func TestHierarchyWeightedSpeedups(t *testing.T) {
	s := quick(t)
	s.warm(s.weightedSpeedupCells(node.Hierarchy1()))
	a8, a6 := s.HeteroDMRWeightedSpeedup(node.Hierarchy1())
	if a8 <= 0 || a6 <= 0 {
		t.Fatalf("speedups %v %v", a8, a6)
	}
}

// TestUndeclaredCellReadPanics pins that a renderer reading a cell no
// entry declared fails naming the cell instead of simulating it off the
// plan: HeteroDMRWeightedSpeedup on an unwarmed suite reads the
// baseline of the first quick benchmark first.
func TestUndeclaredCellReadPanics(t *testing.T) {
	s := quick(t)
	h := node.Hierarchy1()
	defer func() {
		msg := fmt.Sprint(recover())
		for _, want := range []string{h.Name, memctrl.ReplicationNone.String(), s.benchmarks()[0].Name, "seed1", "not declared"} {
			if !strings.Contains(msg, want) {
				t.Errorf("panic %q does not name %q", msg, want)
			}
		}
		if s.CachedRuns() != 0 || s.Recordings() != 0 {
			t.Errorf("undeclared read materialized %d cells, %d recordings", s.CachedRuns(), s.Recordings())
		}
	}()
	s.HeteroDMRWeightedSpeedup(h)
}

// TestRunAllDeterministicAcrossWorkers pins the engine's headline
// guarantee: the rendered tables of a parallel RunAll are byte-identical
// to the sequential (Workers=1) run, because every layer derives its
// randomness positionally from Options.Seed rather than from scheduling
// order. At either worker count the plan records each of the quick
// suite's 12 front ends (6 benchmarks × 2 hierarchies) exactly once.
func TestRunAllDeterministicAcrossWorkers(t *testing.T) {
	render := func(workers int) string {
		s := New(Options{Seed: 7, Quick: true, Seeds: 1, Workers: workers})
		var b strings.Builder
		for _, tab := range s.RunAll() {
			b.WriteString(tab.String())
		}
		if fe := frontEnds(s, Registry()); s.Recordings() != fe || fe != 12 {
			t.Errorf("Workers=%d: %d front-end recordings for %d distinct front ends, want 12 and 12",
				workers, s.Recordings(), fe)
		}
		return b.String()
	}
	seq := render(1)
	par := render(4)
	if seq != par {
		sl, pl := strings.Split(seq, "\n"), strings.Split(par, "\n")
		for i := range sl {
			if i >= len(pl) || sl[i] != pl[i] {
				t.Fatalf("parallel output diverges at line %d:\n seq: %q\n par: %q", i, sl[i], pl[i])
			}
		}
		t.Fatalf("parallel output truncated: %d vs %d lines", len(sl), len(pl))
	}
}

// TestPrewarmSharesRunsAcrossFigures checks that figures share the
// suite's table: running a figure whose cells an earlier Run already
// warmed computes nothing new.
func TestPrewarmSharesRunsAcrossFigures(t *testing.T) {
	s := New(Options{Seed: 3, Quick: true, Workers: 4})
	entry(t, "fig12").Run(s)
	n := s.CachedRuns()
	if s.ComputedRuns() != n {
		t.Errorf("no persistent store attached, yet computed=%d != materialized=%d",
			s.ComputedRuns(), n)
	}
	entry(t, "fig13").Run(s) // same cells as Fig 12
	if s.CachedRuns() != n {
		t.Errorf("Fig 13 re-ran %d simulations Fig 12 already cached", s.CachedRuns()-n)
	}
}

// TestEntriesComputeNoCellWhileRendering runs every registry and
// ablation entry alone on a fresh quick suite and requires its renderer
// to read only cells the entry's plan warmed: a cell read without being
// declared panics during rendering. The suites share one persistent
// store, so each cell is simulated once across the entries.
func TestEntriesComputeNoCellWhileRendering(t *testing.T) {
	if testing.Short() {
		t.Skip("warms every entry's quick plan")
	}
	c, err := runcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range append(Registry(), Ablations()...) {
		s := New(Options{Seed: 1, Quick: true, Cache: c, CacheVersion: "test-v1"})
		s.warm(s.plan([]Entry{e}))
		warmed := s.CachedRuns()
		e.render(s)
		if got := s.CachedRuns(); got != warmed {
			t.Errorf("%s: rendering materialized %d cells the entry does not declare", e.ID, got-warmed)
		}
	}
}
