package experiments

import (
	"fmt"

	"repro/internal/parallel"
	"repro/internal/report"
)

// Entry pairs an experiment id with its driver: the renderer that builds
// the table and the node cells the renderer reads.
type Entry struct {
	ID     string
	Title  string
	render func(*Suite) *report.Table
	// cells lists every node cell render reads (nil: none). Suite.Run
	// warms them before any renderer runs, so renderers only look up.
	cells func(*Suite) []cell
}

// Run renders e alone on s: s.Run([]Entry{e})[0].
func (e Entry) Run(s *Suite) *report.Table { return s.Run([]Entry{e})[0] }

// Registry lists every reproducible table and figure in paper order.
func Registry() []Entry {
	return []Entry{
		{"tab1", "Table I: study scale", (*Suite).Table1, nil},
		{"fig1", "Fig 1: job memory utilization", (*Suite).Fig1, nil},
		{"fig2", "Fig 2: margin distribution", (*Suite).Fig2, nil},
		{"fig3", "Fig 3: module factors", (*Suite).Fig3, nil},
		{"fig4", "Fig 4: other factors", (*Suite).Fig4, nil},
		{"tab2", "Table II: margin settings", (*Suite).Table2, nil},
		{"fig5", "Fig 5: margin speedup", (*Suite).Fig5, (*Suite).fig5Cells},
		{"fig6", "Fig 6: error rates", (*Suite).Fig6, nil},
		{"fig11", "Fig 11: margin Monte Carlo", (*Suite).Fig11, nil},
		{"fig12", "Fig 12: node performance", (*Suite).Fig12, (*Suite).fig12Cells},
		{"fig12d", "Fig 12 detail: per-benchmark performance", (*Suite).Fig12Detail, (*Suite).fig12DetailCells},
		{"fig13", "Fig 13: energy per instruction", (*Suite).Fig13, (*Suite).fig12Cells},
		{"fig14", "Fig 14: DRAM access overhead", (*Suite).Fig14, (*Suite).fig14Cells},
		{"fig15", "Fig 15: bandwidth utilization", (*Suite).Fig15, (*Suite).fig15Cells},
		{"fig16", "Fig 16: silicon corroboration", (*Suite).Fig16, (*Suite).fig16Cells},
		{"fig17", "Fig 17: system-wide simulation", (*Suite).Fig17, (*Suite).fig17Cells},
		{"config", "Tables III-IV: configurations", (*Suite).TableIIIIV, nil},
	}
}

// ByID returns the registry or ablation entry with the given id.
func ByID(id string) (Entry, error) {
	for _, e := range append(Registry(), Ablations()...) {
		if e.ID == id {
			return e, nil
		}
	}
	return Entry{}, fmt.Errorf("experiments: unknown experiment %q", id)
}

// RunAll runs every registry experiment and returns the tables in paper
// order.
func (s *Suite) RunAll() []*report.Table { return s.Run(Registry()) }

// Run is the one way experiments run: it takes the union of the node
// cells entries declare, warms it as one plan (every front end recorded
// at most once), and only then renders the entries from the warm table
// on the worker pool, returning their tables in order. Every driver
// derives its randomness positionally from Options.Seed, so the tables
// are byte-identical for any worker count (including the sequential
// Workers=1 path).
func (s *Suite) Run(entries []Entry) []*report.Table {
	s.warm(s.plan(entries))
	return parallel.Map(s.opt.Workers, entries, func(_ int, e Entry) *report.Table {
		return e.render(s)
	})
}

// plan returns the union of the node cells entries declare, without
// duplicates, in entry order.
func (s *Suite) plan(entries []Entry) []cell {
	seen := map[runKey]bool{}
	var cells []cell
	for _, e := range entries {
		if e.cells == nil {
			continue
		}
		for _, c := range e.cells(s) {
			if k := c.key(); !seen[k] {
				seen[k] = true
				cells = append(cells, c)
			}
		}
	}
	return cells
}
