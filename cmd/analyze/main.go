// Command analyze is the static-analysis multichecker: it runs the
// internal/lint suite (detrand, faultsite, maporder, poolsafe, seedflow,
// sharedwrite, unitflow) over the given package patterns and fails if
// any finding survives suppression.
//
// Usage:
//
//	go run ./cmd/analyze ./...                      # whole module (CI entry point)
//	go run ./cmd/analyze -json ./...                # machine-readable findings
//	go run ./cmd/analyze -list                      # describe the suite
//	go run ./cmd/analyze -baseline analyze_baseline.json ./...
//	go run ./cmd/analyze -show-suppressed ./...     # audit what //lint:allow absorbs
//	go run ./cmd/analyze -maporder.pkgs=report,experiments ./internal/...
//
// Exit status: 0 if no findings, 1 if any analyzer reported a fresh
// finding (or a //lint:allow directive failed the hygiene audit), 2 on
// usage or load errors.
//
// Findings are suppressed by a `//lint:allow <analyzer> <justification>`
// comment on the flagged line or the line above it; the justification is
// mandatory. Directives with no justification, or that suppress nothing,
// are themselves reported (as the pseudo-analyzer "allowaudit").
//
// With -baseline, findings whose (analyzer, file, message) triple appears
// in the given JSON file are grandfathered: printed as such but not
// counted toward the exit status. Line numbers are deliberately ignored
// so unrelated edits cannot resurrect a grandfathered finding.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/lint"
	"repro/internal/lint/loader"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array")
	list := flag.Bool("list", false, "describe the analyzers and exit")
	baselinePath := flag.String("baseline", "", "JSON file of grandfathered findings (report-only)")
	showSuppressed := flag.Bool("show-suppressed", false, "also print findings absorbed by //lint:allow directives")
	for _, a := range lint.All() {
		a.Flags.VisitAll(func(f *flag.Flag) {
			flag.Var(f.Value, a.Name+"."+f.Name, f.Usage)
		})
	}
	flag.Parse()

	if *list {
		listSuite(os.Stdout)
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	l, err := loader.New("")
	if err != nil {
		fatal(err)
	}
	pkgs, err := l.Load(patterns...)
	if err != nil {
		fatal(err)
	}
	if len(pkgs) == 0 {
		fatal(fmt.Errorf("no packages match %v", patterns))
	}
	findings, suppressed, audit, err := loader.RunAnalyzersAudited(pkgs, lint.All())
	if err != nil {
		fatal(err)
	}
	// Suppression hygiene failures count like findings: a directive that
	// justifies nothing or suppresses nothing must not linger.
	findings = append(findings, audit...)

	var baseline map[string]bool
	if *baselinePath != "" {
		if baseline, err = loadBaseline(*baselinePath); err != nil {
			fatal(err)
		}
	}
	fresh, grandfathered := splitBaseline(findings, baseline)

	if *jsonOut {
		out := fresh
		if *showSuppressed {
			out = append(out, suppressed...)
		}
		if out == nil {
			out = []loader.Finding{}
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fatal(err)
		}
	} else {
		for _, f := range fresh {
			fmt.Println(f)
		}
		for _, f := range grandfathered {
			fmt.Printf("%s [grandfathered]\n", f)
		}
		if *showSuppressed {
			for _, f := range suppressed {
				fmt.Printf("%s [suppressed]\n", f)
			}
		}
	}
	if len(fresh) > 0 {
		if !*jsonOut {
			fmt.Fprintf(os.Stderr, "analyze: %d finding(s)\n", len(fresh))
		}
		os.Exit(1)
	}
}

// listSuite writes one line per analyzer: name and doc summary, in the
// stable All() order (pinned by TestListSuite).
func listSuite(w io.Writer) {
	for _, a := range lint.All() {
		summary, _, _ := strings.Cut(a.Doc, "\n")
		fmt.Fprintf(w, "%-12s %s\n", a.Name, summary)
	}
}

// baselineKey identifies a finding for grandfathering: analyzer, file,
// and message, but not line/column, so surrounding edits cannot
// resurrect an old finding.
func baselineKey(f loader.Finding) string {
	return f.Analyzer + "\x00" + f.File + "\x00" + f.Message
}

// splitBaseline partitions findings into fresh ones (which fail the run)
// and grandfathered ones (present in the baseline; report-only).
func splitBaseline(findings []loader.Finding, baseline map[string]bool) (fresh, grandfathered []loader.Finding) {
	if len(baseline) == 0 {
		return findings, nil
	}
	for _, f := range findings {
		if baseline[baselineKey(f)] {
			grandfathered = append(grandfathered, f)
		} else {
			fresh = append(fresh, f)
		}
	}
	return fresh, grandfathered
}

// loadBaseline reads a JSON array of findings (the -json output format)
// and indexes it by baselineKey.
func loadBaseline(path string) (map[string]bool, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	var fs []loader.Finding
	if err := json.Unmarshal(data, &fs); err != nil {
		return nil, fmt.Errorf("baseline %s: %w", path, err)
	}
	m := make(map[string]bool, len(fs))
	for _, f := range fs {
		m[baselineKey(f)] = true
	}
	return m, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "analyze:", err)
	os.Exit(2)
}
