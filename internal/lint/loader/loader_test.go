package loader

import (
	"go/ast"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/lint/analysis"
)

func TestFindModule(t *testing.T) {
	l, err := New("")
	if err != nil {
		t.Fatal(err)
	}
	if l.modPath != "repro" {
		t.Fatalf("module path = %q, want repro", l.modPath)
	}
	if filepath.Base(filepath.Dir(filepath.Dir(filepath.Dir(l.modRoot)))) == "" {
		t.Fatalf("module root %q not resolved", l.modRoot)
	}
}

// TestLoadExplicitDir loads one module package and checks its import
// path, type information, and that in-package test files are included.
func TestLoadExplicitDir(t *testing.T) {
	l, err := New("")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load("../../xrand")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	p := pkgs[0]
	if p.Path != "repro/internal/xrand" {
		t.Errorf("path = %q, want repro/internal/xrand", p.Path)
	}
	if p.Types.Name() != "xrand" {
		t.Errorf("package name = %q", p.Types.Name())
	}
	hasTest := false
	for _, f := range p.Files {
		name := p.Fset.File(f.Pos()).Name()
		if filepath.Base(name) == "xrand_test.go" {
			hasTest = true
		}
	}
	if !hasTest {
		t.Error("in-package test files were not loaded into the unit")
	}
	if p.Types.Scope().Lookup("NewAt") == nil {
		t.Error("type info missing NewAt")
	}
}

// TestWalkSkipsTestdata ensures /... expansion never descends into
// testdata (fixtures must only be loaded when named explicitly).
func TestWalkSkipsTestdata(t *testing.T) {
	l, err := New("")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load("../...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("no packages loaded")
	}
	for _, p := range pkgs {
		if filepath.Base(filepath.Dir(p.Dir)) == "src" {
			t.Errorf("testdata fixture %s loaded by walk", p.Dir)
		}
	}
}

// TestWalkEntersNestedModules pins that a walk from the module root
// does not stop at a nested go.mod: the benchmark harness, a module of
// its own, is walked and keyed under this module as repro/bench.
func TestWalkEntersNestedModules(t *testing.T) {
	l, err := New("")
	if err != nil {
		t.Fatal(err)
	}
	bench := filepath.Join(l.modRoot, "bench")
	if _, err := os.Stat(filepath.Join(bench, "go.mod")); err != nil {
		t.Fatalf("bench/ is not a nested module: %v", err)
	}
	ds, err := l.expand([]string{filepath.Join(l.modRoot, "...")})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(ds.walked, bench) {
		t.Fatalf("walk from %s skipped the nested module %s", l.modRoot, bench)
	}
	if path, err := l.importPathFor(bench); err != nil || path != "repro/bench" {
		t.Errorf("bench/ keyed as %q (%v), want repro/bench", path, err)
	}
}

func TestParseAllow(t *testing.T) {
	cases := []struct {
		text      string
		want      []string
		justified bool
	}{
		{"//lint:allow detrand", []string{"detrand"}, false},
		{"// lint:allow maporder integer sums are commutative", []string{"maporder"}, true},
		{"//lint:allow detrand,seedflow reason", []string{"detrand", "seedflow"}, true},
		{"//lint:allow", nil, false},
		{"// regular comment", nil, false},
		{"//lint:allowx detrand", nil, false},
	}
	for _, c := range cases {
		names, justified, ok := parseAllow(&ast.Comment{Text: c.text})
		if (len(c.want) > 0) != ok {
			t.Errorf("parseAllow(%q) ok = %v", c.text, ok)
			continue
		}
		if justified != c.justified {
			t.Errorf("parseAllow(%q) justified = %v, want %v", c.text, justified, c.justified)
		}
		if len(names) != len(c.want) {
			t.Errorf("parseAllow(%q) = %v, want %v", c.text, names, c.want)
			continue
		}
		for i := range names {
			if names[i] != c.want[i] {
				t.Errorf("parseAllow(%q) = %v, want %v", c.text, names, c.want)
			}
		}
	}
}

// TestSuppression runs a trivial analyzer over a fixture with allow
// comments on the same line and the line above, and checks both forms
// suppress while an unrelated name does not.
func TestSuppression(t *testing.T) {
	l, err := New("")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load("../testdata/src/maporder")
	if err != nil {
		t.Fatal(err)
	}
	probe := &analysis.Analyzer{
		Name: "maporder", // reuse the fixture's allow name
		Doc:  "probe",
		Run: func(pass *analysis.Pass) (interface{}, error) {
			ast.Inspect(pass.Files[0], func(n ast.Node) bool {
				if rs, ok := n.(*ast.RangeStmt); ok {
					pass.Reportf(rs.Pos(), "probe finding")
				}
				return true
			})
			return nil, nil
		},
	}
	findings, err := RunAnalyzers(pkgs, []*analysis.Analyzer{probe})
	if err != nil {
		t.Fatal(err)
	}
	// The fixture has ranges on several lines; exactly the one under the
	// //lint:allow maporder comment must be suppressed.
	for _, f := range findings {
		var file *token.File
		_ = file
		if f.Line == allowedRangeLine(t, pkgs[0]) {
			t.Errorf("finding on allowed line %d not suppressed", f.Line)
		}
	}
	if len(findings) == 0 {
		t.Fatal("probe produced no findings at all")
	}
}

// TestRunAnalyzersAudited pins the suppression-hygiene contract: a
// justified directive absorbs its finding (surfaced as suppressed), a
// bare directive suppresses nothing and is itself an audit finding, and
// a justified directive covering nothing is reported stale.
func TestRunAnalyzersAudited(t *testing.T) {
	l, err := New("")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load("testdata/allowaudit")
	if err != nil {
		t.Fatal(err)
	}
	probe := &analysis.Analyzer{
		Name: "probe",
		Doc:  "flags every call to probeTarget",
		Run: func(pass *analysis.Pass) (interface{}, error) {
			for _, f := range pass.Files {
				ast.Inspect(f, func(n ast.Node) bool {
					if call, ok := n.(*ast.CallExpr); ok {
						if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "probeTarget" {
							pass.Reportf(call.Pos(), "probe finding")
						}
					}
					return true
				})
			}
			return nil, nil
		},
	}
	findings, suppressed, audit, err := RunAnalyzersAudited(pkgs, []*analysis.Analyzer{probe})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 {
		t.Fatalf("findings = %v, want exactly the bare-directive one", findings)
	}
	if len(suppressed) != 1 || !suppressed[0].Suppressed {
		t.Fatalf("suppressed = %v, want exactly the justified-directive one, marked", suppressed)
	}
	var unjustified, stale int
	for _, f := range audit {
		if f.Analyzer != AuditName {
			t.Errorf("audit finding under %q, want %q", f.Analyzer, AuditName)
		}
		switch {
		case strings.Contains(f.Message, "no justification"):
			unjustified++
		case strings.Contains(f.Message, "suppresses no finding"):
			stale++
		}
	}
	if unjustified != 1 || stale != 1 {
		t.Fatalf("audit = %v, want one unjustified and one stale directive", audit)
	}
}

// allowedRangeLine locates the line of the range statement directly
// below the fixture's //lint:allow comment.
func allowedRangeLine(t *testing.T, p *Package) int {
	t.Helper()
	for _, file := range p.Files {
		for _, g := range file.Comments {
			for _, c := range g.List {
				if _, _, ok := parseAllow(c); ok {
					return p.Fset.Position(c.Pos()).Line + 1
				}
			}
		}
	}
	t.Fatal("fixture has no allow comment")
	return 0
}
