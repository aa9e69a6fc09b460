// Package analysistest runs an analyzer over fixture packages and checks
// its diagnostics against expectations written in the fixtures
// themselves, mirroring golang.org/x/tools/go/analysis/analysistest.
//
// A fixture line that should be flagged carries a trailing comment of the
// form
//
//	code() // want "regexp"
//
// (multiple quoted regexps mean multiple expected diagnostics on that
// line). Lines without a want comment must produce no diagnostics; both
// missing and unexpected diagnostics fail the test. //lint:allow
// suppression comments are honored exactly as the multichecker honors
// them, so fixtures can also pin the suppression syntax.
package analysistest

import (
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/lint/analysis"
	"repro/internal/lint/loader"
)

// TestData returns the absolute path of the calling test's testdata
// directory.
func TestData() string {
	p, err := filepath.Abs("testdata")
	if err != nil {
		panic(err)
	}
	return p
}

// expectation is one "want" regexp at a file line.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	text string
	met  bool
}

// wantRE matches one quoted expectation: a double-quoted Go string or a
// raw backquoted string.
var wantRE = regexp.MustCompile("\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`")

// Run loads each fixture package under dir/src, applies the analyzer,
// and reports expectation mismatches on t. It returns the surviving
// findings so callers can make extra assertions.
func Run(t *testing.T, dir string, a *analysis.Analyzer, pkgs ...string) []loader.Finding {
	t.Helper()
	var all []loader.Finding
	for _, pkg := range pkgs {
		fixture := filepath.Join(dir, "src", pkg)
		l, err := loader.New(fixture)
		if err != nil {
			t.Fatalf("loader: %v", err)
		}
		units, err := l.Load(fixture)
		if err != nil {
			t.Fatalf("loading fixture %s: %v", fixture, err)
		}
		if len(units) == 0 {
			t.Fatalf("fixture %s contains no packages", fixture)
		}
		findings, err := loader.RunAnalyzers(units, []*analysis.Analyzer{a})
		if err != nil {
			t.Fatalf("running %s on %s: %v", a.Name, fixture, err)
		}
		all = append(all, findings...)

		expects := collectWants(t, units)
		matched := make([]bool, len(findings))
		for i := range expects {
			e := &expects[i]
			for j, f := range findings {
				if matched[j] || f.Pos.Filename != e.file || f.Pos.Line != e.line {
					continue
				}
				if e.re.MatchString(f.Message) {
					matched[j] = true
					e.met = true
					break
				}
			}
			if !e.met {
				t.Errorf("%s:%d: no diagnostic matching %q", e.file, e.line, e.text)
			}
		}
		for j, f := range findings {
			if !matched[j] {
				t.Errorf("%s: unexpected diagnostic: %s", f.Pos, f.Message)
			}
		}
	}
	return all
}

// collectWants extracts every want expectation from the loaded fixture
// files.
func collectWants(t *testing.T, units []*loader.Package) []expectation {
	t.Helper()
	var out []expectation
	for _, u := range units {
		for _, file := range u.Files {
			for _, group := range file.Comments {
				for _, c := range group.List {
					text, ok := strings.CutPrefix(c.Text, "//")
					if !ok {
						continue
					}
					text, ok = strings.CutPrefix(strings.TrimSpace(text), "want ")
					if !ok {
						continue
					}
					pos := u.Fset.Position(c.Pos())
					for _, m := range wantRE.FindAllString(text, -1) {
						unq, err := strconv.Unquote(m)
						if err != nil {
							t.Fatalf("%s: bad want string %s: %v", pos, m, err)
						}
						re, err := regexp.Compile(unq)
						if err != nil {
							t.Fatalf("%s: bad want regexp %q: %v", pos, unq, err)
						}
						out = append(out, expectation{file: pos.Filename, line: pos.Line, re: re, text: unq})
					}
				}
			}
		}
	}
	return out
}
