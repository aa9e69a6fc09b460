// Package analysis is a minimal, dependency-free re-implementation of the
// golang.org/x/tools/go/analysis vocabulary: an Analyzer is a named check
// with a Run function, a Pass hands the Run function one type-checked
// package, and diagnostics flow back through Pass.Report.
//
// The repository cannot vendor x/tools (the module is intentionally
// dependency-free), so this package keeps the same shape as the upstream
// API — Analyzer{Name, Doc, Run}, Pass{Fset, Files, Pkg, TypesInfo,
// Report}, Diagnostic{Pos, Message} — which keeps the analyzers in
// internal/lint portable to the real framework if a vendored x/tools ever
// becomes available.
package analysis

import (
	"flag"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics, CLI flags
	// (-name.flag=...) and //lint:allow suppression comments. It must be a
	// valid identifier.
	Name string
	// Doc is the help text; the first line is the summary.
	Doc string
	// Flags holds analyzer-specific configuration. The multichecker
	// registers each flag as -<name>.<flag>.
	Flags flag.FlagSet
	// Run applies the check to one package and reports findings via
	// pass.Report. The interface{} result exists for x/tools API
	// compatibility; the lint suite always returns (nil, nil) or an error.
	Run func(pass *Pass) (interface{}, error)
}

// Pass is the unit of work handed to an Analyzer: one type-checked
// package (or test variant of a package).
type Pass struct {
	Analyzer *Analyzer

	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report delivers one finding. The driver installs it.
	Report func(Diagnostic)
}

// Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos      token.Pos
	Category string
	Message  string
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.Report(Diagnostic{Pos: pos, Category: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// IsTestFile reports whether the file enclosing pos is a _test.go file.
// Several analyzers in the determinism suite exempt test-only code, where
// sequential execution makes loop-carried randomness harmless.
func (p *Pass) IsTestFile(pos token.Pos) bool {
	f := p.Fset.File(pos)
	if f == nil {
		return false
	}
	name := f.Name()
	const suffix = "_test.go"
	return len(name) >= len(suffix) && name[len(name)-len(suffix):] == suffix
}
