package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/lint/analysis"
)

// ScanParity guards the repository's dual-path hooks: every legacy or
// degraded code path kept alive as a differential oracle (the memory
// controller's noPool freelist bypass and noBatch row-hit-burst bypass)
// is only trustworthy while a test actually exercises it against the
// primary path. A hook nobody references from a test is a dead oracle — the
// legacy path can rot silently and the "differential" guarantee with it.
//
// For each hook-named struct field or package-level variable declared in
// non-test code, the analyzer requires at least one reference from a
// _test.go file of the same package. Deleting the differential test (or
// renaming it out of the package) turns the declaration into a finding.
//
// Hooks referenced only from an external foo_test package are outside
// the unit and must carry a //lint:allow scanparity justification naming
// the test.
var ScanParity = &analysis.Analyzer{
	Name: "scanparity",
	Doc: `require every dual-path hook to be exercised by an in-package test

Pooling and batching bypasses exist as differential oracles; each hook
field (noPool, noBatch, ...) must be referenced from a _test.go file in
the same package, or the dual path is untested and the finding points
at the hook's declaration.`,
	Run: runScanParity,
}

// scanParityHooks is the comma-separated list of hook names the check
// applies to: the channel's pooling and row-hit-batching bypasses.
var scanParityHooks string

func init() {
	ScanParity.Flags.StringVar(&scanParityHooks, "hooks",
		"noPool,noBatch",
		"comma-separated dual-path hook names that must be referenced from an in-package test")
}

func runScanParity(pass *analysis.Pass) (interface{}, error) {
	hooks := map[string]bool{}
	for _, n := range strings.Split(scanParityHooks, ",") {
		if n = strings.TrimSpace(n); n != "" {
			hooks[n] = true
		}
	}
	if len(hooks) == 0 {
		return nil, nil
	}

	// Hook declarations in non-test code: struct fields and package-level
	// variables whose name is on the hook list.
	decls := map[types.Object]token.Pos{}
	for _, file := range pass.Files {
		if pass.IsTestFile(file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			switch gd.Tok {
			case token.TYPE:
				for _, spec := range gd.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					for _, f := range st.Fields.List {
						for _, name := range f.Names {
							if hooks[name.Name] {
								if obj := pass.TypesInfo.Defs[name]; obj != nil {
									decls[obj] = name.Pos()
								}
							}
						}
					}
				}
			case token.VAR:
				for _, spec := range gd.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					for _, name := range vs.Names {
						if hooks[name.Name] {
							if obj := pass.TypesInfo.Defs[name]; obj != nil {
								decls[obj] = name.Pos()
							}
						}
					}
				}
			}
		}
	}
	if len(decls) == 0 {
		return nil, nil
	}

	// A reference from any _test.go file of the unit proves the dual path
	// is exercised. The loader type-checks in-package test files as part
	// of the same unit, so field selectors in tests resolve to the same
	// objects as the declarations above.
	for id, obj := range pass.TypesInfo.Uses {
		if _, tracked := decls[obj]; tracked && pass.IsTestFile(id.Pos()) {
			delete(decls, obj)
		}
	}

	for obj, pos := range decls {
		pass.Reportf(pos,
			"dual-path hook %s has no in-package test reference; the differential oracle it selects is untested", obj.Name())
	}
	return nil, nil
}
