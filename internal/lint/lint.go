// Package lint is the static-analysis suite: seven analyzers that
// mechanically enforce the repository's byte-identical-output contract
// and the lifetime/unit rules of its manually managed hot path (DESIGN.md
// "Determinism contract" and "Lifetime & units analysis").
//
// The determinism analyzers:
//
//   - detrand: no math/rand and no time-seeded RNG construction outside
//     internal/xrand — all randomness flows from explicit xrand seeds.
//   - maporder: no map iteration in packages that produce user-visible or
//     checksummed output, except the canonical collect-keys-then-sort
//     idiom.
//   - sharedwrite: goroutine and parallel.ForEach/Map bodies may write
//     captured slices only through the disjoint-index idiom, and captured
//     maps and scalars not at all.
//   - seedflow: per-item RNGs inside loops and parallel bodies must be
//     derived positionally (xrand.NewAt/SplitMix), never from a
//     loop-carried generator (xrand.New of a stream draw, Rand.Split).
//
// The lifetime and unit analyzers:
//
//   - poolsafe: pooled request handles may not be used after Release,
//     parked in state outliving their run scope (package-level variables,
//     sync.Pool scratch), or leaked through intrusive chain links.
//   - unitflow: picosecond quantities and cycle counts may not meet in
//     additive arithmetic, and may meet multiplicatively only inside a
//     *PS-named conversion helper.
//   - faultsite: every declared fault-injection site (faultinject.Site
//     constant) must be referenced from an in-package test, or the
//     recovery path behind it is unverified.
//
// All analyzers skip _test.go files (faultsite reads them as evidence):
// test code runs sequentially under `go test` (and the race detector
// covers its goroutines), so the contracts bind non-test code. A finding
// is suppressed by a `//lint:allow <analyzer> <justification>` comment on
// the same line or the line above; the justification is mandatory — a
// bare directive suppresses nothing, and `cmd/analyze` audits directives
// that justify nothing or suppress nothing.
package lint

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/lint/analysis"
)

// All returns the full suite in stable (alphabetical) order; cmd/analyze
// -list and the CI multichecker both rely on this ordering.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{DetRand, FaultSite, MapOrder, PoolSafe, SeedFlow, SharedWrite, UnitFlow}
}

// ByName returns the analyzer with the given name, or nil.
func ByName(name string) *analysis.Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// pathIs reports whether an import path denotes the named package: an
// exact match or any "<prefix>/<name>" path. Matching by suffix keeps the
// analyzers working both on the real module paths (repro/internal/xrand)
// and on fixture copies.
func pathIs(path string, names ...string) bool {
	for _, n := range names {
		if path == n || strings.HasSuffix(path, "/"+n) {
			return true
		}
	}
	return false
}

// selectorPkg resolves a selector expression pkg.Name where pkg is an
// imported package, returning the package's import path and the selected
// name.
func selectorPkg(info *types.Info, sel *ast.SelectorExpr) (path, name string, ok bool) {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", "", false
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok {
		return "", "", false
	}
	return pn.Imported().Path(), sel.Sel.Name, true
}

// calleeBaseName returns the rightmost name of a call's callee
// ("rand.NewSource" -> "NewSource", "New" -> "New").
func calleeBaseName(fun ast.Expr) string {
	switch f := fun.(type) {
	case *ast.Ident:
		return f.Name
	case *ast.SelectorExpr:
		return f.Sel.Name
	case *ast.ParenExpr:
		return calleeBaseName(f.X)
	case *ast.IndexExpr: // generic instantiation f[T](...)
		return calleeBaseName(f.X)
	case *ast.IndexListExpr:
		return calleeBaseName(f.X)
	}
	return ""
}

// parallelHelperNames are the fan-out entry points of internal/parallel
// whose function-literal arguments execute concurrently.
var parallelHelperNames = map[string]bool{"ForEach": true, "Map": true, "MapN": true}

// isParallelCall reports whether call invokes one of the parallel
// helpers, either as parallel.X from an importing package or as a plain
// identifier inside package parallel itself.
func isParallelCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	switch f := call.Fun.(type) {
	case *ast.SelectorExpr:
		if path, name, ok := selectorPkg(pass.TypesInfo, f); ok {
			return pathIs(path, "parallel") && parallelHelperNames[name]
		}
	case *ast.Ident:
		return pass.Pkg.Name() == "parallel" && parallelHelperNames[f.Name]
	case *ast.IndexExpr:
		return isParallelCall(pass, &ast.CallExpr{Fun: f.X})
	case *ast.IndexListExpr:
		return isParallelCall(pass, &ast.CallExpr{Fun: f.X})
	}
	return false
}

// concurrentBodies collects the function literals in file whose bodies
// run concurrently: `go func(){...}` statements and literal arguments of
// the parallel helpers.
func concurrentBodies(pass *analysis.Pass, file *ast.File) []*ast.FuncLit {
	var out []*ast.FuncLit
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
				out = append(out, lit)
			}
		case *ast.CallExpr:
			if isParallelCall(pass, n) {
				for _, arg := range n.Args {
					if lit, ok := arg.(*ast.FuncLit); ok {
						out = append(out, lit)
					}
				}
			}
		}
		return true
	})
	return out
}

// definedWithin reports whether obj is declared inside the half-open
// source range of node (e.g. a closure's parameter or local).
func definedWithin(obj types.Object, node ast.Node) bool {
	return obj != nil && obj.Pos() != 0 && node.Pos() <= obj.Pos() && obj.Pos() < node.End()
}

// rootIdent unwraps selectors, indexes, derefs, and parens down to the
// base identifier of an assignable expression, if any.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.ParenExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}
