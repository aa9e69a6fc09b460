package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/lint/analysis"
)

// FaultSite guards the chaos harness: a fault site (a package-level
// constant or variable of type faultinject.Site) names an injection
// point whose recovery path is only trustworthy while a test actually
// arms it. A site nobody references from a test is an untested failure
// mode — injection there could corrupt output and no suite would notice.
//
// For each Site-typed package-level const or var declared in non-test
// code, the analyzer requires at least one reference from a _test.go
// file of the same package. Declaring a new fault site without a test
// exercising it turns the declaration into a finding.
var FaultSite = &analysis.Analyzer{
	Name: "faultsite",
	Doc: `require every declared fault-injection site to be exercised by an in-package test

Each package-level faultinject.Site constant names a point where the
chaos harness injects a failure; the recovery ladder behind it must be
pinned by a test in the same package, or the degradation path is
unverified and the finding points at the site's declaration.`,
	Run: runFaultSite,
}

// isFaultSiteType reports whether t is the Site type of a faultinject
// package (real module path or fixture copy).
func isFaultSiteType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Site" && obj.Pkg() != nil && pathIs(obj.Pkg().Path(), "faultinject")
}

func runFaultSite(pass *analysis.Pass) (interface{}, error) {
	// Site declarations in non-test code: package-level consts and vars
	// whose type resolves to faultinject.Site.
	decls := map[types.Object]token.Pos{}
	for _, file := range pass.Files {
		if pass.IsTestFile(file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || (gd.Tok != token.CONST && gd.Tok != token.VAR) {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, name := range vs.Names {
					obj := pass.TypesInfo.Defs[name]
					if obj != nil && isFaultSiteType(obj.Type()) {
						decls[obj] = name.Pos()
					}
				}
			}
		}
	}
	if len(decls) == 0 {
		return nil, nil
	}

	// A reference from any _test.go file of the unit proves the site's
	// recovery path is exercised.
	for id, obj := range pass.TypesInfo.Uses {
		if _, tracked := decls[obj]; tracked && pass.IsTestFile(id.Pos()) {
			delete(decls, obj)
		}
	}

	for obj, pos := range decls {
		pass.Reportf(pos,
			"fault site %s has no in-package test reference; its recovery path is unverified", obj.Name())
	}
	return nil, nil
}
