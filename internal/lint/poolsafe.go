package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/lint/analysis"
)

// PoolSafe enforces the lifetime discipline of the manually managed
// memory the hot path introduced (the request freelist and the intrusive
// chains — DESIGN.md "Hot path & allocation discipline"):
//
//  1. Use after release: once a pooled handle is passed to Release, no
//     later statement on the same straight-line path may touch it — the
//     channel may recycle it into an unrelated access at any moment.
//  2. Pool-scope escape: pooled handles must not be parked in state that
//     outlives the run that owns their freelist — package-level
//     variables, or fields of a type recycled through a sync.Pool.
//  3. Chain-node escape: intrusive links — the per-bank chains' next/prev
//     and the queues' qnext/qprev — may be traversed only inside the
//     owning package's scheduler; a link read must never be returned or
//     stored into package-level state.
//
// Pooled handles are recognized structurally — a pointer to a named
// struct carrying intrusive `next`/`prev` links of its own type (the
// shape of memctrl.Request) — so the analyzer needs no package list and
// works unchanged on its fixtures.
var PoolSafe = &analysis.Analyzer{
	Name: "poolsafe",
	Doc: `flag lifetime violations of pooled requests and intrusive chains

The request freelist, the request queues and the per-bank intrusive
chains trade garbage collection for manual lifetime rules. This analyzer
enforces them: no use of a handle after Release, no pooled handle stored
where it outlives its run scope, no intrusive chain or queue node
escaping the owning scheduler.`,
	Run: runPoolSafe,
}

// isPooledHandleType reports whether t is a pointer to a pooled request
// node: a named struct with intrusive next/prev links of type *itself.
func isPooledHandleType(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	var next, prev bool
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		fp, ok := f.Type().(*types.Pointer)
		if !ok {
			continue
		}
		if fn, ok := fp.Elem().(*types.Named); ok && fn.Obj() == named.Obj() {
			switch f.Name() {
			case "next":
				next = true
			case "prev":
				prev = true
			}
		}
	}
	return next && prev
}

// containsPooledHandle reports whether t structurally contains a pooled
// handle type without following named element types (so a slice of
// *cpu.Core, whose struct internally holds requests it releases itself,
// does not count — only direct containment does).
func containsPooledHandle(t types.Type) bool {
	switch t := t.(type) {
	case *types.Pointer:
		return isPooledHandleType(t)
	case *types.Slice:
		return containsPooledHandle(t.Elem())
	case *types.Array:
		return containsPooledHandle(t.Elem())
	case *types.Map:
		return containsPooledHandle(t.Key()) || containsPooledHandle(t.Elem())
	case *types.Chan:
		return containsPooledHandle(t.Elem())
	}
	return false
}

// isChainLinkSelector reports whether e reads an intrusive link of a
// pooled node: its chain's next/prev or its queue's qnext/qprev.
func isChainLinkSelector(info *types.Info, e ast.Expr) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	switch sel.Sel.Name {
	case "next", "prev", "qnext", "qprev":
	default:
		return false
	}
	tv, ok := info.Types[sel.X]
	if !ok {
		return false
	}
	return isPooledHandleType(tv.Type) ||
		(tv.Type != nil && isPooledHandleType(types.NewPointer(tv.Type)))
}

func runPoolSafe(pass *analysis.Pass) (interface{}, error) {
	pooledGlobals(pass)
	poolScratchFields(pass)
	for _, file := range pass.Files {
		if pass.IsTestFile(file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkUseAfterRelease(pass, fn.Body)
			checkChainEscape(pass, fn)
		}
	}
	return nil, nil
}

// pooledGlobals flags package-level variables typed to hold pooled
// handles: a handle parked in a global outlives the channel and freelist
// that own it, so the next run's recycle silently aliases it.
func pooledGlobals(pass *analysis.Pass) {
	for _, file := range pass.Files {
		if pass.IsTestFile(file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, name := range vs.Names {
					obj := pass.TypesInfo.Defs[name]
					if obj == nil || obj.Parent() != pass.Pkg.Scope() {
						continue
					}
					if containsPooledHandle(obj.Type()) {
						pass.Reportf(name.Pos(),
							"package-level variable %s holds pooled request handles, which outlive the freelist's run scope", name.Name)
					}
				}
			}
		}
	}
}

// poolScratchFields flags pooled-handle fields inside structs that are
// recycled through a sync.Pool in the same package: everything in such
// scratch must be resettable, and a raw request handle is not — its
// channel dies with the run while the scratch survives into the next
// one.
func poolScratchFields(pass *analysis.Pass) {
	// Collect the names of struct types used as sync.Pool elements:
	// sync.Pool{New: func() any { return new(T) / &T{} }}.
	elems := map[string]bool{}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			cl, ok := n.(*ast.CompositeLit)
			if !ok {
				return true
			}
			sel, ok := cl.Type.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Pool" {
				return true
			}
			if path, _, ok := selectorPkg(pass.TypesInfo, sel); !ok || path != "sync" {
				return true
			}
			for _, el := range cl.Elts {
				kv, ok := el.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				if k, ok := kv.Key.(*ast.Ident); !ok || k.Name != "New" {
					continue
				}
				ast.Inspect(kv.Value, func(m ast.Node) bool {
					switch m := m.(type) {
					case *ast.CallExpr: // new(T)
						if id, ok := m.Fun.(*ast.Ident); ok && id.Name == "new" && len(m.Args) == 1 {
							if t, ok := m.Args[0].(*ast.Ident); ok {
								elems[t.Name] = true
							}
						}
					case *ast.CompositeLit: // &T{} / T{}
						if id, ok := m.Type.(*ast.Ident); ok {
							elems[id.Name] = true
						}
					}
					return true
				})
			}
			return true
		})
	}
	if len(elems) == 0 {
		return
	}
	for _, file := range pass.Files {
		if pass.IsTestFile(file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok || !elems[ts.Name.Name] {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				for _, f := range st.Fields.List {
					tv, ok := pass.TypesInfo.Types[f.Type]
					if !ok || !containsPooledHandle(tv.Type) {
						continue
					}
					pos := f.Type.Pos()
					if len(f.Names) > 0 {
						pos = f.Names[0].Pos()
					}
					pass.Reportf(pos,
						"sync.Pool scratch type %s holds pooled request handles across runs; handles die with their channel and must not be parked in recycled scratch", ts.Name.Name)
				}
			}
		}
	}
}

// checkUseAfterRelease walks every block's statement list in order,
// tracking pooled-handle identifiers passed to a Release call; any later
// statement in the same list that mentions a released identifier (before
// it is reassigned) is flagged. The analysis is per straight-line
// statement list — branches are checked independently — which is exactly
// the shape of every real release site (WaitFor; Release; done).
func checkUseAfterRelease(pass *analysis.Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		var list []ast.Stmt
		switch n := n.(type) {
		case *ast.BlockStmt:
			list = n.List
		case *ast.CaseClause:
			list = n.Body
		case *ast.CommClause:
			list = n.Body
		default:
			return true
		}
		released := map[types.Object]token.Pos{} // object -> Release call pos
		for _, stmt := range list {
			// Reassignment revives the identifier before the use check, so
			// `req = pool.Get()` after a release is the sanctioned restart.
			if as, ok := stmt.(*ast.AssignStmt); ok {
				for _, lhs := range as.Lhs {
					if id, ok := lhs.(*ast.Ident); ok {
						if obj := pass.TypesInfo.Defs[id]; obj != nil {
							delete(released, obj)
						}
						if obj := pass.TypesInfo.Uses[id]; obj != nil {
							delete(released, obj)
						}
					}
				}
			}
			// Uses of already-released handles anywhere in this statement.
			if len(released) > 0 {
				reportReleasedUses(pass, stmt, released)
			}
			// New releases in this statement take effect for the ones after
			// it. Releases nested inside an inner block (a conditional
			// early-release path) are judged by that block's own scan, not
			// here — registering them would poison the fall-through path.
			ast.Inspect(stmt, func(m ast.Node) bool {
				if _, ok := m.(*ast.BlockStmt); ok && m != stmt {
					return false
				}
				call, ok := m.(*ast.CallExpr)
				if !ok || calleeBaseName(call.Fun) != "Release" || len(call.Args) != 1 {
					return true
				}
				id, ok := call.Args[0].(*ast.Ident)
				if !ok {
					return true
				}
				obj := pass.TypesInfo.Uses[id]
				if obj == nil || !isPooledHandleType(obj.Type()) {
					return true
				}
				released[obj] = call.Pos()
				return true
			})
		}
		return true
	})
}

// reportReleasedUses flags every mention of a released handle inside
// stmt, except the left side of an assignment that rebinds it (handled
// by the caller) and blank contexts.
func reportReleasedUses(pass *analysis.Pass, stmt ast.Stmt, released map[types.Object]token.Pos) {
	ast.Inspect(stmt, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.TypesInfo.Uses[id]
		if obj == nil {
			return true
		}
		if _, isReleased := released[obj]; isReleased {
			pass.Reportf(id.Pos(),
				"use of %s after Release: the channel may recycle the handle into an unrelated request at any time", id.Name)
			delete(released, obj) // one report per release is enough
		}
		return true
	})
}

// checkChainEscape flags intrusive next/prev reads that leave the owning
// scheduler: returned from a function, or stored into package-level
// state. Link manipulation through locals and fields (the chain push and
// remove idiom) stays legal.
func checkChainEscape(pass *analysis.Pass, fn *ast.FuncDecl) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if isChainLinkSelector(pass.TypesInfo, res) {
					pass.Reportf(res.Pos(),
						"intrusive chain node returned from %s escapes the owning scheduler; copy the fields the caller needs instead", fn.Name.Name)
				}
			}
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if i >= len(n.Lhs) || !isChainLinkSelector(pass.TypesInfo, rhs) {
					continue
				}
				if root := rootIdent(n.Lhs[i]); root != nil {
					if obj := pass.TypesInfo.Uses[root]; obj != nil && obj.Parent() == pass.Pkg.Scope() {
						pass.Reportf(rhs.Pos(),
							"intrusive chain node stored into package-level variable %s escapes the owning scheduler", root.Name)
					}
				}
			}
		}
		return true
	})
}
