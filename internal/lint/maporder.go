package lint

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/lint/analysis"
)

// MapOrder flags `range` over map values in packages that produce
// user-visible or checksummed output: Go randomizes map iteration order,
// so any map range that feeds rendered tables, accumulated floats, or
// serialized bytes breaks the byte-identical-output contract.
//
// The one permitted shape is the canonical fix itself — collecting keys
// into a slice to sort them:
//
//	for k := range m { keys = append(keys, k) }
//
// (a key-only range whose body is exactly one append of the key). Every
// other map range in a listed package must either iterate a sorted key
// slice instead or carry a //lint:allow maporder justification proving
// the order cannot reach output (e.g. commutative integer accumulation).
var MapOrder = &analysis.Analyzer{
	Name: "maporder",
	Doc: `flag map iteration in output-producing packages

Map iteration order is randomized per run; ranging over a map in a
package that renders reports or accumulates floating-point output makes
the output depend on it. Iterate a sorted key slice instead.`,
	Run: runMapOrder,
}

// mapOrderPkgs is the comma-separated list of package names the analyzer
// applies to. The default covers the packages whose output is rendered or
// checksummed (report, experiments, montecarlo, obs — metrics/trace
// exports must be byte-stable), the hot-path packages whose pooled
// scratch state and scheduling indexes feed the byte-identical
// simulation outputs (memctrl, node, cache, heterodmr, dram, rs — e.g.
// the controller's pending-write block index must never be iterated, and
// the event-driven scheduler's indexes must stay order-free), the Fig 17
// cluster scheduler (hpc, whose simulation loop must never depend on map
// order), plus the analyzer's own fixture package so
// `cmd/analyze ./internal/lint/testdata/src/maporder` exercises it
// without extra flags.
var mapOrderPkgs string

func init() {
	MapOrder.Flags.StringVar(&mapOrderPkgs, "pkgs",
		"report,experiments,montecarlo,obs,memctrl,node,cache,heterodmr,dram,rs,hpc,maporder",
		"comma-separated package names the map-iteration check applies to")
}

func runMapOrder(pass *analysis.Pass) (interface{}, error) {
	applies := false
	for _, n := range strings.Split(mapOrderPkgs, ",") {
		if strings.TrimSpace(n) == pass.Pkg.Name() {
			applies = true
			break
		}
	}
	if !applies {
		return nil, nil
	}
	for _, file := range pass.Files {
		if pass.IsTestFile(file.Pos()) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			tv, ok := pass.TypesInfo.Types[rs.X]
			if !ok {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				return true
			}
			if isKeyCollectionRange(rs) {
				return true
			}
			pass.Reportf(rs.X.Pos(),
				"range over map %s has non-deterministic order in output-producing package %s; iterate a sorted key slice instead",
				types.TypeString(tv.Type, types.RelativeTo(pass.Pkg)), pass.Pkg.Name())
			return true
		})
	}
	return nil, nil
}

// isKeyCollectionRange recognizes the canonical sorted-iteration prelude:
// a key-only range whose whole body appends the key to a slice.
func isKeyCollectionRange(rs *ast.RangeStmt) bool {
	if rs.Value != nil {
		return false
	}
	key, ok := rs.Key.(*ast.Ident)
	if !ok || key.Name == "_" {
		return false
	}
	if rs.Body == nil || len(rs.Body.List) != 1 {
		return false
	}
	assign, ok := rs.Body.List[0].(*ast.AssignStmt)
	if !ok || len(assign.Lhs) != 1 || len(assign.Rhs) != 1 {
		return false
	}
	call, ok := assign.Rhs[0].(*ast.CallExpr)
	if !ok || calleeBaseName(call.Fun) != "append" || len(call.Args) != 2 {
		return false
	}
	arg, ok := call.Args[1].(*ast.Ident)
	return ok && arg.Name == key.Name
}
