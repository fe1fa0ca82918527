package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// floatdetScope lists the packages (by path segment) whose merge
// functions combine per-shard or per-worker results. Those merges
// must be exact — integer counters, stats.IntSample — because
// floating-point accumulation is order-sensitive and the partition
// into shards/workers is exactly what varies.
var floatdetScope = []string{
	"sim", "network", "directory", "snoop", "processor", "system",
	"safetynet", "stats", "runner", "explore",
}

// FloatDet flags float accumulation inside merge functions: compound
// float assignment (+=, -=, *=, /=) and calls to float Observe
// methods (stats.Sample's Welford accumulator). Per-shard results
// merged through floats pick up rounding that depends on the shard
// count; the PR-5 contract routes all mergeable state through
// stats.IntSample and friends.
var FloatDet = &Analyzer{
	Name: "floatdet",
	Doc: `flags float64 accumulation on per-shard/per-worker merge paths

Floating-point addition is not associative: merging shard results
through float += or stats.Sample.Observe makes the totals depend on
the shard count. Merge paths use exact integer state (integer counters,
stats.IntSample) so every partition yields identical bytes.`,
	Run: runFloatDet,
}

func runFloatDet(pass *Pass) {
	if !inScope(pass.Pkg.Path(), floatdetScope) {
		return
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !isMergeFunc(fd.Name.Name) {
				continue
			}
			checkMergeBody(pass, fd)
		}
	}
}

// isMergeFunc reports whether a function name marks a shard/worker
// result combiner.
func isMergeFunc(name string) bool {
	lower := strings.ToLower(name)
	return strings.Contains(lower, "merge") || strings.Contains(lower, "combine")
}

func checkMergeBody(pass *Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.AssignStmt:
			switch e.Tok {
			case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
				for _, lhs := range e.Lhs {
					if isFloat(pass.TypesInfo.Types[lhs].Type) {
						pass.Reportf(e.TokPos,
							"float accumulation (%s) in merge function %s; per-shard merges must use exact integer state (stats.IntSample)",
							e.Tok, fd.Name.Name)
					}
				}
			}
		case *ast.CallExpr:
			sel, ok := e.Fun.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Observe" {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
			if !ok {
				return true
			}
			params := fn.Signature().Params()
			if params.Len() == 1 && isFloat(params.At(0).Type()) {
				pass.Reportf(e.Pos(),
					"float Observe in merge function %s re-accumulates through Welford state; merge exact integer samples instead",
					fd.Name.Name)
			}
		}
		return true
	})
}

func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}
