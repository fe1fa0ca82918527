package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// pooledTypes names the hot-path types recycled through
// pool.FreeList, keyed "<declaring package's last path segment>.<type>".
// The unexported entries are already unreachable from other packages;
// they are listed so the contract survives a future export.
var pooledTypes = map[string]bool{
	"network.Message":    true, // network free list, Alloc/AllocMessage
	"coherence.Msg":      true, // protocol payload boxes, per-shard pools
	"directory.tbe":      true,
	"directory.busyInfo": true,
	"snoop.tbe":          true,
}

// PoolAlloc flags heap allocation (&T{...} or new(T)) of pooled types
// outside their declaring package. The simulator's hot paths are
// allocation-free because every Message and payload box cycles
// through a pool.FreeList; a stray literal in a consumer package
// silently regrows per-event garbage, and the benchmarks only catch
// it after the fact. Value literals (T{...} without &) stay legal —
// `*msg = coherence.Msg{...}` is the recycling idiom itself.
var PoolAlloc = &Analyzer{
	Name: "poolalloc",
	Doc: `flags heap allocation of pooled types outside their declaring package

network.Message and coherence.Msg recycle through free lists
(AllocMessage, per-shard payload pools). &T{} or new(T) in a consumer
package bypasses the pool and regrows hot-path allocations; request a
pooled object from the owning component instead.`,
	Run: runPoolAlloc,
}

func runPoolAlloc(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch e := n.(type) {
			case *ast.UnaryExpr:
				if e.Op != token.AND {
					return true
				}
				cl, ok := e.X.(*ast.CompositeLit)
				if !ok {
					return true
				}
				tv, ok := pass.TypesInfo.Types[cl]
				if !ok {
					return true
				}
				reportPooled(pass, e.Pos(), tv.Type, "&%s{} allocates pooled type outside %s; use its free-list allocator")
			case *ast.CallExpr:
				id, ok := e.Fun.(*ast.Ident)
				if !ok || id.Name != "new" || len(e.Args) != 1 {
					return true
				}
				if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); !isBuiltin {
					return true
				}
				tv, ok := pass.TypesInfo.Types[e.Args[0]]
				if !ok {
					return true
				}
				reportPooled(pass, e.Pos(), tv.Type, "new(%s) allocates pooled type outside %s; use its free-list allocator")
			}
			return true
		})
	}
}

func reportPooled(pass *Pass, pos token.Pos, t types.Type, format string) {
	named := namedType(t)
	if named == nil || named.Obj().Pkg() == nil {
		return
	}
	declPkg := named.Obj().Pkg()
	if declPkg == pass.Pkg {
		return // the owning package manages its own pool internals
	}
	key := pkgLastSegment(declPkg.Path()) + "." + named.Obj().Name()
	if !pooledTypes[key] {
		return
	}
	pass.Reportf(pos, format, key, declPkg.Path())
}
