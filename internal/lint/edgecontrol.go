package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// edgecontrolScope lists the shard-partitioned packages (by path
// segment): the ones PR 5 re-homed onto per-shard kernels, where all
// cross-shard mutation must flow through boundary queues or edge
// control (sim.Shards At/After).
var edgecontrolScope = []string{
	"sim", "network", "directory", "snoop", "processor", "system", "safetynet",
}

// EdgeControl flags new package-level mutable state — non-const
// package vars of pointer, map, slice, chan, or struct type — in
// shard-partitioned packages. A package-level var is shared across
// every shard's kernel; mutating it from handler code races under
// parallel windows and, worse, makes results depend on shard
// interleaving even when the race is benign. State belongs on the
// per-shard component, and cross-shard effects belong in boundary
// queues or edge control. Init-time-only lookup tables need an
// explicit //detlint:allow edgecontrol annotation saying so.
var EdgeControl = &Analyzer{
	Name: "edgecontrol",
	Doc: `flags package-level mutable state in shard-partitioned packages

Shard-partitioned packages run one kernel per shard in parallel
windows; package vars are shared across all of them. Keep state on
per-shard components and route cross-shard mutation through boundary
queues or edge At/After.`,
	Run: runEdgeControl,
}

func runEdgeControl(pass *Pass) {
	if !inScope(pass.Pkg.Path(), edgecontrolScope) {
		return
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
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
					if name.Name == "_" {
						continue
					}
					obj := pass.TypesInfo.Defs[name]
					if obj == nil {
						continue
					}
					if kind := mutableKind(obj.Type()); kind != "" {
						pass.Reportf(name.Pos(),
							"package-level %s var %s is mutable state shared across shards; move it onto a per-shard component or route mutation through edge control",
							kind, name.Name)
					}
				}
			}
		}
	}
}

// mutableKind classifies types whose package-level vars the contract
// forbids, returning "" for permitted kinds. Basic values, arrays of
// basics, funcs, and interfaces (error sentinels) are tolerated; maps,
// slices, pointers, chans, and structs are shared mutable state.
func mutableKind(t types.Type) string {
	switch types.Unalias(t).Underlying().(type) {
	case *types.Map:
		return "map"
	case *types.Slice:
		return "slice"
	case *types.Pointer:
		return "pointer"
	case *types.Chan:
		return "chan"
	case *types.Struct:
		return "struct"
	}
	return ""
}
