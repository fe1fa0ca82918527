package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// walltimeScope lists the simulation packages (by path segment) where
// only virtual time (sim.Time) and the seeded sim.RNG are legal.
// runner is included because artifact naming and emission must be
// byte-reproducible under a fixed -run-id.
var walltimeScope = []string{
	"sim", "network", "directory", "snoop", "mem", "processor", "system",
	"safetynet", "explore", "workload", "experiments", "runner",
	"campaign",
}

// walltimeFuncs are the package time functions that read or depend on
// the wall clock. (time.Duration arithmetic and time.Time formatting
// are fine; observing the clock is not.)
var walltimeFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"Tick": true, "After": true, "AfterFunc": true,
	"NewTicker": true, "NewTimer": true,
}

// Walltime forbids wall-clock reads and the global math/rand source in
// simulation packages. Simulated components must take time from their
// sim.Kernel and randomness from an explicitly seeded sim.RNG;
// anything else silently breaks run-to-run reproducibility.
var Walltime = &Analyzer{
	Name: "walltime",
	Doc: `forbids time.Now/Since/Sleep and global math/rand in simulation packages

Simulation code observes only virtual time (sim.Time) and draws
randomness only from a seeded sim.RNG, so identical seeds replay
identical runs. Wall-clock reads and the process-global rand source
break that contract invisibly.`,
	Run: runWalltime,
}

func runWalltime(pass *Pass) {
	if !inScope(pass.Pkg.Path(), walltimeScope) {
		return
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			if fn.Signature().Recv() != nil {
				// Methods (e.g. on an explicitly seeded
				// *rand.Rand) carry their own state; the
				// contract targets ambient globals.
				return true
			}
			switch fn.Pkg().Path() {
			case "time":
				if walltimeFuncs[fn.Name()] {
					pass.Reportf(id.Pos(),
						"wall-clock time.%s in simulation package %s; use the kernel's virtual time (sim.Time)",
						fn.Name(), pass.Pkg.Path())
				}
			case "math/rand", "math/rand/v2":
				if strings.HasPrefix(fn.Name(), "New") {
					// rand.New/NewSource/NewZipf build explicitly
					// seeded local generators — deterministic, and
					// the only sanctioned use of the package here.
					return true
				}
				pass.Reportf(id.Pos(),
					"global %s.%s in simulation package %s; use a seeded sim.RNG",
					pkgLastSegment(fn.Pkg().Path()), fn.Name(), pass.Pkg.Path())
			}
			return true
		})
	}
}
