package lint

import (
	"go/ast"
	"go/types"
)

// seedflowScope is nodeterm's scope plus the discovery engine: everywhere a
// deterministic contract (byte-identical restart merge, fleet-order replay)
// depends on which RNG stream a computation draws from.
var seedflowScope = map[string]bool{
	"tycos/internal/core":      true,
	"tycos/internal/mi":        true,
	"tycos/internal/knn":       true,
	"tycos/internal/lahc":      true,
	"tycos/internal/discovery": true,
}

// SeedFlow extends nodeterm from "no global RNG" to seed provenance: every
// rand source constructed — or re-seeded through (*rand.Rand).Seed — in the
// deterministic packages must be seeded with a value that went through the
// SplitMix64 derivation idiom (restartSeed, CandidateSeed, or any function
// that calls the mixer). Raw seeds and
// additive offsets (seed+k) produce streams whose low bits are correlated
// across nearby coordinates — exactly the failure AMIC-style estimator
// comparisons punish — and make two call sites that pick the same offset
// silently share a stream.
var SeedFlow = &Analyzer{
	Name: "seedflow",
	Doc: "rand sources in the deterministic packages must be seeded through " +
		"the SplitMix64 derivation idiom, not raw or offset seeds",
	Run: runSeedFlow,
}

// seedSourceCtors are the math/rand constructors whose argument is a seed.
var seedSourceCtors = map[string]bool{
	"NewSource": true, // math/rand
	"NewPCG":    true, // math/rand/v2
}

func runSeedFlow(pass *Pass) {
	if !seedflowScope[pass.Pkg.ImportPath] {
		return
	}
	info := pass.Pkg.Info
	pass.walkFiles(func(f *ast.File) {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(info, call)
			if fn == nil || fn.Pkg() == nil || !(seedSourceCtors[fn.Name()] || isRandReseed(fn)) {
				return true
			}
			switch fn.Pkg().Path() {
			case "math/rand", "math/rand/v2":
			default:
				return true
			}
			for _, arg := range call.Args {
				if !seedDerived(pass, info, arg) {
					pass.Report(call.Pos(),
						"rand.%s seed is not derived through the SplitMix64 idiom (restartSeed/CandidateSeed); raw or offset seeds correlate streams across nearby coordinates",
						fn.Name())
					return true
				}
			}
			return true
		})
	})
}

// isRandReseed reports whether fn is the (*rand.Rand).Seed method, which
// restarts a generator's stream from its argument just as a new source would.
func isRandReseed(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || fn.Name() != "Seed" {
		return false
	}
	recv := sig.Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	return ok && named.Obj().Name() == "Rand"
}

// seedDerived reports whether the seed expression is the result of a
// SplitMix64-derived function call (unwrapping conversions like int64(...)).
func seedDerived(pass *Pass, info *types.Info, e ast.Expr) bool {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
			continue
		case *ast.CallExpr:
			// Unwrap type conversions: uint64(derive(...)).
			if tv, ok := info.Types[x.Fun]; ok && tv.IsType() && len(x.Args) == 1 {
				e = x.Args[0]
				continue
			}
			fn := calleeFunc(info, x)
			return fn != nil && pass.Facts.DerivesSeed(fn)
		default:
			return false
		}
	}
}
