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
// rand source constructed — math/rand's or the LAHC acceptor's
// lahc.NewSource — or re-seeded through (*rand.Rand).Seed or
// (*lahc.Source).Seed in the deterministic packages must be seeded with a
// value that went through the SplitMix64 derivation idiom (restartSeed,
// CandidateSeed, or any function that calls the mixer). Raw seeds and
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

// seedSinks are the functions whose arguments are seeds, by package path:
// the rand source constructors and the re-seeding methods (see isReseed).
var seedSinks = map[string]map[string]bool{
	"math/rand":    {"NewSource": true},
	"math/rand/v2": {"NewPCG": true},
	// lahc.Source draws math/rand's stream and seeds it lazily.
	"tycos/internal/lahc": {"NewSource": true},
}

// reseedTypes name, by package path, the types whose Seed method restarts a
// stream from its argument just as a new source would.
var reseedTypes = map[string]string{
	"math/rand":           "Rand",
	"tycos/internal/lahc": "Source",
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
			if fn == nil || fn.Pkg() == nil || !(seedSinks[fn.Pkg().Path()][fn.Name()] || isReseed(fn)) {
				return true
			}
			// A package that defines a sink hands seeds to it as plumbing
			// (lahc.NewSource seeds through Source.Seed); its callers are
			// the ones checked.
			if fn.Pkg().Path() == pass.Pkg.ImportPath {
				return true
			}
			for _, arg := range call.Args {
				if !seedDerived(pass, info, arg) {
					pass.Report(call.Pos(),
						"%s.%s seed is not derived through the SplitMix64 idiom (restartSeed/CandidateSeed); raw or offset seeds correlate streams across nearby coordinates",
						fn.Pkg().Name(), fn.Name())
					return true
				}
			}
			return true
		})
	})
}

// isReseed reports whether fn is the Seed method of a reseedTypes type,
// which restarts a generator's stream from its argument just as a new
// source would.
func isReseed(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || fn.Name() != "Seed" {
		return false
	}
	recv := sig.Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	return ok && named.Obj().Name() == reseedTypes[fn.Pkg().Path()]
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
