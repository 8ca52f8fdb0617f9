package lint

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// fingerprintInvariant is the explicit allow-list of exported core.Options
// fields that are result-invariant: changing them cannot change what a
// search returns, so journal fingerprints must NOT include them (a replayed
// result is equally valid under any value). Every entry is a claim pinned by
// a dynamic test; adding a field here without such a test is how replay
// poisoning sneaks back in.
var fingerprintInvariant = map[string]string{
	// Byte-identical across worker counts: TestParallelDeterminism /
	// TestRestartPlanDeterminism pin that the segment plan depends only on
	// (Seed, restarts), never on RestartWorkers.
	"RestartWorkers": "parallel plan is worker-count invariant",
	// Observers only watch: TestObserverDoesNotAlterSearch pins that results
	// are identical with and without one attached.
	"Observer": "observability must not alter results",
}

// FingerprintCov cross-references the fields of core.Options against what
// each fingerprint function actually hashes. The sweep, tycosd and discovery
// replay a journaled result whenever core.JournalFingerprint, the one key of
// all three, matches a request's, so any result-affecting Options field
// missing from the hash lets a journal written under one configuration
// satisfy a request made under another — silent replay poisoning. A field is
// counted as hashed when the function reads it off its Options parameter
// directly or forwards the whole parameter to a helper that does (the
// OptionsCoverage fact), as JournalFingerprint forwards it to hashOptions.
var FingerprintCov = &Analyzer{
	Name: "fingerprintcov",
	Doc: "every result-affecting core.Options field must be folded into every " +
		"journal fingerprint; result-invariant fields are allow-listed in-source",
	Run: runFingerprintCov,
}

// isFingerprintFunc matches the functions whose output keys journal replay:
// anything named like a fingerprint (core.JournalFingerprint), plus the
// canonical hashOptions helper.
func isFingerprintFunc(name string) bool {
	lower := strings.ToLower(name)
	return strings.Contains(lower, "fingerprint") || lower == "hashoptions"
}

func runFingerprintCov(pass *Pass) {
	info := pass.Pkg.Info
	pass.walkFiles(func(f *ast.File) {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !isFingerprintFunc(fd.Name.Name) {
				continue
			}
			param := optionsParam(info, fd)
			if param == nil {
				continue // hashes something other than core.Options
			}
			fn, ok := info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			covered := pass.Facts.OptionsCoverage(fn)
			missing := missingOptionFields(param.Type(), covered)
			for _, field := range missing {
				pass.Report(fd.Pos(),
					"fingerprint %s does not hash result-affecting core.Options field %s; a journaled result could replay across a change to it (allow-list it in fingerprintInvariant only with a test pinning invariance)",
					fd.Name.Name, field)
			}
		}
	})
}

// missingOptionFields returns the exported, result-affecting fields of the
// Options struct type that are absent from covered, sorted for stable
// diagnostics. Unexported fields cannot be set by callers and are excluded.
func missingOptionFields(t types.Type, covered map[string]bool) []string {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return nil
	}
	var missing []string
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if !f.Exported() {
			continue
		}
		if _, invariant := fingerprintInvariant[f.Name()]; invariant {
			continue
		}
		if !covered[f.Name()] {
			missing = append(missing, f.Name())
		}
	}
	sort.Strings(missing)
	return missing
}
