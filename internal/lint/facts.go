package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// FactSet is the lightweight cross-function fact store the contract-aware
// analyzers share. The PR-4 analyzers judged every statement in isolation;
// the invariants added since need one hop of interprocedural knowledge —
// whether a callee blocks before returning (mutexspan), whether a seed
// expression went through the SplitMix64 finalizer (seedflow), and which
// core.Options fields a hash helper folds in on behalf of its caller
// (fingerprintcov). ComputeFacts walks every loaded package once, records
// per-function primitives plus the static call edges between functions, and
// resolves the transitive closure, so an analyzer can ask about a call
// target in another package (the loader type-checks packages in dependency
// order, and facts are keyed by *types.Func, which is shared across that
// load).
//
// The store is deliberately conservative in both directions: only statically
// resolved callees (*types.Func) propagate facts — calls through interface
// methods or function values contribute nothing — and function literals and
// go statements are excluded from a function's own behaviour (a spawned
// goroutine blocking does not block its spawner).
type FactSet struct {
	funcs map[*types.Func]*funcFacts
}

// funcFacts is what ComputeFacts knows about one function.
type funcFacts struct {
	// blocksPrimitive marks a body that itself contains a blocking operation:
	// a channel send/receive, a select with no default, a range over a
	// channel, a call into net/http, or an (*os.File).Sync.
	blocksPrimitive bool
	// derivesSeedPrimitive marks a SplitMix64-style mixer by name.
	derivesSeedPrimitive bool
	// optionsFields are the core.Options fields the body reads off its
	// core.Options parameter (empty when the function has no such parameter).
	optionsFields map[string]bool
	// optionsDelegates are callees the core.Options parameter is forwarded
	// to whole; their field coverage counts as this function's.
	optionsDelegates []*types.Func
	// callees are the statically resolved calls the body makes (function
	// literals and go statements excluded), for transitive propagation.
	callees []*types.Func

	// resolved memoization for the transitive queries.
	blocksResolved, blocksValue                       bool
	derivesResolved, derivesValue                     bool
	coverageResolved                                  bool
	coverageValue                                     map[string]bool
	blocksVisiting, derivesVisiting, coverageVisiting bool
}

// ComputeFacts collects function facts across all loaded packages.
func ComputeFacts(pkgs []*Package) *FactSet {
	fs := &FactSet{funcs: make(map[*types.Func]*funcFacts)}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				fs.funcs[obj] = collectFuncFacts(pkg.Info, fd)
			}
		}
	}
	return fs
}

// collectFuncFacts gathers one function's primitive facts and call edges.
func collectFuncFacts(info *types.Info, fd *ast.FuncDecl) *funcFacts {
	ff := &funcFacts{optionsFields: make(map[string]bool)}
	if strings.Contains(strings.ToLower(fd.Name.Name), "splitmix") {
		ff.derivesSeedPrimitive = true
	}
	param := optionsParam(info, fd)
	walkOwnCode(fd.Body, func(n ast.Node) {
		if isBlockingOp(info, n) {
			ff.blocksPrimitive = true
		}
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if param != nil && info.Uses[identOf(n.X)] == param {
				ff.optionsFields[n.Sel.Name] = true
			}
		case *ast.CallExpr:
			callee := calleeFunc(info, n)
			if callee == nil {
				return
			}
			ff.callees = append(ff.callees, callee)
			if param != nil {
				for _, arg := range n.Args {
					if info.Uses[identOf(arg)] == param {
						ff.optionsDelegates = append(ff.optionsDelegates, callee)
					}
				}
			}
		}
	})
	return ff
}

// walkOwnCode visits the nodes that execute on the function's own goroutine
// as part of its own activation: function literals (which may run later, or
// never) and go statements (which run elsewhere) are skipped. Select
// statements are visited as a unit — their communication guards belong to
// the select (which blocks exactly when it has no default clause), so the
// guards are never visited as standalone channel operations; the clause
// bodies run inline and are walked normally.
func walkOwnCode(body ast.Node, visit func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit, *ast.GoStmt:
			return false
		case *ast.SelectStmt:
			visit(n)
			for _, clause := range n.Body.List {
				cc, ok := clause.(*ast.CommClause)
				if !ok {
					continue
				}
				for _, stmt := range cc.Body {
					walkOwnCode(stmt, visit)
				}
			}
			return false
		}
		visit(n)
		return true
	})
}

func selectHasDefault(sel *ast.SelectStmt) bool {
	for _, clause := range sel.Body.List {
		if cc, ok := clause.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// isBlockingOp reports whether the node is one of the recognised blocking
// primitives: channel send/receive, a select with no default, a range over a
// channel, a call into net/http, or a file fsync.
func isBlockingOp(info *types.Info, n ast.Node) bool {
	switch n := n.(type) {
	case *ast.SendStmt:
		return true
	case *ast.UnaryExpr:
		if n.Op.String() == "<-" {
			return true
		}
	case *ast.SelectStmt:
		return !selectHasDefault(n)
	case *ast.RangeStmt:
		if tv, ok := info.Types[n.X]; ok {
			if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
				return true
			}
		}
	case *ast.CallExpr:
		callee := calleeFunc(info, n)
		if callee == nil {
			return false
		}
		if callee.Pkg() != nil && callee.Pkg().Path() == "net/http" {
			return true
		}
		if isFileSync(callee) {
			return true
		}
	}
	return false
}

// blockingOpKind names the blocking primitive for diagnostics; empty when
// the node is not one.
func blockingOpKind(info *types.Info, n ast.Node) string {
	if !isBlockingOp(info, n) {
		return ""
	}
	switch n := n.(type) {
	case *ast.SendStmt:
		return "a channel send"
	case *ast.UnaryExpr:
		return "a channel receive"
	case *ast.SelectStmt:
		return "a select with no default"
	case *ast.RangeStmt:
		return "a range over a channel"
	case *ast.CallExpr:
		callee := calleeFunc(info, n)
		if callee != nil && isFileSync(callee) {
			return "a file fsync (" + callee.Name() + ")"
		}
		if callee != nil {
			return "a net/http call (" + callee.Name() + ")"
		}
	}
	return "a blocking operation"
}

// isFileSync reports an (*os.File).Sync method object.
func isFileSync(fn *types.Func) bool {
	if fn.Name() != "Sync" || fn.Pkg() == nil || fn.Pkg().Path() != "os" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() != nil
}

// calleeFunc statically resolves a call's target function or method; nil for
// function values, interface dispatch the checker cannot pin, conversions
// and builtins.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// optionsParam returns the function's first parameter of type core.Options
// (or *core.Options), nil when there is none.
func optionsParam(info *types.Info, fd *ast.FuncDecl) *types.Var {
	if fd.Type.Params == nil {
		return nil
	}
	for _, field := range fd.Type.Params.List {
		tv, ok := info.Types[field.Type]
		if !ok || !isCoreOptions(tv.Type) {
			continue
		}
		for _, name := range field.Names {
			if v, ok := info.Defs[name].(*types.Var); ok {
				return v
			}
		}
	}
	return nil
}

// isCoreOptions reports the search core's Options struct (the fixture trees
// impersonate the same tycos/internal/core import path).
func isCoreOptions(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Options" && obj.Pkg() != nil &&
		strings.HasSuffix(obj.Pkg().Path(), "internal/core")
}

// Blocks reports whether the function, or anything it statically calls,
// performs a blocking operation before returning.
func (fs *FactSet) Blocks(fn *types.Func) bool {
	ff := fs.funcs[fn]
	if ff == nil {
		return false
	}
	if ff.blocksResolved {
		return ff.blocksValue
	}
	if ff.blocksVisiting {
		return false // recursion: the cycle alone cannot introduce blocking
	}
	ff.blocksVisiting = true
	v := ff.blocksPrimitive
	for _, c := range ff.callees {
		if v {
			break
		}
		v = fs.Blocks(c)
	}
	ff.blocksVisiting = false
	ff.blocksResolved, ff.blocksValue = true, v
	return v
}

// DerivesSeed reports whether the function's value is produced through the
// SplitMix64 derivation idiom (the function is a mixer, or calls one).
func (fs *FactSet) DerivesSeed(fn *types.Func) bool {
	ff := fs.funcs[fn]
	if ff == nil {
		return false
	}
	if ff.derivesResolved {
		return ff.derivesValue
	}
	if ff.derivesVisiting {
		return false
	}
	ff.derivesVisiting = true
	v := ff.derivesSeedPrimitive
	for _, c := range ff.callees {
		if v {
			break
		}
		v = fs.DerivesSeed(c)
	}
	ff.derivesVisiting = false
	ff.derivesResolved, ff.derivesValue = true, v
	return v
}

// OptionsCoverage returns the set of core.Options field names the function
// feeds into its output, directly or through helpers it forwards the whole
// Options value to. Nil when the function is unknown.
func (fs *FactSet) OptionsCoverage(fn *types.Func) map[string]bool {
	ff := fs.funcs[fn]
	if ff == nil {
		return nil
	}
	if ff.coverageResolved {
		return ff.coverageValue
	}
	if ff.coverageVisiting {
		return ff.optionsFields
	}
	ff.coverageVisiting = true
	covered := make(map[string]bool, len(ff.optionsFields))
	for f := range ff.optionsFields {
		covered[f] = true
	}
	for _, d := range ff.optionsDelegates {
		for f := range fs.OptionsCoverage(d) {
			covered[f] = true
		}
	}
	ff.coverageVisiting = false
	ff.coverageResolved, ff.coverageValue = true, covered
	return covered
}
