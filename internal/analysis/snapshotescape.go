package analysis

// snapshotescape extends immutable (the syntactic no-mutation check)
// interprocedurally. The persistent structures of paper §3.1 — treap,
// pmap, relation — are shared freely across workspace snapshots, so any
// internal slice or map that leaks out of those packages is a data race
// and a corruption of every snapshot that shares the node.
//
// Phase A (packages named treap/pmap/relation): compute a per-function
// escape summary — does any return path hand back an internal container,
// i.e. a slice/map-typed field of a type declared in the package, either
// directly, through a local alias, or through a call to another exposing
// function? Exported functions with an exposing summary are reported at
// the offending return, unless all they expose is a stored element: a
// field of a type named in storedElements, which a substrate hands out
// uncopied by contract (a relation's scans yield its stored tuples).
// Summaries (exported and not, elements included) go into Pass.Shared;
// packages load in dependency order, so callers always see the callee's
// finished summary.
//
// Phase B (every package): values obtained from an exposing function are
// tainted (and taint follows simple aliases); a write through a tainted
// container — index assignment, delete, IncDec on an element — is
// reported at the write.
//
// Known limits (docs/analysis.md): element-level aliasing (`p := &v[i]`)
// and append's backing-array sharing are not modeled, and taint does not
// propagate through a second function return.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// snapshotPackages names the persistent-structure packages whose
// internals are protected, matched by package name so fixtures can
// declare themselves as one.
var snapshotPackages = map[string]bool{
	"treap":    true,
	"pmap":     true,
	"relation": true,
}

// SnapshotEscapeAnalyzer is the interprocedural snapshot-internal escape
// check.
var SnapshotEscapeAnalyzer = &Analyzer{
	Name: "snapshotescape",
	Doc:  "flag internal slices/maps of persistent values escaping to writers",
	Run:  runSnapshotEscape,
}

// seSummaries is the cross-package map funcKey -> "a result exposes an
// internal container of a protected package".
func seSummaries(p *Pass) map[string]bool {
	m, ok := p.Shared["esc"].(map[string]bool)
	if !ok {
		m = map[string]bool{}
		p.Shared["esc"] = m
	}
	return m
}

func runSnapshotEscape(pass *Pass) error {
	summaries := seSummaries(pass)
	if snapshotPackages[pass.Pkg.Name()] {
		collectEscapeSummaries(pass, summaries)
	}
	checkTaintedWrites(pass, summaries)
	return nil
}

// storedElements names the container types a substrate stores as
// elements and hands out uncopied by contract: returning one is not a
// finding, but a caller's write through it still is (phase B).
var storedElements = map[string]bool{
	"logicblox/internal/tuple.Tuple": true,
}

// storedElement reports whether t is named in storedElements.
func storedElement(t types.Type) bool {
	n := namedOf(t)
	return n != nil && n.Obj().Pkg() != nil && storedElements[n.Obj().Pkg().Path()+"."+n.Obj().Name()]
}

// containerType reports whether t is a slice or map after unwrapping
// names and aliases.
func containerType(t types.Type) bool {
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Slice, *types.Map:
		return true
	}
	return false
}

// internalField reports whether e is a selector x.f where x has a named
// type declared in this package and f is container-typed — the shape of
// an internal-container read.
func internalField(pass *Pass, e ast.Expr) bool {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	tv, ok := pass.Info.Types[sel]
	if !ok || !containerType(tv.Type) {
		return false
	}
	owner := namedOf(pass.Info.Types[sel.X].Type)
	return owner != nil && owner.Obj().Pkg() == pass.Pkg
}

// collectEscapeSummaries runs phase A over one protected package.
func collectEscapeSummaries(pass *Pass, summaries map[string]bool) {
	type fnInfo struct {
		key     string
		decl    *ast.FuncDecl
		exposes bool
		// internal: some exposure is not a stored element (a finding when
		// exported).
		internal bool
		// aliased: local objects assigned from an internal field.
		aliased map[types.Object]bool
		// retCalls: return-position calls pending a callee summary, with
		// the return they appear in (for reporting).
		retCalls map[*types.Func]*ast.ReturnStmt
		// retAliases: return-position idents pending alias resolution.
		firstExpose *ast.ReturnStmt
	}
	// expose records that ret hands back a container, internal or a
	// stored element.
	expose := func(fi *fnInfo, ret *ast.ReturnStmt, internal bool) {
		fi.exposes = true
		if internal && !fi.internal {
			fi.internal = true
			fi.firstExpose = ret
		}
	}
	internals := map[string]bool{} // the internal half of the summaries, this package only
	var fns []*fnInfo
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pass.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			fi := &fnInfo{key: funcKey(obj), decl: fd, aliased: map[types.Object]bool{}, retCalls: map[*types.Func]*ast.ReturnStmt{}}
			// Local aliases of internal fields (flow-insensitive; iterated
			// below so chains of aliases resolve).
			for changed := true; changed; {
				changed = false
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					as, ok := n.(*ast.AssignStmt)
					if !ok || len(as.Lhs) != len(as.Rhs) {
						return true
					}
					for i := range as.Rhs {
						rhs := ast.Unparen(as.Rhs[i])
						src := internalField(pass, rhs)
						if !src {
							if id, ok := rhs.(*ast.Ident); ok {
								src = fi.aliased[pass.Info.Uses[id]]
							}
						}
						if !src {
							continue
						}
						if id, ok := ast.Unparen(as.Lhs[i]).(*ast.Ident); ok && id.Name != "_" {
							obj := pass.Info.Defs[id]
							if obj == nil {
								obj = pass.Info.Uses[id]
							}
							if obj != nil && !fi.aliased[obj] {
								fi.aliased[obj] = true
								changed = true
							}
						}
					}
					return true
				})
			}
			// Return paths.
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				ret, ok := n.(*ast.ReturnStmt)
				if !ok {
					return true
				}
				for _, res := range ret.Results {
					res = ast.Unparen(res)
					element := storedElement(pass.Info.Types[res].Type)
					switch {
					case internalField(pass, res):
						expose(fi, ret, !element)
					default:
						if id, ok := res.(*ast.Ident); ok && fi.aliased[pass.Info.Uses[id]] {
							expose(fi, ret, !element)
						} else if call, ok := res.(*ast.CallExpr); ok {
							if callee := staticCallee(pass, call); callee != nil {
								fi.retCalls[callee] = ret
							}
						}
					}
				}
				return true
			})
			fns = append(fns, fi)
		}
	}
	for _, fi := range fns {
		summaries[fi.key] = fi.exposes
		internals[fi.key] = fi.internal
	}
	// Transitive closure through return-position calls (same-package
	// recursion; cross-package callees are already summarized, and what
	// they expose counts as internal).
	for changed := true; changed; {
		changed = false
		for _, fi := range fns {
			for callee, ret := range fi.retCalls {
				key := funcKey(callee)
				internal := internals[key]
				if _, local := internals[key]; !local {
					internal = summaries[key]
				}
				if summaries[key] && (!fi.exposes || internal && !fi.internal) {
					expose(fi, ret, internal)
					summaries[fi.key], internals[fi.key] = true, fi.internal
					changed = true
				}
			}
		}
	}
	for _, fi := range fns {
		if fi.internal && fi.decl.Name.IsExported() {
			pass.Reportf(fi.firstExpose.Pos(),
				"exported %s returns an internal slice/map of a persistent %s value: callers can mutate shared snapshot state; return a copy",
				fi.decl.Name.Name, pass.Pkg.Name())
		}
	}
}

// checkTaintedWrites runs phase B over one package: taint call results of
// exposing functions, then flag writes through tainted containers.
func checkTaintedWrites(pass *Pass, summaries map[string]bool) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkTaintedWritesIn(pass, fd.Body, summaries)
		}
	}
}

type taint struct {
	origin string // callee name, for the message
	pos    token.Pos
}

func checkTaintedWritesIn(pass *Pass, body *ast.BlockStmt, summaries map[string]bool) {
	exposingCall := func(e ast.Expr) (*types.Func, bool) {
		call, ok := ast.Unparen(e).(*ast.CallExpr)
		if !ok {
			return nil, false
		}
		fn := staticCallee(pass, call)
		if fn == nil {
			return nil, false
		}
		return fn, summaries[funcKey(fn)]
	}

	tainted := map[types.Object]taint{}
	for changed := true; changed; {
		changed = false
		ast.Inspect(body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			// v := ExposingCall(...) and single-assign alias chains.
			if len(as.Lhs) == len(as.Rhs) {
				for i := range as.Rhs {
					rhs := ast.Unparen(as.Rhs[i])
					var t taint
					if fn, exp := exposingCall(rhs); exp {
						t = taint{origin: fn.Name(), pos: rhs.Pos()}
					} else if id, ok := rhs.(*ast.Ident); ok {
						if tt, ok := tainted[pass.Info.Uses[id]]; ok {
							t = tt
						}
					}
					if t.origin == "" {
						continue
					}
					id, ok := ast.Unparen(as.Lhs[i]).(*ast.Ident)
					if !ok || id.Name == "_" {
						continue
					}
					obj := pass.Info.Defs[id]
					if obj == nil {
						obj = pass.Info.Uses[id]
					}
					if obj == nil {
						continue
					}
					if _, seen := tainted[obj]; !seen {
						tainted[obj] = t
						changed = true
					}
				}
			}
			return true
		})
	}

	// rootTaint resolves the base of an index/selector chain to a tainted
	// object or a direct exposing call.
	rootTaint := func(e ast.Expr) (taint, bool) {
		for {
			switch x := ast.Unparen(e).(type) {
			case *ast.IndexExpr:
				e = x.X
			case *ast.SelectorExpr:
				e = x.X
			case *ast.Ident:
				t, ok := tainted[pass.Info.Uses[x]]
				return t, ok
			case *ast.CallExpr:
				if fn, exp := exposingCall(x); exp {
					return taint{origin: fn.Name(), pos: x.Pos()}, true
				}
				return taint{}, false
			default:
				return taint{}, false
			}
		}
	}
	report := func(pos token.Pos, t taint) {
		pass.Reportf(pos,
			"write through a container returned by %s mutates internal state of a persistent value shared across snapshots; copy it before mutating",
			t.origin)
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if idx, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
					if t, ok := rootTaint(idx); ok {
						report(lhs.Pos(), t)
					}
				} else if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
					// v[i].field = x — a write into an element.
					if _, isIdx := ast.Unparen(sel.X).(*ast.IndexExpr); isIdx {
						if t, ok := rootTaint(sel); ok {
							report(lhs.Pos(), t)
						}
					}
				}
			}
		case *ast.IncDecStmt:
			if idx, ok := ast.Unparen(n.X).(*ast.IndexExpr); ok {
				if t, ok := rootTaint(idx); ok {
					report(n.X.Pos(), t)
				}
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "delete" {
				if _, isBuiltin := pass.Info.Uses[id].(*types.Builtin); isBuiltin && len(n.Args) == 2 {
					if t, ok := rootTaint(n.Args[0]); ok {
						report(n.Args[0].Pos(), t)
					}
				}
			}
		}
		return true
	})
}
