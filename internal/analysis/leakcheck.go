package analysis

// leakcheck tracks the resources of a declarative table, and adds a
// goroutine-lifecycle rule for the concurrency-dense packages (server,
// durable, replica, bench):
//
//  1. Resources (time.Ticker/Timer, http.Response.Body, durable's
//     TailReader, core's query cursors and the engine's rule cursor — a
//     leaked cursor keeps its snapshot version and its commit/abort
//     accounting alive until GC) must be released on every path to every
//     function exit, released by a pending defer, or handed off (any bare
//     use of the variable — returned, stored, passed — transfers
//     ownership). Constructors of the form
//     `v, err := ctor(...)` are err-gated: along the `err != nil` branch
//     the resource was never produced, so early error returns stay quiet.
//  2. Goroutines started with `go func(){...}` whose body runs an
//     unbounded loop (ctxloop's definition) must be cancellable: the body
//     has to poll a context or select on a done channel. Bounded
//     fire-and-forget goroutines are exempt.
//
// Known limits (docs/analysis.md): `go method()` spawns of named
// functions are not traced into the callee, and a resource stored
// straight into a struct field at the constructor site is treated as
// escaping to the struct's owner.

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// resourceSpec declares one resource-producing constructor.
type resourceSpec struct {
	pkgPath  string // constructor's package path
	ctor     string // constructor function name
	kind     string // human-readable resource name
	release  string // method chain that releases, e.g. "Stop" or "Body.Close"
	errGated bool   // constructor returns (T, error): live only when err == nil
}

// resourceTable is the declarative core of leakcheck. Adding a row here
// is all it takes to track a new resource kind.
var resourceTable = []resourceSpec{
	{pkgPath: "time", ctor: "NewTicker", kind: "ticker", release: "Stop"},
	{pkgPath: "time", ctor: "NewTimer", kind: "timer", release: "Stop"},
	{pkgPath: "net/http", ctor: "Get", kind: "response body", release: "Body.Close", errGated: true},
	{pkgPath: "net/http", ctor: "Post", kind: "response body", release: "Body.Close", errGated: true},
	{pkgPath: "net/http", ctor: "Head", kind: "response body", release: "Body.Close", errGated: true},
	{pkgPath: "net/http", ctor: "Do", kind: "response body", release: "Body.Close", errGated: true},
	{pkgPath: "logicblox/internal/durable", ctor: "NewTailReader", kind: "tail reader", release: "Close"},
	{pkgPath: "logicblox/internal/core", ctor: "QueryStream", kind: "query cursor", release: "Close", errGated: true},
	{pkgPath: "logicblox/internal/core", ctor: "QueryCursor", kind: "query cursor", release: "Close", errGated: true},
	{pkgPath: "logicblox/internal/engine", ctor: "StreamRule", kind: "rule cursor", release: "Close", errGated: true},
	{pkgPath: "logicblox/internal/engine", ctor: "Bindings", kind: "bindings cursor", release: "Close", errGated: true},
}

// leakGoroutinePackages gates the goroutine-lifecycle rule to the
// concurrency-dense packages (matched by package name so fixtures under
// testdata can opt in by declaring the same name).
var leakGoroutinePackages = map[string]bool{
	"server":  true,
	"durable": true,
	"replica": true,
}

// LeakcheckAnalyzer is the CFG-based resource- and goroutine-leak check.
var LeakcheckAnalyzer = &Analyzer{
	Name: "leakcheck",
	Doc:  "flag tickers/timers/response bodies/tail readers/streaming cursors not released on all paths, and uncancellable goroutines",
	Run:  runLeakcheck,
}

// lcRes is one live resource: where it was constructed, which table row
// produced it, and (when err-gated) the error variable that gates it.
type lcRes struct {
	pos    token.Pos
	spec   *resourceSpec
	name   string       // source name of the variable holding it
	errObj types.Object // non-nil while the err != nil branch can kill it
}

// lcState maps resource variables (by object identity) to their live
// resources. It is a may-analysis: a resource stays live until every
// path releases it.
type lcState map[types.Object]lcRes

func (s lcState) clone() lcState {
	c := make(lcState, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

func (s lcState) joinInto(src lcState) bool {
	changed := false
	for k, v := range src {
		if _, ok := s[k]; !ok {
			s[k] = v
			changed = true
		}
	}
	return changed
}

// lcUnit is the per-function context of one leakcheck dataflow.
type lcUnit struct {
	pass      *Pass
	reporting bool
	reported  map[token.Pos]bool
	// selBases are the identifiers appearing as the root of a selector
	// chain (the t of t.Stop(), the resp of resp.Body): plain uses, not
	// ownership handoffs.
	selBases map[*ast.Ident]bool
}

func selectorBases(root ast.Node) map[*ast.Ident]bool {
	bases := map[*ast.Ident]bool{}
	ast.Inspect(root, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
				bases[id] = true
			}
		}
		return true
	})
	return bases
}

func runLeakcheck(pass *Pass) error {
	for _, file := range pass.Files {
		for _, unit := range funcUnits(file) {
			u := &lcUnit{pass: pass, reported: map[token.Pos]bool{}, selBases: selectorBases(unit.body)}
			cfg := BuildCFG(unit.body, pass.Info)
			fns := flowFns[lcState]{
				clone:    lcState.clone,
				joinInto: func(dst, src lcState) bool { return dst.joinInto(src) },
				transfer: u.transfer,
				edge:     u.edge,
			}
			in := forwardFlow(cfg, lcState{}, fns)
			u.reporting = true
			for _, b := range cfg.ReversePostorder() {
				st, ok := in[b]
				if !ok {
					continue
				}
				out := u.transfer(b, st.clone())
				if b.Return == nil && b.Panic == nil && len(b.Succs) > 0 {
					continue
				}
				for _, res := range out {
					if u.reported[res.pos] {
						continue
					}
					u.reported[res.pos] = true
					pass.Reportf(res.pos,
						"%s %s may not be released on a path reaching this function's exit; call (or defer) %s.%s() on every path",
						res.spec.kind, res.name, res.name, res.spec.release)
				}
			}

			if unit.goStmt != nil && leakGoroutinePackages[pass.Pkg.Name()] {
				u.checkGoroutine(unit)
			}
		}
	}
	return nil
}

// transfer pushes resource state through one block.
func (u *lcUnit) transfer(b *Block, st lcState) lcState {
	for _, node := range b.Nodes {
		if d, ok := node.(*ast.DeferStmt); ok {
			u.transferDefer(d, st)
			continue
		}
		inspectShallow(node, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				u.transferAssign(n, st)
			case *ast.ExprStmt:
				// A constructor whose result is discarded leaks immediately.
				if call, ok := n.X.(*ast.CallExpr); ok {
					if spec := u.matchCtor(call); spec != nil && u.reporting && !u.reported[call.Pos()] {
						u.reported[call.Pos()] = true
						u.pass.Reportf(call.Pos(),
							"%s returned by %s.%s is discarded; it can never be released", spec.kind, spec.pkgShort(), spec.ctor)
					}
				}
			case *ast.CallExpr:
				u.transferRelease(n, st)
			case *ast.Ident:
				// Bare use outside the tracked patterns: ownership handoff.
				if obj := u.pass.Info.Uses[n]; obj != nil {
					if _, tracked := st[obj]; tracked && !u.isReceiverUse(n) {
						delete(st, obj)
					}
				}
			}
			return true
		})
	}
	return st
}

// edge refines state along conditional edges: on the branch where an
// err-gated constructor's error is non-nil, the resource never existed.
func (u *lcUnit) edge(e Edge, st lcState) lcState {
	if e.Cond == nil {
		return st
	}
	errObj, errIsNonNil := nilCheck(u.pass, e.Cond, e.Negated)
	if errObj == nil || !errIsNonNil {
		return st
	}
	for k, res := range st {
		if res.errObj == errObj {
			delete(st, k)
		}
	}
	return st
}

// nilCheck decodes a condition of the form `x != nil` / `x == nil` (as
// taken along this edge, accounting for negation) and returns the object
// compared and whether this edge means x is non-nil.
func nilCheck(pass *Pass, cond ast.Expr, negated bool) (types.Object, bool) {
	bin, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || (bin.Op != token.NEQ && bin.Op != token.EQL) {
		return nil, false
	}
	var id *ast.Ident
	x, y := ast.Unparen(bin.X), ast.Unparen(bin.Y)
	switch {
	case exprIsNil(pass, y):
		id, _ = x.(*ast.Ident)
	case exprIsNil(pass, x):
		id, _ = y.(*ast.Ident)
	}
	if id == nil {
		return nil, false
	}
	obj := pass.Info.Uses[id]
	if obj == nil {
		return nil, false
	}
	nonNil := bin.Op == token.NEQ
	if negated {
		nonNil = !nonNil
	}
	return obj, nonNil
}

func exprIsNil(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.Info.Types[e]
	return ok && tv.IsNil()
}

// transferAssign tracks constructor results: `v := ctor(...)` and the
// err-gated `v, err := ctor(...)` form.
func (u *lcUnit) transferAssign(stmt *ast.AssignStmt, st lcState) {
	if len(stmt.Rhs) != 1 {
		return
	}
	call, ok := ast.Unparen(stmt.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return
	}
	spec := u.matchCtor(call)
	if spec == nil {
		return
	}
	id, _ := ast.Unparen(stmt.Lhs[0]).(*ast.Ident)
	if id == nil || id.Name == "_" {
		if id != nil && u.reporting && !u.reported[call.Pos()] {
			u.reported[call.Pos()] = true
			u.pass.Reportf(call.Pos(),
				"%s returned by %s.%s is discarded; it can never be released", spec.kind, spec.pkgShort(), spec.ctor)
		}
		// Assigned into a field/element: escapes to the owner.
		return
	}
	obj := u.pass.Info.Defs[id]
	if obj == nil {
		obj = u.pass.Info.Uses[id]
	}
	if obj == nil {
		return
	}
	res := lcRes{pos: call.Pos(), spec: spec, name: id.Name}
	if spec.errGated && len(stmt.Lhs) == 2 {
		if errID, ok := ast.Unparen(stmt.Lhs[1]).(*ast.Ident); ok && errID.Name != "_" {
			if eo := u.pass.Info.Defs[errID]; eo != nil {
				res.errObj = eo
			} else if eo := u.pass.Info.Uses[errID]; eo != nil {
				res.errObj = eo
			}
		}
	}
	st[obj] = res
}

// transferRelease kills resources whose release chain is called:
// t.Stop(), resp.Body.Close(), tr.Close().
func (u *lcUnit) transferRelease(call *ast.CallExpr, st lcState) {
	base, chain := selectorChain(call.Fun)
	if base == nil || chain == "" {
		return
	}
	obj := u.pass.Info.Uses[base]
	if obj == nil {
		return
	}
	res, tracked := st[obj]
	if !tracked {
		return
	}
	if chain == res.spec.release {
		delete(st, obj)
	}
}

// transferDefer treats a deferred release (direct or inside a deferred
// closure) as releasing from this program point onward.
func (u *lcUnit) transferDefer(d *ast.DeferStmt, st lcState) {
	kill := func(call *ast.CallExpr) {
		u.transferRelease(call, st)
	}
	if lit, ok := d.Call.Fun.(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				kill(call)
			}
			return true
		})
		return
	}
	kill(d.Call)
	// The deferred call's arguments are bare uses evaluated now: a
	// `defer pool.Put(tr)` hands the resource off.
	for _, arg := range d.Call.Args {
		ast.Inspect(arg, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := u.pass.Info.Uses[id]; obj != nil {
					delete(st, obj)
				}
			}
			return true
		})
	}
}

// isReceiverUse reports whether id appears as the base of a selector
// (t.Stop(), resp.Body, tr.Next()) — a plain use, not an ownership
// handoff. The parent linkage is recovered structurally: an Ident whose
// use we see during inspectShallow is a handoff unless some selector in
// the same file has it as its X. To stay O(node) we check the immediate
// syntactic context instead, which inspectShallow gives us by visiting
// the SelectorExpr before its X.
func (u *lcUnit) isReceiverUse(id *ast.Ident) bool {
	return u.selBases[id]
}

// matchCtor matches a call against the resource table.
func (u *lcUnit) matchCtor(call *ast.CallExpr) *resourceSpec {
	fn := staticCallee(u.pass, call)
	if fn == nil || fn.Pkg() == nil {
		return nil
	}
	for i := range resourceTable {
		spec := &resourceTable[i]
		if fn.Name() == spec.ctor && fn.Pkg().Path() == spec.pkgPath {
			return spec
		}
	}
	return nil
}

func (s *resourceSpec) pkgShort() string {
	if i := strings.LastIndex(s.pkgPath, "/"); i >= 0 {
		return s.pkgPath[i+1:]
	}
	return s.pkgPath
}

// selectorChain decomposes x.a.b(...) receivers: returns the base ident
// and the dotted method/field chain ("a.b"), or nil.
func selectorChain(fun ast.Expr) (*ast.Ident, string) {
	var parts []string
	e := ast.Unparen(fun)
	for {
		sel, ok := e.(*ast.SelectorExpr)
		if !ok {
			break
		}
		parts = append([]string{sel.Sel.Name}, parts...)
		e = ast.Unparen(sel.X)
	}
	id, ok := e.(*ast.Ident)
	if !ok || len(parts) == 0 {
		return nil, ""
	}
	return id, strings.Join(parts, ".")
}

// checkGoroutine enforces the lifecycle rule on one `go func(){...}`
// unit: an unbounded loop inside the goroutine body must be cancellable
// — poll a context, select on a done channel, or range over a channel
// (closed by the producer).
func (u *lcUnit) checkGoroutine(unit funcUnit) {
	body := unit.body
	var offending *ast.ForStmt
	ast.Inspect(body, func(n ast.Node) bool {
		if offending != nil {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return n.Body == body // nested literals are their own units
		case *ast.ForStmt:
			if unboundedLoop(n) && !pollsContext(n.Body) && !receivesFromChannel(u.pass, n.Body) {
				offending = n
			}
		}
		return true
	})
	if offending == nil {
		return
	}
	u.pass.Reportf(unit.goStmt.Pos(),
		"goroutine runs an unbounded loop with no cancellation: poll ctx.Err() or select on a done/ctx channel inside the loop so it can be joined or cancelled")
}

// receivesFromChannel reports whether body contains a channel receive —
// a blocking read that a closing producer unblocks, which counts as a
// cancellation point.
func receivesFromChannel(pass *Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if ue, ok := n.(*ast.UnaryExpr); ok && ue.Op == token.ARROW {
			found = true
		}
		if rs, ok := n.(*ast.RangeStmt); ok {
			if tv, ok := pass.Info.Types[rs.X]; ok && tv.Type != nil {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					found = true
				}
			}
		}
		return !found
	})
	return found
}
