package analysis

import (
	"go/ast"
	"go/token"
)

// ctxloopPackages names the packages whose unbounded loops must poll a
// context: the engine's fixpoint machinery, the maintainers the
// transaction layer runs on it, the transaction layer itself, and the
// HTTP server's retry loops. A loop that spins without polling
// ignores request deadlines, so a runaway recursive rule or a contended
// commit pins a worker forever (engine.Options.Ctx exists precisely so
// these loops can stop at iteration boundaries).
var ctxloopPackages = map[string]bool{
	"engine":  true,
	"ivm":     true,
	"core":    true,
	"server":  true,
	"replica": true,
}

// ctxPollNames are callee names that count as polling a context at an
// iteration boundary: ctx.Err(), Context.Done(), context.Cause(ctx), and
// the engine context's Err, which wraps the first two.
var ctxPollNames = map[string]bool{
	"Err":   true,
	"Done":  true,
	"Cause": true,
}

// CtxloopAnalyzer reports unbounded loops — `for {}` retry loops and
// fixpoint loops whose condition is recomputed by the body — that do not
// poll a context anywhere in an iteration.
var CtxloopAnalyzer = &Analyzer{
	Name: "ctxloop",
	Doc:  "flag unbounded fixpoint/retry loops that never poll a context",
	Run:  runCtxloop,
}

func runCtxloop(pass *Pass) error {
	if !ctxloopPackages[pass.Pkg.Name()] {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			loop, ok := n.(*ast.ForStmt)
			if !ok {
				return true
			}
			if !unboundedLoop(loop) || pollsContext(loop.Body) {
				return true
			}
			pass.Reportf(loop.Pos(),
				"unbounded loop never polls a context; check ctx.Err() (or select on ctx.Done()) at the iteration boundary so deadlines keep working")
			return true
		})
	}
	return nil
}

// unboundedLoop reports whether the loop can iterate an unbounded number
// of times: an infinite `for {}` / `for cond {}` retry loop, or a
// fixpoint loop whose condition reads a variable the body replaces
// wholesale (`for len(deltas) > 0 { ...; deltas = next }`). Three-clause
// counter loops (with a Post statement), range loops, and while-style
// counter loops that only step the condition variable with ++/--/+=/-=
// are bounded by their iteration space and exempt.
func unboundedLoop(loop *ast.ForStmt) bool {
	if loop.Post != nil {
		return false
	}
	if loop.Cond == nil {
		return true
	}
	condVars := map[string]bool{}
	ast.Inspect(loop.Cond, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			condVars[id.Name] = true
		}
		return true
	})
	reassigned := false
	ast.Inspect(loop.Body, func(n ast.Node) bool {
		stmt, ok := n.(*ast.AssignStmt)
		if !ok || stmt.Tok != token.ASSIGN {
			return true
		}
		for _, lhs := range stmt.Lhs {
			if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && condVars[id.Name] {
				reassigned = true
			}
		}
		return true
	})
	return reassigned
}

// pollsContext reports whether the loop body contains a context poll: a
// call to one of the poll names or a select statement (which can only
// make progress through one of its channel cases, ctx.Done among them).
func pollsContext(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.CallExpr:
			if ctxPollNames[calleeName(e)] {
				found = true
			}
		case *ast.SelectStmt:
			found = true
		}
		return !found
	})
	return found
}
