package analysis

// cfg.go builds intraprocedural control-flow graphs over Go function
// bodies. The dataflow analyzers (locksafe, leakcheck) need path
// sensitivity the plain AST walks of the older analyzers cannot give:
// "this lock is released on every path to every return" is a property of
// the CFG, not of any single statement. The builder handles the full
// statement language — if/for/range/switch/type-switch/select, labeled
// break and continue, goto, fallthrough, explicit panic — and leaves
// function literals alone (each literal is its own analysis unit).

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Block is one basic block: a maximal straight-line sequence of
// evaluation steps (statements and branch-condition expressions) with
// control entering only at the top and leaving only at the bottom.
type Block struct {
	Index int
	// Nodes are the evaluation steps, in order. Branch conditions appear
	// as bare ast.Expr entries; everything else is an ast.Stmt. Function
	// literal bodies are not expanded here.
	Nodes []ast.Node
	Succs []Edge
	// Return terminates this block when control leaves the function
	// normally here.
	Return *ast.ReturnStmt
	// Panic terminates this block when an explicit panic(...) statement
	// unwinds here. (Calls that may panic are not modeled; see
	// docs/analysis.md for the framework's false-negative limits.)
	Panic ast.Stmt
}

// Edge is one control transfer. When Cond is non-nil the edge is taken
// exactly when Cond evaluates to !Negated, which lets edge-sensitive
// transfer functions model idioms like `if err != nil { return }`.
type Edge struct {
	To      *Block
	Cond    ast.Expr
	Negated bool
}

// CFG is the control-flow graph of one function body. Blocks[0] is the
// entry block. Blocks left unreachable by breaks/returns are retained
// (dead code is still code) but never visited by the dataflow driver.
type CFG struct {
	Blocks []*Block
}

// BuildCFG constructs the CFG of one function body. info resolves
// builtin references so explicit panic calls become exits; it may be nil
// (then any call spelled `panic` is treated as one).
func BuildCFG(body *ast.BlockStmt, info *types.Info) *CFG {
	b := &cfgBuilder{info: info, labels: map[string]*Block{}}
	entry := b.newBlock()
	b.cur = entry
	b.stmtList(body.List)
	for _, g := range b.gotos {
		if target, ok := b.labels[g.label]; ok {
			g.from.Succs = append(g.from.Succs, Edge{To: target})
		}
	}
	c := &CFG{Blocks: b.blocks}
	for i, blk := range c.Blocks {
		blk.Index = i
	}
	return c
}

type pendingGoto struct {
	from  *Block
	label string
}

// branchCtx is one enclosing breakable construct (loop, switch, select).
// continueTo is nil for non-loop contexts.
type branchCtx struct {
	label      string
	breakTo    *Block
	continueTo *Block
}

type cfgBuilder struct {
	info     *types.Info
	blocks   []*Block
	cur      *Block
	ctxs     []branchCtx
	labels   map[string]*Block
	gotos    []pendingGoto
	curLabel string
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{}
	b.blocks = append(b.blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *Block, cond ast.Expr, negated bool) {
	from.Succs = append(from.Succs, Edge{To: to, Cond: cond, Negated: negated})
}

// startBlock ends the current block with an unconditional edge into a
// fresh one and makes the fresh block current.
func (b *cfgBuilder) startBlock() *Block {
	next := b.newBlock()
	b.edge(b.cur, next, nil, false)
	b.cur = next
	return next
}

// takeLabel consumes the pending statement label (set by LabeledStmt for
// the construct that immediately follows it).
func (b *cfgBuilder) takeLabel() string {
	l := b.curLabel
	b.curLabel = ""
	return l
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

// isPanicCall reports whether s is an explicit call of the panic builtin.
func (b *cfgBuilder) isPanicCall(s ast.Stmt) bool {
	es, ok := s.(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "panic" {
		return false
	}
	if b.info != nil {
		if obj := b.info.Uses[id]; obj != nil {
			_, isBuiltin := obj.(*types.Builtin)
			return isBuiltin
		}
	}
	return true
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.LabeledStmt:
		lb := b.startBlock()
		b.labels[s.Label.Name] = lb
		b.curLabel = s.Label.Name
		b.stmt(s.Stmt)

	case *ast.IfStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		cond := b.cur
		cond.Nodes = append(cond.Nodes, s.Cond)
		then := b.newBlock()
		b.edge(cond, then, s.Cond, false)
		b.cur = then
		b.stmtList(s.Body.List)
		afterThen := b.cur
		join := b.newBlock()
		if s.Else != nil {
			els := b.newBlock()
			b.edge(cond, els, s.Cond, true)
			b.cur = els
			b.stmt(s.Else)
			b.edge(b.cur, join, nil, false)
		} else {
			b.edge(cond, join, s.Cond, true)
		}
		b.edge(afterThen, join, nil, false)
		b.cur = join

	case *ast.ForStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.stmt(s.Init)
		}
		head := b.startBlock()
		exit := b.newBlock()
		if s.Cond != nil {
			head.Nodes = append(head.Nodes, s.Cond)
		}
		body := b.newBlock()
		if s.Cond != nil {
			b.edge(head, body, s.Cond, false)
			b.edge(head, exit, s.Cond, true)
		} else {
			b.edge(head, body, nil, false)
		}
		continueTo := head
		var post *Block
		if s.Post != nil {
			post = b.newBlock()
			continueTo = post
		}
		b.ctxs = append(b.ctxs, branchCtx{label: label, breakTo: exit, continueTo: continueTo})
		b.cur = body
		b.stmtList(s.Body.List)
		b.edge(b.cur, continueTo, nil, false)
		if post != nil {
			b.cur = post
			b.stmt(s.Post)
			b.edge(b.cur, head, nil, false)
		}
		b.ctxs = b.ctxs[:len(b.ctxs)-1]
		b.cur = exit

	case *ast.RangeStmt:
		label := b.takeLabel()
		head := b.startBlock()
		head.Nodes = append(head.Nodes, s.X)
		body := b.newBlock()
		exit := b.newBlock()
		b.edge(head, body, nil, false)
		b.edge(head, exit, nil, false)
		b.ctxs = append(b.ctxs, branchCtx{label: label, breakTo: exit, continueTo: head})
		b.cur = body
		b.stmtList(s.Body.List)
		b.edge(b.cur, head, nil, false)
		b.ctxs = b.ctxs[:len(b.ctxs)-1]
		b.cur = exit

	case *ast.SwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.stmt(s.Init)
		}
		head := b.cur
		if s.Tag != nil {
			head.Nodes = append(head.Nodes, s.Tag)
		}
		b.caseClauses(head, s.Body.List, label, func(cc *ast.CaseClause, blk *Block) {
			for _, e := range cc.List {
				blk.Nodes = append(blk.Nodes, e)
			}
		})

	case *ast.TypeSwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.stmt(s.Init)
		}
		head := b.cur
		head.Nodes = append(head.Nodes, s.Assign)
		b.caseClauses(head, s.Body.List, label, nil)

	case *ast.SelectStmt:
		label := b.takeLabel()
		head := b.cur
		exit := b.newBlock()
		b.ctxs = append(b.ctxs, branchCtx{label: label, breakTo: exit})
		for _, cl := range s.Body.List {
			comm := cl.(*ast.CommClause)
			blk := b.newBlock()
			b.edge(head, blk, nil, false)
			if comm.Comm != nil {
				blk.Nodes = append(blk.Nodes, comm.Comm)
			}
			b.cur = blk
			b.stmtList(comm.Body)
			b.edge(b.cur, exit, nil, false)
		}
		b.ctxs = b.ctxs[:len(b.ctxs)-1]
		// An empty select blocks forever: exit stays unreachable.
		b.cur = exit

	case *ast.BranchStmt:
		switch s.Tok {
		case token.BREAK:
			if ctx := b.findCtx(s.Label, false); ctx != nil {
				b.edge(b.cur, ctx.breakTo, nil, false)
			}
			b.cur = b.newBlock() // dead
		case token.CONTINUE:
			if ctx := b.findCtx(s.Label, true); ctx != nil {
				b.edge(b.cur, ctx.continueTo, nil, false)
			}
			b.cur = b.newBlock() // dead
		case token.GOTO:
			b.gotos = append(b.gotos, pendingGoto{from: b.cur, label: s.Label.Name})
			b.cur = b.newBlock() // dead
		case token.FALLTHROUGH:
			// Handled structurally by caseClauses; nothing to record here.
		}

	case *ast.ReturnStmt:
		b.cur.Nodes = append(b.cur.Nodes, s)
		b.cur.Return = s
		b.cur = b.newBlock() // dead

	case *ast.ExprStmt:
		if b.isPanicCall(s) {
			b.cur.Nodes = append(b.cur.Nodes, s)
			b.cur.Panic = s
			b.cur = b.newBlock() // dead
			return
		}
		b.cur.Nodes = append(b.cur.Nodes, s)

	case *ast.EmptyStmt:
		// nothing

	default:
		// Assignments, declarations, sends, inc/dec, defer, go: plain
		// evaluation steps.
		b.cur.Nodes = append(b.cur.Nodes, s)
	}
}

// caseClauses wires the shared switch shape: head fans out to each case
// body, every body (bar fallthrough) joins at the exit, and a missing
// default adds a head→exit edge. addExprs lets expression switches record
// their case expressions as evaluation steps.
func (b *cfgBuilder) caseClauses(head *Block, clauses []ast.Stmt, label string, addExprs func(*ast.CaseClause, *Block)) {
	exit := b.newBlock()
	b.ctxs = append(b.ctxs, branchCtx{label: label, breakTo: exit})
	bodies := make([]*Block, len(clauses))
	hasDefault := false
	for i, cl := range clauses {
		cc := cl.(*ast.CaseClause)
		bodies[i] = b.newBlock()
		b.edge(head, bodies[i], nil, false)
		if addExprs != nil {
			addExprs(cc, bodies[i])
		}
		if cc.List == nil {
			hasDefault = true
		}
	}
	for i, cl := range clauses {
		cc := cl.(*ast.CaseClause)
		b.cur = bodies[i]
		fallsThrough := false
		for j, st := range cc.Body {
			if br, ok := st.(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH && j == len(cc.Body)-1 {
				fallsThrough = true
				break
			}
			b.stmt(st)
		}
		if fallsThrough && i+1 < len(bodies) {
			b.edge(b.cur, bodies[i+1], nil, false)
		} else {
			b.edge(b.cur, exit, nil, false)
		}
	}
	if !hasDefault {
		b.edge(head, exit, nil, false)
	}
	b.ctxs = b.ctxs[:len(b.ctxs)-1]
	b.cur = exit
}

// findCtx resolves a break/continue target: the innermost matching
// context, or the labeled one. Continue only matches loop contexts.
func (b *cfgBuilder) findCtx(label *ast.Ident, needLoop bool) *branchCtx {
	for i := len(b.ctxs) - 1; i >= 0; i-- {
		ctx := &b.ctxs[i]
		if needLoop && ctx.continueTo == nil {
			continue
		}
		if label == nil || ctx.label == label.Name {
			return ctx
		}
	}
	return nil
}

// Reachable returns the blocks reachable from the entry, as a set.
func (c *CFG) Reachable() map[*Block]bool {
	seen := map[*Block]bool{}
	if len(c.Blocks) == 0 {
		return seen
	}
	stack := []*Block{c.Blocks[0]}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[b] {
			continue
		}
		seen[b] = true
		for _, e := range b.Succs {
			if !seen[e.To] {
				stack = append(stack, e.To)
			}
		}
	}
	return seen
}

// ReversePostorder returns the reachable blocks in reverse postorder —
// the iteration order under which a forward dataflow converges fastest.
func (c *CFG) ReversePostorder() []*Block {
	if len(c.Blocks) == 0 {
		return nil
	}
	var post []*Block
	state := map[*Block]int{} // 0 unvisited, 1 on stack, 2 done
	type frame struct {
		b *Block
		i int
	}
	stack := []frame{{b: c.Blocks[0]}}
	state[c.Blocks[0]] = 1
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.i < len(f.b.Succs) {
			next := f.b.Succs[f.i].To
			f.i++
			if state[next] == 0 {
				state[next] = 1
				stack = append(stack, frame{b: next})
			}
			continue
		}
		state[f.b] = 2
		post = append(post, f.b)
		stack = stack[:len(stack)-1]
	}
	for i, j := 0, len(post)-1; i < j; i, j = i+1, j-1 {
		post[i], post[j] = post[j], post[i]
	}
	return post
}

// String renders the CFG compactly for tests and debugging:
// "b0[2] -> b1 b2; b1[1,ret] -> ;" where [n] is the node count.
func (c *CFG) String() string {
	var sb strings.Builder
	for _, b := range c.Blocks {
		tag := ""
		if b.Return != nil {
			tag = ",ret"
		} else if b.Panic != nil {
			tag = ",panic"
		}
		fmt.Fprintf(&sb, "b%d[%d%s] ->", b.Index, len(b.Nodes), tag)
		succs := make([]int, len(b.Succs))
		for i, e := range b.Succs {
			succs[i] = e.To.Index
		}
		sort.Ints(succs)
		for _, s := range succs {
			fmt.Fprintf(&sb, " b%d", s)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}
