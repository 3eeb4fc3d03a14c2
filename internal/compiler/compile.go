package compiler

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"

	"logicblox/internal/ast"
	"logicblox/internal/tuple"
)

// Compile lowers one or more parsed blocks into an executable Program.
// Blocks are merged: rules and constraints may reference predicates
// declared in other blocks (paper §2.2.2).
func Compile(blocks ...*ast.Program) (*Program, error) {
	return Extend(&Program{}, blocks...)
}

// Extend compiles blocks on top of base, an already compiled program, and
// returns what Compile returns for base's blocks followed by these: a
// request compiles only its own clauses against the installed program
// (paper §3.3's execution graph, kept per logic version). base is not
// modified, so any number of requests may extend it at once: its catalog
// entries are shared until the request changes one, and its strata are
// kept whenever the request's rules stack above them (stratify).
func Extend(base *Program, blocks ...*ast.Program) (*Program, error) {
	prog := &Program{
		Preds:       maps.Clone(base.Preds),
		Rules:       slices.Clip(base.Rules),
		Reactive:    slices.Clip(base.Reactive),
		Constraints: slices.Clip(base.Constraints),
	}
	if prog.Preds == nil {
		prog.Preds = map[string]*PredInfo{}
	}
	if base.Solve != nil {
		s := *base.Solve
		s.Variables, s.Integral = slices.Clip(s.Variables), slices.Clip(s.Integral)
		prog.Solve = &s
	}
	c := &compilation{prog: prog, base: base}
	var rules []*ast.Rule
	var constraints []*ast.Constraint
	for _, b := range blocks {
		for _, cl := range b.Clauses {
			switch cl := cl.(type) {
			case *ast.Rule:
				rules = append(rules, desugarRule(cl))
			case *ast.Constraint:
				constraints = append(constraints, cl)
			case *ast.Directive:
				if err := c.applyDirective(cl); err != nil {
					return nil, err
				}
			}
		}
	}
	if err := c.buildCatalog(rules, constraints); err != nil {
		return nil, err
	}
	for _, r := range rules {
		if err := c.compileRule(r); err != nil {
			return nil, fmt.Errorf("in rule %q: %w", r.String(), err)
		}
	}
	for _, k := range constraints {
		if err := c.compileConstraint(k); err != nil {
			return nil, fmt.Errorf("in constraint %q: %w", k.String(), err)
		}
	}
	if err := stratify(c.prog, base); err != nil {
		return nil, err
	}
	return c.prog, nil
}

type compilation struct {
	prog *Program
	base *Program // the program prog extends, whose catalog it shares
}

// own returns name's catalog entry for writing: an entry still shared with
// the base program is copied first.
func (c *compilation) own(name string) *PredInfo {
	p := c.prog.Preds[name]
	if p != nil && c.base.Preds[name] == p {
		cp := *p
		cp.ColumnKinds = slices.Clone(p.ColumnKinds)
		p = &cp
		c.prog.Preds[name] = p
	}
	return p
}

// --- desugaring -----------------------------------------------------------

// desugarRule rewrites functional applications (Pred[args] used as terms,
// the paper's abbreviated syntax) into auxiliary body atoms with fresh
// variables, and turns the plain head of a reactive rule into its +head:
// an audit log fed by +item inserts into its head as a +audit fact would,
// so every reactive head is a delta predicate (paper §2.2.2).
func desugarRule(r *ast.Rule) *ast.Rule {
	n := 0
	fresh := func() string {
		n++
		return fmt.Sprintf("$fa%d", n)
	}
	out := &ast.Rule{Agg: r.Agg, Pred: r.Pred}
	var extra []*ast.Literal
	addAtom := func(a *ast.Atom) { extra = append(extra, &ast.Literal{Atom: a}) }

	var rewriteTerm func(t ast.Term) ast.Term
	rewriteTerm = func(t ast.Term) ast.Term {
		switch t := t.(type) {
		case ast.FuncApp:
			args := make([]ast.Term, len(t.Args))
			for i, a := range t.Args {
				args[i] = rewriteTerm(a)
			}
			v := ast.Var{Name: fresh()}
			addAtom(&ast.Atom{Pred: t.Pred, AtStart: t.AtStart, Args: args, Value: v})
			return v
		case ast.Arith:
			return ast.Arith{Op: t.Op, L: rewriteTerm(t.L), R: rewriteTerm(t.R)}
		default:
			return t
		}
	}
	rewriteAtom := func(a *ast.Atom) *ast.Atom {
		na := &ast.Atom{Pred: a.Pred, Delta: a.Delta, AtStart: a.AtStart}
		for _, arg := range a.Args {
			na.Args = append(na.Args, rewriteTerm(arg))
		}
		if a.Value != nil {
			na.Value = rewriteTerm(a.Value)
		}
		return na
	}
	for _, h := range r.Heads {
		out.Heads = append(out.Heads, rewriteAtom(h))
	}
	for _, l := range r.Body {
		switch {
		case l.Cmp != nil:
			out.Body = append(out.Body, &ast.Literal{Cmp: &ast.Comparison{
				Op: l.Cmp.Op, L: rewriteTerm(l.Cmp.L), R: rewriteTerm(l.Cmp.R),
			}})
		default:
			out.Body = append(out.Body, &ast.Literal{Negated: l.Negated, Atom: rewriteAtom(l.Atom)})
		}
	}
	out.Body = append(out.Body, extra...)
	if astRuleReactive(out) {
		for _, h := range out.Heads {
			if h.Delta == ast.DeltaNone && !h.AtStart {
				h.Delta = ast.DeltaPlus
			}
		}
	}
	return out
}

// --- catalog --------------------------------------------------------------

func (c *compilation) pred(name string, arity int, functional bool) (*PredInfo, error) {
	if k, ok := ast.TypeAtoms[name]; ok {
		_ = k
		return nil, nil // type atoms are not catalog predicates
	}
	p, ok := c.prog.Preds[name]
	if !ok {
		p = &PredInfo{Name: name, Arity: arity, Functional: functional,
			EDB: true, ColumnKinds: make([]tuple.Kind, arity)}
		c.prog.Preds[name] = p
		return p, nil
	}
	if p.Arity != arity {
		return nil, fmt.Errorf("predicate %s used with arity %d and %d", name, p.Arity, arity)
	}
	if functional && !p.Functional {
		p = c.own(name)
		p.Functional = true
	}
	return p, nil
}

func (c *compilation) buildCatalog(rules []*ast.Rule, constraints []*ast.Constraint) error {
	scanAtom := func(a *ast.Atom) error {
		_, err := c.pred(a.Pred, a.Arity(), a.Functional())
		return err
	}
	scanLits := func(lits []*ast.Literal) error {
		for _, l := range lits {
			if l.Atom != nil {
				if err := scanAtom(l.Atom); err != nil {
					return err
				}
			}
		}
		return nil
	}
	for _, r := range rules {
		for _, h := range r.Heads {
			if err := scanAtom(h); err != nil {
				return err
			}
			// A predicate derived by a plain head is an IDB predicate;
			// the inference mirrors the paper's lang_edb meta-rule (§3.3).
			if h.Delta == ast.DeltaNone && !h.AtStart {
				if p := c.prog.Preds[h.Pred]; p != nil && p.EDB {
					c.own(h.Pred).EDB = false
				}
			}
		}
		if err := scanLits(r.Body); err != nil {
			return err
		}
	}
	for _, k := range constraints {
		if err := scanLits(k.Body); err != nil {
			return err
		}
		if err := scanLits(k.Head); err != nil {
			return err
		}
		c.harvestTypes(k)
	}
	return nil
}

// harvestTypes extracts column type constraints from type-declaration
// constraints of the shape R[p]=v -> Entity(p), float(v).
func (c *compilation) harvestTypes(k *ast.Constraint) {
	if len(k.Body) != 1 || k.Body[0].Atom == nil || k.Body[0].Negated {
		return
	}
	body := k.Body[0].Atom
	p := c.prog.Preds[body.Pred]
	if p == nil {
		return
	}
	// Map variable name -> column of the body atom.
	varCol := map[string]int{}
	for i, t := range body.AllTerms() {
		if v, ok := t.(ast.Var); ok {
			varCol[v.Name] = i
		}
	}
	for _, l := range k.Head {
		if l.Atom == nil || l.Negated || len(l.Atom.Args) != 1 {
			continue
		}
		kind, isType := ast.TypeAtoms[l.Atom.Pred]
		if !isType {
			continue
		}
		if v, ok := l.Atom.Args[0].(ast.Var); ok {
			if col, ok := varCol[v.Name]; ok && p.ColumnKinds[col] != kind {
				p = c.own(body.Pred)
				p.ColumnKinds[col] = kind
			}
		}
	}
}

func (c *compilation) applyDirective(d *ast.Directive) error {
	path := strings.Join(d.Path, ":")
	if c.prog.Solve == nil {
		c.prog.Solve = &SolveSpec{}
	}
	switch path {
	case "lang:solve:variable":
		c.prog.Solve.Variables = append(c.prog.Solve.Variables, d.Args...)
	case "lang:solve:max":
		if len(d.Args) != 1 {
			return fmt.Errorf("lang:solve:max takes one predicate")
		}
		c.prog.Solve.Maximize = d.Args[0]
	case "lang:solve:min":
		if len(d.Args) != 1 {
			return fmt.Errorf("lang:solve:min takes one predicate")
		}
		c.prog.Solve.Minimize = d.Args[0]
	case "lang:solve:integer":
		c.prog.Solve.Integral = append(c.prog.Solve.Integral, d.Args...)
	default:
		return fmt.Errorf("unknown directive %s", path)
	}
	return nil
}

// --- rule body compilation -------------------------------------------------

// bodyEnv accumulates the variable slots and plan fragments of one rule
// body.
type bodyEnv struct {
	varSlot    map[string]int
	varNames   []string
	isJoinVar  []bool
	atoms      []AtomPlan
	atomVars   [][]int // join var per original column
	consts     []ConstBind
	ranges     []RangeBind
	negAtoms   []GroundAtom
	filters    []FilterPlan
	assigns    []AssignPlan
	assigned   map[int]bool
	rawNeg     []*ast.Atom // parallel to negAtoms
	bodyNames  []string
	negNames   []string
	pendingCmp []*ast.Comparison
	numJoin    int
	nfresh     int // fresh variables minted in this body
}

func newBodyEnv() *bodyEnv {
	return &bodyEnv{varSlot: map[string]int{}, assigned: map[int]bool{}}
}

// fresh names a new variable of this body. The numbering is per body, so
// a rule compiles to the same plan whatever was compiled before it.
func (e *bodyEnv) fresh(prefix string) string {
	e.nfresh++
	return fmt.Sprintf("$%s%d", prefix, e.nfresh)
}

func (e *bodyEnv) slotFor(name string, join bool) int {
	if s, ok := e.varSlot[name]; ok {
		if join && !e.isJoinVar[s] {
			e.isJoinVar[s] = true
		}
		return s
	}
	s := len(e.varNames)
	e.varSlot[name] = s
	e.varNames = append(e.varNames, name)
	e.isJoinVar = append(e.isJoinVar, join)
	return s
}

// addLiterals ingests body literals: positive atoms become join atoms,
// negated atoms become ground checks, comparisons are classified later.
func (e *bodyEnv) addLiterals(lits []*ast.Literal) error {
	for _, l := range lits {
		switch {
		case l.Cmp != nil:
			e.pendingCmp = append(e.pendingCmp, l.Cmp)
		case l.Negated:
			e.negAtoms = append(e.negAtoms, GroundAtom{
				Name: DecoratedName(l.Atom.Pred, l.Atom.Delta, l.Atom.AtStart),
			})
			e.negNames = append(e.negNames, DecoratedName(l.Atom.Pred, l.Atom.Delta, l.Atom.AtStart))
			// Argument exprs are resolved in finish(), when all join and
			// assigned variables are known; remember the raw atom.
			e.rawNeg = append(e.rawNeg, l.Atom)
		default:
			if err := e.addPositiveAtom(l.Atom); err != nil {
				return err
			}
		}
	}
	return nil
}

func (e *bodyEnv) addPositiveAtom(a *ast.Atom) error {
	name := DecoratedName(a.Pred, a.Delta, a.AtStart)
	e.bodyNames = append(e.bodyNames, name)
	terms := a.AllTerms()
	vars := make([]int, len(terms))
	seen := map[string]bool{}
	for i, t := range terms {
		switch t := t.(type) {
		case ast.Var:
			if seen[t.Name] {
				// Repeated variable within one atom: rewrite the second
				// occurrence to a fresh variable plus an equality filter
				// (paper §3.2's R(x,x) rewrite).
				f := e.fresh("eq")
				s := e.slotFor(f, true)
				vars[i] = s
				e.pendingCmp = append(e.pendingCmp, &ast.Comparison{
					Op: ast.OpEq, L: ast.Var{Name: t.Name}, R: ast.Var{Name: f},
				})
				continue
			}
			seen[t.Name] = true
			vars[i] = e.slotFor(t.Name, true)
		case ast.Const:
			// Constants become fresh variables constrained by a virtual
			// constant predicate (paper §3.2's Const2 rewrite).
			f := e.fresh("k")
			s := e.slotFor(f, true)
			vars[i] = s
			e.consts = append(e.consts, ConstBind{Var: s, Val: t.Val})
		case ast.Wildcard:
			f := e.fresh("w")
			vars[i] = e.slotFor(f, true)
		default:
			return fmt.Errorf("argument %s of %s is not a variable or constant", t, a.Pred)
		}
	}
	e.atomVars = append(e.atomVars, vars)
	e.atoms = append(e.atoms, AtomPlan{Name: name})
	return nil
}

// finish resolves the variable order, assignments, filters, and negated
// atoms; it returns the slot layout.
func (e *bodyEnv) finish() error {
	// 1. Order join variables: most-constrained first (appearing in the
	//    most atoms), ties by first occurrence. This is the static
	//    heuristic; the sampling optimizer can override per-rule orders.
	joinSlots := []int{}
	for s, isJ := range e.isJoinVar {
		if isJ {
			joinSlots = append(joinSlots, s)
		}
	}
	occ := make(map[int]int)
	for _, vars := range e.atomVars {
		for _, v := range vars {
			occ[v]++
		}
	}
	for _, cb := range e.consts {
		occ[cb.Var]++
	}
	sort.SliceStable(joinSlots, func(i, j int) bool {
		return occ[joinSlots[i]] > occ[joinSlots[j]]
	})
	// order[s] = position of old slot s in the new layout.
	order := make([]int, len(e.varNames))
	for i := range order {
		order[i] = -1
	}
	for pos, s := range joinSlots {
		order[s] = pos
	}
	next := len(joinSlots)
	for s, isJ := range e.isJoinVar {
		if !isJ {
			order[s] = next
			next++
		}
	}
	e.remap(order, len(joinSlots))
	return nil
}

// remap renumbers all recorded slots through order and plans the atoms'
// columns.
func (e *bodyEnv) remap(order []int, numJoin int) {
	names := make([]string, len(e.varNames))
	for s, n := range e.varNames {
		names[order[s]] = n
	}
	e.varNames = names
	for n, s := range e.varSlot {
		e.varSlot[n] = order[s]
	}
	for i := range e.consts {
		e.consts[i].Var = order[e.consts[i].Var]
	}
	for ai, a := range e.atoms {
		e.atoms[ai] = planAtom(a.Name, remapSlots(e.atomVars[ai], order))
	}
	e.numJoin = numJoin
}

// astRuleReactive reports whether a (desugared) rule mentions delta or
// versioned predicates anywhere.
func astRuleReactive(r *ast.Rule) bool {
	for _, h := range r.Heads {
		if h.Delta != ast.DeltaNone || h.AtStart {
			return true
		}
	}
	for _, l := range r.Body {
		if l.Atom != nil && (l.Atom.Delta != ast.DeltaNone || l.Atom.AtStart) {
			return true
		}
	}
	return false
}
