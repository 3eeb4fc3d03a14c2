package compiler

import (
	"fmt"

	"logicblox/internal/ast"
)

// compileTerm lowers an AST term into an Expr over the rule's slots.
// Every variable must already have a slot that is a join variable or an
// assigned variable (safety).
func (e *bodyEnv) compileTerm(t ast.Term) (Expr, error) {
	switch t := t.(type) {
	case ast.Var:
		s, ok := e.varSlot[t.Name]
		if !ok {
			return nil, fmt.Errorf("variable %s is unbound", t.Name)
		}
		if s >= e.numJoin && !e.assigned[s] {
			return nil, fmt.Errorf("variable %s is used before it is bound", t.Name)
		}
		return VarExpr{Idx: s}, nil
	case ast.Const:
		return ConstExpr{Val: t.Val}, nil
	case ast.Arith:
		l, err := e.compileTerm(t.L)
		if err != nil {
			return nil, err
		}
		r, err := e.compileTerm(t.R)
		if err != nil {
			return nil, err
		}
		return ArithExpr{Op: t.Op, L: l, R: r}, nil
	case ast.Wildcard:
		return nil, fmt.Errorf("wildcard is not allowed here")
	default:
		return nil, fmt.Errorf("cannot compile term %s", t)
	}
}

// termComputable reports whether every variable of t has a usable slot.
func (e *bodyEnv) termComputable(t ast.Term) bool {
	switch t := t.(type) {
	case ast.Var:
		s, ok := e.varSlot[t.Name]
		return ok && (s < e.numJoin || e.assigned[s])
	case ast.Arith:
		return e.termComputable(t.L) && e.termComputable(t.R)
	case ast.Const:
		return true
	default:
		return false
	}
}

// resolveComparisons repeatedly classifies the pending comparisons into
// variable assignments (x = <computable expr> with x otherwise unbound)
// and filters, until a fixed point; leftover non-computable comparisons
// make the rule unsafe.
func (e *bodyEnv) resolveComparisons() error {
	pending := e.pendingCmp
	for {
		var rest []*ast.Comparison
		progress := false
		for _, cmp := range pending {
			if e.tryAssign(cmp) {
				progress = true
				continue
			}
			if e.termComputable(cmp.L) && e.termComputable(cmp.R) {
				l, err := e.compileTerm(cmp.L)
				if err != nil {
					return err
				}
				r, err := e.compileTerm(cmp.R)
				if err != nil {
					return err
				}
				e.filters = append(e.filters, FilterPlan{Op: string(cmp.Op), L: l, R: r})
				e.addRange(string(cmp.Op), l, r)
				progress = true
				continue
			}
			rest = append(rest, cmp)
		}
		if len(rest) == 0 {
			e.pendingCmp = nil
			return nil
		}
		if !progress {
			return fmt.Errorf("unsafe comparison %s: variables cannot be bound", rest[0])
		}
		pending = rest
	}
}

// flipped maps an order comparison to the one with its sides swapped.
var flipped = map[string]string{"<": ">", "<=": ">=", ">": "<", ">=": "<="}

// addRange records the filter l op r as a range bind when it compares a
// join variable with a constant by order.
func (e *bodyEnv) addRange(op string, l, r Expr) {
	if _, ok := flipped[op]; !ok {
		return
	}
	if _, ok := l.(ConstExpr); ok {
		l, r, op = r, l, flipped[op]
	}
	v, vok := l.(VarExpr)
	c, cok := r.(ConstExpr)
	if vok && cok && v.Idx < e.numJoin {
		e.ranges = append(e.ranges, RangeBind{Var: v.Idx, Op: op, Val: c.Val})
	}
}

// tryAssign turns cmp into an assignment if it is an equality with
// exactly one unbound bare variable on one side and a computable
// expression on the other.
func (e *bodyEnv) tryAssign(cmp *ast.Comparison) bool {
	if cmp.Op != ast.OpEq {
		return false
	}
	try := func(target, src ast.Term) bool {
		v, ok := target.(ast.Var)
		if !ok {
			return false
		}
		s, exists := e.varSlot[v.Name]
		if exists && (s < e.numJoin || e.assigned[s]) {
			return false // already bound: this is a filter
		}
		if !e.termComputable(src) {
			return false
		}
		expr, err := e.compileTerm(src)
		if err != nil {
			return false
		}
		if !exists {
			s = len(e.varNames)
			e.varSlot[v.Name] = s
			e.varNames = append(e.varNames, v.Name)
			e.isJoinVar = append(e.isJoinVar, false)
		}
		e.assigned[s] = true
		e.assigns = append(e.assigns, AssignPlan{Slot: s, E: expr})
		return true
	}
	return try(cmp.L, cmp.R) || try(cmp.R, cmp.L)
}

// resolveNegAtoms compiles the argument expressions of negated atoms.
func (e *bodyEnv) resolveNegAtoms() error {
	for i, raw := range e.rawNeg {
		terms := raw.AllTerms()
		args := make([]Expr, len(terms))
		for j, t := range terms {
			if _, isWild := t.(ast.Wildcard); isWild {
				continue // nil expr = wildcard
			}
			expr, err := e.compileTerm(t)
			if err != nil {
				return fmt.Errorf("in negated atom %s: %w", raw, err)
			}
			args[j] = expr
		}
		e.negAtoms[i].Args = args
	}
	return nil
}
