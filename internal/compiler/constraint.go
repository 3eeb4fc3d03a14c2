package compiler

import (
	"fmt"
	"slices"

	"logicblox/internal/ast"
)

// compileConstraint lowers an integrity constraint. A constraint names
// stored predicates only: it is checked over a transaction's result,
// which holds no delta or @start version.
func (c *compilation) compileConstraint(k *ast.Constraint) error {
	for _, l := range slices.Concat(k.Body, k.Head) {
		if a := l.Atom; a != nil && (a.Delta != ast.DeltaNone || a.AtStart) {
			return fmt.Errorf("%s is a delta or @start atom: a constraint names stored predicates only", a)
		}
	}
	env := newBodyEnv()
	if err := env.addLiterals(k.Body); err != nil {
		return err
	}
	if err := env.finish(); err != nil {
		return err
	}
	if err := env.resolveComparisons(); err != nil {
		return err
	}
	if err := env.resolveNegAtoms(); err != nil {
		return err
	}
	body := &RulePlan{
		Source:      k.String(),
		NumJoinVars: env.numJoin,
		Slots:       len(env.varNames),
		VarNames:    env.varNames,
		Atoms:       env.atoms,
		Consts:      env.consts,
		Ranges:      env.ranges,
		NegAtoms:    env.negAtoms,
		Filters:     env.filters,
		Assigns:     env.assigns,
		BodyNames:   env.bodyNames,
		NegNames:    env.negNames,
	}
	plan := &ConstraintPlan{ID: len(c.prog.Constraints), Source: k.String(), Body: body}

	for _, l := range k.Head {
		switch {
		case l.Cmp != nil:
			lx, err := env.compileHeadCheckTerm(l.Cmp.L)
			if err != nil {
				return err
			}
			rx, err := env.compileHeadCheckTerm(l.Cmp.R)
			if err != nil {
				return err
			}
			plan.HeadChecks = append(plan.HeadChecks, FilterPlan{Op: string(l.Cmp.Op), L: lx, R: rx})
		case l.Negated:
			terms := l.Atom.AllTerms()
			args := make([]Expr, len(terms))
			for j, t := range terms {
				if _, w := t.(ast.Wildcard); w {
					continue
				}
				expr, err := env.compileHeadCheckTerm(t)
				if err != nil {
					return err
				}
				args[j] = expr
			}
			plan.HeadChecks = append(plan.HeadChecks, FilterPlan{Op: "!exists",
				L: existsExpr{name: DecoratedName(l.Atom.Pred, l.Atom.Delta, l.Atom.AtStart), args: args}})
			plan.HeadNegAtoms = append(plan.HeadNegAtoms, GroundAtom{
				Name: DecoratedName(l.Atom.Pred, l.Atom.Delta, l.Atom.AtStart), Args: args,
			})
		default:
			a := l.Atom
			if _, isType := ast.TypeAtoms[a.Pred]; isType && len(a.AllTerms()) != 1 {
				return fmt.Errorf("type check %s takes one argument", a)
			}
			if kind, isType := ast.TypeAtoms[a.Pred]; isType && len(a.Args) == 1 {
				if v, ok := a.Args[0].(ast.Var); ok {
					s, exists := env.varSlot[v.Name]
					if !exists {
						return fmt.Errorf("type check on unbound variable %s", v.Name)
					}
					plan.HeadTypes = append(plan.HeadTypes, TypeCheck{Slot: s, Kind: kind})
					continue
				}
			}
			terms := a.AllTerms()
			args := make([]Expr, len(terms))
			for j, t := range terms {
				if _, w := t.(ast.Wildcard); w {
					continue
				}
				expr, err := env.compileHeadCheckTerm(t)
				if err != nil {
					return fmt.Errorf("in constraint head %s: %w", a, err)
				}
				args[j] = expr
			}
			plan.HeadAtoms = append(plan.HeadAtoms, GroundAtom{
				Name: DecoratedName(a.Pred, a.Delta, a.AtStart), Args: args,
			})
		}
	}
	plan.refs = plan.references()
	c.prog.Constraints = append(c.prog.Constraints, plan)
	return nil
}

// compileHeadCheckTerm compiles a term in a constraint head. Functional
// applications become FuncGetExprs resolved against the workspace at
// check time (so `Stock[p] >= minStock[p]` fails when either value is
// missing).
func (e *bodyEnv) compileHeadCheckTerm(t ast.Term) (Expr, error) {
	switch t := t.(type) {
	case ast.FuncApp:
		if t.AtStart {
			return nil, fmt.Errorf("%s is an @start lookup: a constraint names stored predicates only", t)
		}
		args := make([]Expr, len(t.Args))
		for i, a := range t.Args {
			expr, err := e.compileHeadCheckTerm(a)
			if err != nil {
				return nil, err
			}
			args[i] = expr
		}
		return FuncGetExpr{Name: t.Pred, Args: args}, nil
	case ast.Arith:
		l, err := e.compileHeadCheckTerm(t.L)
		if err != nil {
			return nil, err
		}
		r, err := e.compileHeadCheckTerm(t.R)
		if err != nil {
			return nil, err
		}
		return ArithExpr{Op: t.Op, L: l, R: r}, nil
	default:
		return e.compileTerm(t)
	}
}
