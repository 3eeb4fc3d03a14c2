// Package compiler lowers LogiQL AST programs into executable plans: it
// infers base/derived predicates, desugars functional applications,
// classifies comparisons into bindings and filters, chooses leapfrog
// variable orders (planning secondary indices where the order is
// inconsistent with storage order), and stratifies the rule set.
package compiler

import (
	"errors"
	"fmt"

	"logicblox/internal/tuple"
)

// Resolver gives expressions access to predicate contents at evaluation
// time. It is needed only by constraint-head expressions (functional
// lookups and existence checks); rule-body expressions are pure and may
// be evaluated with a nil Resolver.
type Resolver interface {
	// FuncValue returns the value of functional predicate name at key.
	FuncValue(name string, key tuple.Tuple) (tuple.Value, bool)
	// Exists reports whether any tuple of name matches the pattern; nil
	// entries in pattern are wildcards.
	Exists(name string, pattern []tuple.Value, wild []bool) bool
}

// ErrNoValue reports a functional lookup miss during constraint checking.
var ErrNoValue = errors.New("no value for functional predicate key")

// Expr is a compiled, evaluable expression over a join binding.
type Expr interface {
	// Eval computes the expression under binding (join variables first,
	// then assigned variables; see RulePlan.Slots). r may be nil for pure
	// expressions.
	Eval(binding tuple.Tuple, r Resolver) (tuple.Value, error)
}

// VarExpr reads slot Idx of the binding.
type VarExpr struct{ Idx int }

// ConstExpr is a literal value.
type ConstExpr struct{ Val tuple.Value }

// ArithExpr applies a binary arithmetic operator.
type ArithExpr struct {
	Op   byte
	L, R Expr
}

// FuncGetExpr looks up a functional predicate's value for a key computed
// from the binding (constraint heads only).
type FuncGetExpr struct {
	Name string
	Args []Expr
}

// Eval implements Expr.
func (e VarExpr) Eval(b tuple.Tuple, _ Resolver) (tuple.Value, error) { return b[e.Idx], nil }

// Eval implements Expr.
func (e ConstExpr) Eval(tuple.Tuple, Resolver) (tuple.Value, error) { return e.Val, nil }

// Eval implements Expr.
func (e FuncGetExpr) Eval(b tuple.Tuple, r Resolver) (tuple.Value, error) {
	if r == nil {
		return tuple.Value{}, fmt.Errorf("functional lookup %s without resolver", e.Name)
	}
	key := make(tuple.Tuple, len(e.Args))
	for i, a := range e.Args {
		v, err := a.Eval(b, r)
		if err != nil {
			return tuple.Value{}, err
		}
		key[i] = v
	}
	v, ok := r.FuncValue(e.Name, key)
	if !ok {
		return tuple.Value{}, fmt.Errorf("%s%s: %w", e.Name, key, ErrNoValue)
	}
	return v, nil
}

// Eval implements Expr.
func (e ArithExpr) Eval(b tuple.Tuple, r Resolver) (tuple.Value, error) {
	l, err := e.L.Eval(b, r)
	if err != nil {
		return tuple.Value{}, err
	}
	rv, err := e.R.Eval(b, r)
	if err != nil {
		return tuple.Value{}, err
	}
	// Integer arithmetic stays integral; anything involving a float
	// widens to float.
	if l.Kind() == tuple.KindInt && rv.Kind() == tuple.KindInt {
		a, c := l.AsInt(), rv.AsInt()
		switch e.Op {
		case '+':
			return tuple.Int(a + c), nil
		case '-':
			return tuple.Int(a - c), nil
		case '*':
			return tuple.Int(a * c), nil
		case '/':
			if c == 0 {
				return tuple.Value{}, fmt.Errorf("division by zero")
			}
			return tuple.Int(a / c), nil
		}
	}
	lf, lok := l.Numeric()
	rf, rok := rv.Numeric()
	if !lok || !rok {
		return tuple.Value{}, fmt.Errorf("arithmetic on non-numeric values %s %c %s", l, e.Op, rv)
	}
	switch e.Op {
	case '+':
		return tuple.Float(lf + rf), nil
	case '-':
		return tuple.Float(lf - rf), nil
	case '*':
		return tuple.Float(lf * rf), nil
	case '/':
		if rf == 0 {
			return tuple.Value{}, fmt.Errorf("division by zero")
		}
		return tuple.Float(lf / rf), nil
	}
	return tuple.Value{}, fmt.Errorf("unknown operator %c", e.Op)
}

// existsExpr evaluates to a boolean: whether a tuple matching the pattern
// exists. Used by negated atoms in constraint heads.
type existsExpr struct {
	name string
	args []Expr // nil entries are wildcards
}

// Eval implements Expr.
func (e existsExpr) Eval(b tuple.Tuple, r Resolver) (tuple.Value, error) {
	if r == nil {
		return tuple.Value{}, fmt.Errorf("existence check %s without resolver", e.name)
	}
	pattern := make([]tuple.Value, len(e.args))
	wild := make([]bool, len(e.args))
	for i, a := range e.args {
		if a == nil {
			wild[i] = true
			continue
		}
		v, err := a.Eval(b, r)
		if err != nil {
			return tuple.Value{}, err
		}
		pattern[i] = v
	}
	return tuple.Bool(r.Exists(e.name, pattern, wild)), nil
}

// CompareValues applies a comparison operator, widening numerics so that
// 2 = 2.0 holds. Numbers compare in the total order the trie seeks over
// (tuple.CompareFloats: a NaN is above every number and equal to a NaN),
// so a filter and the range seek that stands in for it answer alike.
func CompareValues(op string, l, r tuple.Value) (bool, error) {
	if lf, lok := l.Numeric(); lok {
		if rf, rok := r.Numeric(); rok {
			return cmpHolds(op, tuple.CompareFloats(lf, rf)), nil
		}
	}
	if l.Kind() != r.Kind() {
		if op == "!=" {
			return true, nil
		}
		if op == "=" {
			return false, nil
		}
		return false, fmt.Errorf("cannot compare %s with %s", l, r)
	}
	return cmpHolds(op, tuple.Compare(l, r)), nil
}

func cmpHolds(op string, c int) bool {
	switch op {
	case "=":
		return c == 0
	case "!=":
		return c != 0
	case "<":
		return c < 0
	case "<=":
		return c <= 0
	case ">":
		return c > 0
	case ">=":
		return c >= 0
	}
	return false
}
