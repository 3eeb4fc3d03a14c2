package engine

import (
	"errors"
	"fmt"
	"sort"

	"logicblox/internal/compiler"
	"logicblox/internal/relation"
	"logicblox/internal/tuple"
)

// Violation reports one integrity-constraint failure.
type Violation struct {
	Constraint string // source text of the constraint
	Binding    string // the witnessing body binding
	Reason     string
}

func (v Violation) String() string {
	return fmt.Sprintf("constraint %q violated at %s: %s", v.Constraint, v.Binding, v.Reason)
}

// CheckConstraints evaluates every integrity constraint against the
// current context state. It returns all violations (empty means the state
// is legal). Constraints over free solver predicates are included: by the
// time a transaction commits, the solver has populated them.
func (c *Context) CheckConstraints() ([]Violation, error) {
	var all []Violation
	for _, k := range c.Prog.Constraints {
		vs, err := c.CheckConstraint(k, nil)
		if err != nil {
			return nil, err
		}
		all = append(all, vs...)
	}
	return all, nil
}

// CheckConstraint enumerates the body F and validates the head G for each
// binding (F -> G, paper §2.2.1). With deltas nil every binding is
// checked. Otherwise deltas maps positive body atoms to tuples a
// transaction inserted into them, and only the bindings those tuples take
// part in are checked: the body runs once per entry, that atom scanning
// its delta (the Bindings override semi-naive rounds use), and a binding
// found through two atoms is reported once. Either way the violations
// come out in the body's binding order.
func (c *Context) CheckConstraint(k *compiler.ConstraintPlan, deltas map[int]relation.Relation) ([]Violation, error) {
	if deltas == nil {
		var out []Violation
		err := c.checkBody(k, nil, func(_ tuple.Tuple, v Violation) { out = append(out, v) })
		return out, err
	}
	atoms := make([]int, 0, len(deltas))
	for ai := range deltas {
		atoms = append(atoms, ai)
	}
	sort.Ints(atoms)
	type witness struct {
		at tuple.Tuple // the binding's join variables
		v  Violation
	}
	var found []witness
	for _, ai := range atoms {
		err := c.checkBody(k, map[int]relation.Relation{ai: deltas[ai]}, func(at tuple.Tuple, v Violation) {
			found = append(found, witness{at.Clone(), v})
		})
		if err != nil {
			return nil, err
		}
	}
	sort.SliceStable(found, func(i, j int) bool { return found[i].at.Compare(found[j].at) < 0 })
	var out []Violation
	for i, w := range found {
		if i == 0 || !w.at.Equal(found[i-1].at) {
			out = append(out, w.v)
		}
	}
	return out, nil
}

// checkBody drains k's body under overrides and reports each binding whose
// head fails, with the binding's join variables.
func (c *Context) checkBody(k *compiler.ConstraintPlan, overrides map[int]relation.Relation, report func(tuple.Tuple, Violation)) error {
	b, err := c.Bindings(k.Body, overrides)
	if err != nil {
		return err
	}
	defer b.Close()
	n := min(k.Body.NumJoinVars, k.Body.Slots)
	for binding, ok := b.Next(); ok; binding, ok = b.Next() {
		reason, err := c.headHolds(k, binding, b.resolver)
		if err != nil {
			return err
		}
		if reason != "" {
			witness := bindingString(k.Body.VarNames, binding, n)
			report(binding[:n], Violation{Constraint: k.Source, Binding: witness, Reason: reason})
		}
	}
	return b.Err()
}

// headHolds returns "" when every head check passes, or the failure
// reason.
func (c *Context) headHolds(k *compiler.ConstraintPlan, binding tuple.Tuple, resolver compiler.Resolver) (string, error) {
	for _, tc := range k.HeadTypes {
		v := binding[tc.Slot]
		if v.Kind() != tc.Kind {
			// int is acceptable where float is demanded (numeric widening).
			if !(tc.Kind == tuple.KindFloat && v.Kind() == tuple.KindInt) {
				return fmt.Sprintf("%s is not of type %s", v, tc.Kind), nil
			}
		}
	}
	for _, ha := range k.HeadAtoms {
		pattern := make([]tuple.Value, len(ha.Args))
		wild := make([]bool, len(ha.Args))
		for i, e := range ha.Args {
			if e == nil {
				wild[i] = true
				continue
			}
			v, err := e.Eval(binding, resolver)
			if err != nil {
				if errors.Is(err, compiler.ErrNoValue) {
					return err.Error(), nil
				}
				return "", err
			}
			pattern[i] = v
		}
		if c.sens != nil {
			recordPattern(c.sens, ha.Name, pattern, wild)
		}
		if !c.Relation(ha.Name).MatchExists(pattern, wild) {
			return fmt.Sprintf("required fact %s%v is missing", ha.Name, tuple.Tuple(pattern)), nil
		}
	}
	for _, f := range k.HeadChecks {
		if f.Op == "!exists" {
			v, err := f.L.Eval(binding, resolver)
			if err != nil {
				return "", err
			}
			if v.AsBool() {
				return "forbidden fact exists", nil
			}
			continue
		}
		l, err := f.L.Eval(binding, resolver)
		if err != nil {
			if errors.Is(err, compiler.ErrNoValue) {
				return err.Error(), nil
			}
			return "", err
		}
		r, err := f.R.Eval(binding, resolver)
		if err != nil {
			if errors.Is(err, compiler.ErrNoValue) {
				return err.Error(), nil
			}
			return "", err
		}
		ok, err := compiler.CompareValues(f.Op, l, r)
		if err != nil {
			return "", err
		}
		if !ok {
			return fmt.Sprintf("%s %s %s does not hold", l, f.Op, r), nil
		}
	}
	return "", nil
}

func bindingString(names []string, binding tuple.Tuple, n int) string {
	s := "{"
	for i := 0; i < n; i++ {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%s=%s", names[i], binding[i])
	}
	return s + "}"
}
