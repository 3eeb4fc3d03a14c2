package engine

import (
	"errors"
	"fmt"

	"logicblox/internal/compiler"
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
		vs, err := c.CheckConstraint(k)
		if err != nil {
			return nil, err
		}
		all = append(all, vs...)
	}
	return all, nil
}

// CheckConstraint enumerates the body F and validates the head G for each
// binding (F -> G, paper §2.2.1).
func (c *Context) CheckConstraint(k *compiler.ConstraintPlan) ([]Violation, error) {
	b, err := c.Bindings(k.Body, nil)
	if err != nil {
		return nil, err
	}
	defer b.Close()
	var out []Violation
	for binding, ok := b.Next(); ok; binding, ok = b.Next() {
		reason, err := c.headHolds(k, binding, b.resolver)
		if err != nil {
			return out, err
		}
		if reason != "" {
			witness := bindingString(k.Body.VarNames, binding, k.Body.NumJoinVars)
			out = append(out, Violation{Constraint: k.Source, Binding: witness, Reason: reason})
		}
	}
	return out, b.Err()
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
	if n > len(binding) {
		n = len(binding)
	}
	s := "{"
	for i := 0; i < n; i++ {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%s=%s", names[i], binding[i])
	}
	return s + "}"
}
