package compiler

import (
	"fmt"

	"logicblox/internal/ast"
)

// compileRule lowers one rule into one RulePlan per head atom.
func (c *compilation) compileRule(r *ast.Rule) error {
	env := newBodyEnv()
	if err := env.addLiterals(r.Body); err != nil {
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
	for _, h := range r.Heads {
		plan, err := c.assembleRule(r, h, env)
		if err != nil {
			return err
		}
		if isReactivePlan(plan) {
			c.prog.Reactive = append(c.prog.Reactive, plan)
		} else {
			c.prog.Rules = append(c.prog.Rules, plan)
		}
	}
	return nil
}

func isReactivePlan(p *RulePlan) bool {
	if BaseName(p.HeadName) != p.HeadName {
		return true
	}
	for _, n := range p.BodyNames {
		if BaseName(n) != n {
			return true
		}
	}
	for _, n := range p.NegNames {
		if BaseName(n) != n {
			return true
		}
	}
	return false
}

func (c *compilation) assembleRule(r *ast.Rule, h *ast.Atom, env *bodyEnv) (*RulePlan, error) {
	plan := &RulePlan{
		ID:          len(c.prog.Rules) + len(c.prog.Reactive),
		Source:      r.String(),
		HeadName:    DecoratedName(h.Pred, h.Delta, h.AtStart),
		HeadArity:   h.Arity(),
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
	if h.AtStart {
		return nil, fmt.Errorf("@start predicate %s cannot be derived", h.Pred)
	}

	switch {
	case r.Agg != nil:
		if !h.Functional() {
			return nil, fmt.Errorf("aggregation rule head %s must be functional (R[keys] = result)", h.Pred)
		}
		v, ok := h.Value.(ast.Var)
		if !ok || v.Name != r.Agg.Result {
			return nil, fmt.Errorf("aggregation head value must be the aggregate variable %s", r.Agg.Result)
		}
		agg, err := env.compileAgg(r.Agg)
		if err != nil {
			return nil, err
		}
		plan.Agg = agg
		// Head exprs cover the key columns only; the engine appends the
		// aggregate value.
		for _, t := range h.Args {
			expr, err := env.compileTerm(t)
			if err != nil {
				return nil, fmt.Errorf("in head of %s: %w", h.Pred, err)
			}
			plan.HeadExprs = append(plan.HeadExprs, expr)
		}
		return plan, nil

	case r.Pred != nil:
		if !h.Functional() {
			return nil, fmt.Errorf("predict rule head %s must be functional", h.Pred)
		}
		v, ok := h.Value.(ast.Var)
		if !ok || v.Name != r.Pred.Result {
			return nil, fmt.Errorf("predict head value must be the result variable %s", r.Pred.Result)
		}
		pp, err := env.compilePredict(r.Pred, h)
		if err != nil {
			return nil, err
		}
		plan.Predict = pp
		for _, t := range h.Args {
			expr, err := env.compileTerm(t)
			if err != nil {
				return nil, fmt.Errorf("in head of %s: %w", h.Pred, err)
			}
			plan.HeadExprs = append(plan.HeadExprs, expr)
		}
		return plan, nil

	default:
		for _, t := range h.AllTerms() {
			expr, err := env.compileTerm(t)
			if err != nil {
				return nil, fmt.Errorf("in head of %s: %w", h.Pred, err)
			}
			plan.HeadExprs = append(plan.HeadExprs, expr)
		}
		return plan, nil
	}
}

func (e *bodyEnv) compileAgg(a *ast.Aggregation) (*AggPlan, error) {
	switch a.Func {
	case "sum", "min", "max", "avg", "total", "count":
	default:
		return nil, fmt.Errorf("unknown aggregation function %s", a.Func)
	}
	plan := &AggPlan{Func: a.Func, ArgSlot: -1}
	if a.Func == "count" {
		return plan, nil
	}
	if a.Arg == "" {
		return nil, fmt.Errorf("aggregation %s requires an argument variable", a.Func)
	}
	s, ok := e.varSlot[a.Arg]
	if !ok || (s >= e.numJoin && !e.assigned[s]) {
		return nil, fmt.Errorf("aggregated variable %s is unbound", a.Arg)
	}
	plan.ArgSlot = s
	return plan, nil
}

func (e *bodyEnv) compilePredict(p *ast.Predict, head *ast.Atom) (*PredictPlan, error) {
	switch p.Func {
	case "logist", "linear", "eval":
	default:
		return nil, fmt.Errorf("unknown predict function %s", p.Func)
	}
	slotOf := func(name string) (int, error) {
		s, ok := e.varSlot[name]
		if !ok || (s >= e.numJoin && !e.assigned[s]) {
			return 0, fmt.Errorf("predict variable %s is unbound", name)
		}
		return s, nil
	}
	vs, err := slotOf(p.Value)
	if err != nil {
		return nil, err
	}
	fs, err := slotOf(p.Feature)
	if err != nil {
		return nil, err
	}
	plan := &PredictPlan{Func: p.Func, ValueSlot: vs, FeatureSlot: fs}
	// Group (head key) slots.
	group := map[int]bool{}
	for _, t := range head.Args {
		if v, ok := t.(ast.Var); ok {
			if s, ok := e.varSlot[v.Name]; ok {
				group[s] = true
			}
		}
	}
	// Example identity: the other variables of the atom binding the value;
	// feature identity: the other variables of the atom binding the
	// feature value.
	plan.ValueKeySlots = e.companionSlots(vs, group)
	plan.FeatNameSlots = e.companionSlots(fs, group)
	return plan, nil
}

// companionSlots finds the atom binding slot and returns its other
// variables that are not group keys (in column order).
func (e *bodyEnv) companionSlots(slot int, group map[int]bool) []int {
	for _, a := range e.atoms {
		has := false
		for _, v := range a.Vars {
			if v == slot {
				has = true
				break
			}
		}
		if !has {
			continue
		}
		var out []int
		for _, v := range a.Vars {
			if v != slot && !group[v] {
				out = append(out, v)
			}
		}
		return out
	}
	return nil
}
