package ivm

import (
	"logicblox/internal/compiler"
	"logicblox/internal/engine"
	"logicblox/internal/relation"
)

// Stale decides whether pending changes can affect one maintenance unit:
// a single rule of a non-recursive stratum, or all rules of a recursive
// one. RederiveStratum asks once per unit, in rule order, and evaluates
// the unit right after a true answer, before asking about the next — a
// test that records something about that evaluation (Sensitivity's trace)
// relies on the order.
type Stale func(unit []*compiler.RulePlan) bool

// Store keeps the last result of every rule of the non-recursive strata,
// so a head with several rules can be re-unioned when only some of them
// were re-evaluated. (A recursive stratum's stored result is its head
// relations themselves.)
type Store interface {
	Get(r *compiler.RulePlan) (relation.Relation, bool)
	Set(r *compiler.RulePlan, res relation.Relation)
}

// RederiveStratum is the rule-granular maintenance strategy for one
// stratum of ctx: units the test calls stale are re-evaluated in full, the
// rest keep their stored results, and heads whose rule results moved are
// re-unioned. The three users differ only in the test — the transaction
// path's "reads a changed predicate name", Sensitivity's "a changed tuple
// falls in the recorded trace", Recompute's "always". It returns the
// before-image of every head it rebuilt (content may be unchanged) and the
// number of rules evaluated; the other rules of the stratum were reused.
func RederiveStratum(ctx *engine.Context, stratum []*compiler.RulePlan, stale Stale, store Store) (map[string]relation.Relation, int, error) {
	if compiler.StratumRecursive(stratum) {
		if !stale(stratum) {
			return nil, 0, nil
		}
		before, err := ctx.ReevalStratum(stratum)
		return before, len(stratum), err
	}
	evaluated := 0
	moved := map[string]bool{}
	for i, r := range stratum {
		prev, have := store.Get(r)
		if !stale(stratum[i:i+1]) && have {
			continue
		}
		evaluated++
		res, err := ctx.EvalRule(r, nil)
		if err != nil {
			return nil, evaluated, err
		}
		if !have || !prev.Equal(res) {
			store.Set(r, res)
			moved[r.HeadName] = true
		}
	}
	before := make(map[string]relation.Relation, len(moved))
	for _, r := range stratum {
		if !moved[r.HeadName] {
			continue
		}
		if _, seen := before[r.HeadName]; !seen {
			before[r.HeadName] = ctx.Relation(r.HeadName)
			ctx.Set(r.HeadName, relation.New(r.HeadArity))
		}
		if res, ok := store.Get(r); ok {
			ctx.Set(r.HeadName, ctx.Relation(r.HeadName).Union(res))
		}
	}
	return before, evaluated, nil
}

// ruleRels is the Maintainer's Store: results by rule ID.
type ruleRels map[int]relation.Relation

func (s ruleRels) Get(r *compiler.RulePlan) (relation.Relation, bool) {
	res, ok := s[r.ID]
	return res, ok
}

func (s ruleRels) Set(r *compiler.RulePlan, res relation.Relation) { s[r.ID] = res }

// rederive runs RederiveStratum over the program under the mode's test
// and store (Recompute, Sensitivity, and the latter's initial evaluation).
func (m *Maintainer) rederive(stale Stale, store Store, acc map[string]Delta, old map[string]relation.Relation) error {
	// A trace-recording test leaves its last index installed.
	defer m.ctx.SetSensitivityIndex(nil)
	for _, stratum := range m.prog.Strata {
		before, evaluated, err := RederiveStratum(m.ctx, stratum, stale, store)
		m.Stats.RulesEvaluated += evaluated
		if err != nil {
			return err
		}
		m.Stats.RulesSkipped += len(stratum) - evaluated
		m.recordHeads(acc, old, before)
	}
	return nil
}
