package ivm

import (
	"logicblox/internal/compiler"
	"logicblox/internal/engine"
	"logicblox/internal/relation"
)

// Stale decides whether pending changes can affect a stratum — the
// maintenance unit: one predicate with all its rules, or a recursive
// clique. RederiveStratum evaluates the stratum right after a true answer,
// before anything else is asked — a test that records something about that
// evaluation (Sensitivity's trace) relies on the order.
type Stale func(stratum []*compiler.RulePlan) bool

// RederiveStratum is the stratum-granular maintenance strategy for one
// stratum of ctx: re-evaluated whole when the test calls it stale, left
// alone otherwise. The three users differ only in the test — the
// transaction path's "reads a changed predicate name", Sensitivity's "a
// changed tuple falls in the recorded trace", Recompute's "always". It
// returns the before-image of every head the pass moved — content changed,
// or stored for the first time (even when empty) — and the number of rules
// evaluated. A head the re-evaluation reproduced keeps its previous
// relation value, so versions go on sharing structure.
func RederiveStratum(ctx *engine.Context, stratum []*compiler.RulePlan, stale Stale) (map[string]relation.Relation, int, error) {
	if !stale(stratum) {
		return nil, 0, nil
	}
	stored := map[string]bool{}
	for _, r := range stratum {
		stored[r.HeadName] = ctx.Has(r.HeadName)
	}
	before, err := ctx.ReevalStratum(stratum)
	if err != nil {
		return nil, len(stratum), err
	}
	for head, was := range before {
		if stored[head] && ctx.Relation(head).Equal(was) {
			ctx.Set(head, was)
			delete(before, head)
		}
	}
	return before, len(stratum), nil
}

// rederive runs RederiveStratum over the program under the mode's test
// (Recompute, Sensitivity, and the latter's initial evaluation).
func (m *Maintainer) rederive(stale Stale, acc map[string]Delta, old map[string]relation.Relation) error {
	// A trace-recording test leaves its last index installed.
	defer m.ctx.SetSensitivityIndex(nil)
	for _, stratum := range m.prog.Strata {
		before, evaluated, err := RederiveStratum(m.ctx, stratum, stale)
		m.Stats.RulesEvaluated += evaluated
		if err != nil {
			return err
		}
		m.Stats.RulesSkipped += len(stratum) - evaluated
		m.recordHeads(acc, old, before)
	}
	return nil
}
