package ivm

import (
	"logicblox/internal/compiler"
	"logicblox/internal/engine"
	"logicblox/internal/relation"
	"logicblox/internal/tuple"
)

// Stale decides whether pending changes can affect a stratum — the
// maintenance unit: one predicate with all its rules, or a recursive
// clique. RederiveStratum evaluates the stratum right after a true answer,
// before anything else is asked — a test that records something about that
// evaluation (Sensitivity's trace) relies on the order.
type Stale func(stratum []*compiler.RulePlan) bool

// Moved is what a RederiveStratum pass did to one head: its before-image
// and the exact delta from it to the value now stored.
type Moved struct {
	Before relation.Relation
	Delta
}

// RederiveStratum is the stratum-granular maintenance strategy for one
// stratum of ctx: re-evaluated whole when the test calls it stale, left
// alone otherwise. The three users differ only in the test — the
// transaction path's "reads a changed predicate name", Sensitivity's "a
// changed tuple falls in the recorded trace", Recompute's "always". It
// returns every head the pass moved — content changed, or stored for the
// first time (even when empty) — and the number of rules evaluated. A head
// that moved by less than its size is stored as its previous value
// patched by the delta (was − Del ∪ Ins): the treap's unique
// representation makes the patch content- and shape-equal to the fresh
// result, and it shares every untouched subtree with the previous version,
// so versions go on sharing structure and the next diff against them costs
// O(change). A reproduced head keeps its previous value outright; one
// rebuilt wholesale (a first evaluation, say) keeps the fresh result, as
// there is nothing to share. The stratum's span gets the moved heads'
// ins/del counts.
func RederiveStratum(ctx *engine.Context, stratum []*compiler.RulePlan, stale Stale) (map[string]Moved, int, error) {
	if !stale(stratum) {
		return nil, 0, nil
	}
	stored := map[string]bool{}
	for _, r := range stratum {
		stored[r.HeadName] = ctx.Has(r.HeadName)
	}
	before, sp, err := ctx.ReevalStratum(stratum)
	if err != nil {
		return nil, len(stratum), err
	}
	moved := map[string]Moved{}
	for head, was := range before {
		fresh := ctx.Relation(head)
		mv := Moved{Before: was}
		was.Diff(fresh,
			func(t tuple.Tuple) { mv.Del = append(mv.Del, t) },
			func(t tuple.Tuple) { mv.Ins = append(mv.Ins, t) })
		switch {
		case stored[head] && mv.Empty():
			ctx.Set(head, was)
			continue
		case len(mv.Del)+len(mv.Ins) < fresh.Len():
			patched := was
			for _, t := range mv.Del {
				patched = patched.Delete(t)
			}
			for _, t := range mv.Ins {
				patched = patched.Insert(t)
			}
			ctx.Set(head, patched)
		}
		if !mv.Empty() {
			sp.AddAttr("ins", int64(len(mv.Ins)))
			sp.AddAttr("del", int64(len(mv.Del)))
		}
		moved[head] = mv
	}
	return moved, len(stratum), nil
}

// rederive runs RederiveStratum over the program under the mode's test
// (Recompute, Sensitivity, and the latter's initial evaluation).
func (m *Maintainer) rederive(stale Stale, acc map[string]Delta, old map[string]relation.Relation) error {
	// A trace-recording test leaves its last index installed.
	defer m.ctx.SetSensitivityIndex(nil)
	for _, stratum := range m.prog.Strata {
		moved, evaluated, err := RederiveStratum(m.ctx, stratum, stale)
		m.Stats.RulesEvaluated += evaluated
		if err != nil {
			return err
		}
		m.Stats.RulesSkipped += len(stratum) - evaluated
		for head, mv := range moved {
			m.recordMoved(acc, old, head, mv)
		}
	}
	return nil
}
