package ivm

import (
	"logicblox/internal/compiler"
	"logicblox/internal/obs"
	"logicblox/internal/relation"
	"logicblox/internal/tuple"
)

// Delete-and-rederive (DRed; Gupta, Mumick & Subrahmanian, SIGMOD'93),
// the classical algorithm the paper improves upon. Per stratum:
//
//  1. Over-delete: compute, as one set per head, everything whose
//     derivation may have used a deleted tuple (to a fixpoint within the
//     stratum), and remove it.
//  2. Re-derive: evaluate every rule once, restricted to its head's
//     over-deleted set (engine.Context.Rederivable); what it derives of
//     that set in the reduced state comes back.
//  3. Insert: one semi-naive propagation (PropagateStratum) seeded with
//     the re-derived tuples and the external insertions derives what
//     follows from both — among it every over-deleted tuple whose
//     remaining derivation runs through a re-derived one.
//
// A non-recursive aggregate stratum is re-folded group by group instead;
// a recursive one, one that predicts, or one a predicate of which it
// negates moved, is re-evaluated whole.

func (m *Maintainer) dredStratum(sp *obs.Span, rules []*compiler.RulePlan, acc map[string]Delta, old map[string]relation.Relation) error {
	origin := map[string]relation.Relation{}
	for _, r := range rules {
		origin[r.HeadName] = m.ctx.Relation(r.HeadName)
	}
	oldRelOf := func(name string) (relation.Relation, bool) {
		if o, ok := old[name]; ok {
			return o, true
		}
		if o, ok := origin[name]; ok {
			return o, true
		}
		return relation.Relation{}, false
	}

	// 1. Over-delete to a fixpoint. delSeeds maps predicate name to the
	// deletions not yet propagated.
	delSeeds := map[string]relation.Relation{}
	for _, r := range rules {
		for _, a := range r.Atoms {
			if _, own := origin[a.Name]; !own && len(acc[a.Name].Del) > 0 {
				delSeeds[a.Name] = relation.FromTuples(m.ctx.Relation(a.Name).Arity(), acc[a.Name].Del)
			}
		}
	}
	overdeleted := map[string]relation.Relation{}
	for h, rel := range origin {
		overdeleted[h] = relation.New(rel.Arity())
	}
	for len(delSeeds) > 0 {
		if err := m.ctx.Err(); err != nil {
			return err
		}
		fresh := map[string]relation.Relation{}
		for _, r := range rules {
			for ai, a := range r.Atoms {
				seeds, ok := delSeeds[a.Name]
				if !ok {
					continue
				}
				m.Stats.RulesEvaluated++
				overrides := map[int]relation.Relation{ai: seeds}
				// Other atoms read the ORIGINAL (pre-batch) state so every
				// derivation that possibly used a deleted tuple is found,
				// and every head found is in origin already.
				for j, b := range r.Atoms {
					if j == ai {
						continue
					}
					if o, ok := oldRelOf(b.Name); ok {
						overrides[j] = o
					}
				}
				var heads []tuple.Tuple
				err := m.ctx.EnumerateRuleHeads(r, overrides, func(head tuple.Tuple) bool {
					heads = append(heads, head)
					return true
				})
				if err != nil {
					return err
				}
				h := r.HeadName
				out := relation.FromTuples(r.HeadArity, heads)
				if out = out.Difference(overdeleted[h]); !out.IsEmpty() {
					overdeleted[h] = overdeleted[h].Union(out)
					fresh[h] = out.Union(fresh[h])
				}
			}
		}
		delSeeds = fresh
	}

	// 2. Remove the over-deleted tuples, then re-derive those of them that
	// keep a derivation in the reduced (but insertion-updated) state.
	for h, od := range overdeleted {
		m.ctx.Set(h, m.ctx.Relation(h).Difference(od))
	}
	rederived := map[string]relation.Relation{}
	for _, r := range rules {
		h := r.HeadName
		if overdeleted[h].IsEmpty() {
			continue
		}
		m.Stats.RederiveChecks++
		back, err := m.ctx.Rederivable(r, overdeleted[h])
		if err != nil {
			return err
		}
		if !back.IsEmpty() {
			m.ctx.Set(h, m.ctx.Relation(h).Union(back))
			rederived[h] = back.Union(rederived[h])
		}
	}

	// 3. Insert: one semi-naive propagation of the re-derived tuples and
	// the external insertions.
	return m.propagateInserts(sp, rules, acc, rederived)
}
