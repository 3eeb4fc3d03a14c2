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
//  1. Over-delete: compute everything whose derivation may have used a
//     deleted tuple (to a fixpoint within the stratum) and remove it.
//  2. Re-derive: over-deleted tuples that still have an alternative
//     derivation in the reduced state are reinserted (using pinned
//     derivability probes).
//  3. Insert: propagate insertions semi-naively.
//
// A non-recursive aggregate stratum is re-folded group by group instead;
// a recursive one, one that predicts, or one a predicate of which it
// negates moved, is re-evaluated whole.

func (m *Maintainer) dredStratum(sp *obs.Span, rules []*compiler.RulePlan, acc map[string]Delta, old map[string]relation.Relation) error {
	rulesByHead := map[string][]*compiler.RulePlan{}
	origin := map[string]relation.Relation{}
	for _, r := range rules {
		rulesByHead[r.HeadName] = append(rulesByHead[r.HeadName], r)
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
	delSeeds := map[string][]tuple.Tuple{}
	for _, r := range rules {
		for _, a := range r.Atoms {
			if _, own := origin[a.Name]; !own && len(acc[a.Name].Del) > 0 {
				delSeeds[a.Name] = acc[a.Name].Del
			}
		}
	}
	overdeleted := map[string]map[string]tuple.Tuple{}
	for len(delSeeds) > 0 {
		if err := m.ctx.Err(); err != nil {
			return err
		}
		next := map[string][]tuple.Tuple{}
		for _, r := range rules {
			for ai, a := range r.Atoms {
				seeds, ok := delSeeds[a.Name]
				if !ok {
					continue
				}
				m.Stats.RulesEvaluated++
				overrides := map[int]relation.Relation{
					ai: relation.FromTuples(m.ctx.Relation(a.Name).Arity(), seeds),
				}
				// Other atoms read the ORIGINAL (pre-batch) state so every
				// derivation that possibly used a deleted tuple is found.
				for j, b := range r.Atoms {
					if j == ai {
						continue
					}
					if o, ok := oldRelOf(b.Name); ok {
						overrides[j] = o
					}
				}
				err := m.ctx.EnumerateRuleHeads(r, overrides, func(head tuple.Tuple) bool {
					od := overdeleted[r.HeadName]
					if od == nil {
						od = map[string]tuple.Tuple{}
						overdeleted[r.HeadName] = od
					}
					k := head.String()
					if _, seen := od[k]; !seen && origin[r.HeadName].Contains(head) {
						od[k] = head.Clone()
						next[r.HeadName] = append(next[r.HeadName], head.Clone())
					}
					return true
				})
				if err != nil {
					return err
				}
			}
		}
		delSeeds = next
	}

	// 2. Apply over-deletions.
	for h, od := range overdeleted {
		rel := m.ctx.Relation(h)
		for _, t := range od {
			rel = rel.Delete(t)
		}
		m.ctx.Set(h, rel)
	}

	// 3. Re-derive: over-deleted tuples with an alternative derivation in
	// the reduced (but insertion-updated) state come back; rederived
	// tuples can support further rederivations, so iterate.
	changedSomething := true
	for changedSomething {
		if err := m.ctx.Err(); err != nil {
			return err
		}
		changedSomething = false
		for h, od := range overdeleted {
			for k, t := range od {
				still := false
				for _, r := range rulesByHead[h] {
					m.Stats.RederiveChecks++
					ok, err := m.ctx.PinnedDerivable(r, t)
					if err != nil {
						return err
					}
					if ok {
						still = true
						break
					}
				}
				if still {
					m.ctx.Set(h, m.ctx.Relation(h).Insert(t))
					delete(od, k)
					changedSomething = true
				}
			}
		}
	}

	// 4. Insert: semi-naive propagation of external insertions.
	return m.propagateInserts(sp, rules, acc)
}
