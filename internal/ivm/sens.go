package ivm

import (
	"logicblox/internal/compiler"
	"logicblox/internal/lftj"
	"logicblox/internal/relation"
)

// Sensitivity-guided maintenance (the LogicBlox strategy, paper §3.2):
// every rule evaluation records the sensitivity intervals of its leapfrog
// runs; a change batch first probes those intervals, and rules whose
// recorded trace the changes cannot intersect are skipped without running
// any join. Affected rules are re-derived (recording a fresh trace) and
// their head predicates updated by structural diff. Per-rule results are
// kept separately so multiple rules deriving one predicate stay correct.

// initialSensitivityEval evaluates all strata, recording one sensitivity
// index per rule (per stratum for recursive strata) and keeping per-rule
// result relations.
func (m *Maintainer) initialSensitivityEval() error {
	if m.ruleRel == nil {
		m.ruleRel = map[int]relation.Relation{}
	}
	for si, stratum := range m.prog.Strata {
		if compiler.StratumRecursive(stratum) {
			idx := lftj.NewSensitivityIndex()
			m.stratumSens[si] = idx
			m.ctx.SetSensitivityIndex(idx)
			if err := m.ctx.EvalStratum(stratum); err != nil {
				m.ctx.SetSensitivityIndex(nil)
				return err
			}
			m.ctx.SetSensitivityIndex(nil)
			continue
		}
		touched := map[string]bool{}
		for _, r := range stratum {
			idx := lftj.NewSensitivityIndex()
			m.ruleSens[r.ID] = idx
			m.ctx.SetSensitivityIndex(idx)
			derived, err := m.ctx.EvalRule(r, nil)
			m.ctx.SetSensitivityIndex(nil)
			if err != nil {
				return err
			}
			m.ruleRel[r.ID] = derived
			touched[r.HeadName] = true
		}
		for head := range touched {
			m.refreshHeadFromRuleRels(head, stratum)
		}
	}
	return nil
}

// refreshHeadFromRuleRels sets head to the union of its rules' results.
func (m *Maintainer) refreshHeadFromRuleRels(head string, stratum []*compiler.RulePlan) {
	rel := relation.New(m.ctx.Relation(head).Arity())
	for _, r := range stratum {
		if r.HeadName != head {
			continue
		}
		if rr, ok := m.ruleRel[r.ID]; ok {
			rel = rel.Union(rr)
		}
	}
	m.ctx.Set(head, rel)
}

// deltaHits reports whether any pending change intersects idx.
func deltaHits(idx *lftj.SensitivityIndex, acc map[string]Delta) bool {
	for name, d := range acc {
		for _, t := range d.Ins {
			if idx.Affected(name, t) {
				return true
			}
		}
		for _, t := range d.Del {
			if idx.Affected(name, t) {
				return true
			}
		}
	}
	return false
}

// applySensitivity maintains each stratum, skipping rules whose recorded
// trace the change batch cannot intersect.
func (m *Maintainer) applySensitivity(acc map[string]Delta, old map[string]relation.Relation) error {
	for si, stratum := range m.prog.Strata {
		if compiler.StratumRecursive(stratum) {
			idx := m.stratumSens[si]
			if idx == nil || !deltaHits(idx, acc) {
				m.Stats.RulesSkipped += len(stratum)
				continue
			}
			// Recompute the stratum with a fresh trace.
			heads := map[string]bool{}
			for _, r := range stratum {
				heads[r.HeadName] = true
			}
			origin := map[string]relation.Relation{}
			for h := range heads {
				origin[h] = m.ctx.Relation(h)
				m.ctx.Set(h, relation.New(origin[h].Arity()))
			}
			fresh := lftj.NewSensitivityIndex()
			m.stratumSens[si] = fresh
			m.ctx.SetSensitivityIndex(fresh)
			m.Stats.RulesEvaluated += len(stratum)
			err := m.ctx.EvalStratum(stratum)
			m.ctx.SetSensitivityIndex(nil)
			if err != nil {
				return err
			}
			for h := range heads {
				cur := m.ctx.Relation(h)
				if !cur.Equal(origin[h]) {
					if _, ok := old[h]; !ok {
						old[h] = origin[h]
					}
					recordDiff(acc, h, origin[h], cur)
				}
			}
			continue
		}

		touched := map[string]bool{}
		for _, r := range stratum {
			idx := m.ruleSens[r.ID]
			if idx == nil || !deltaHits(idx, acc) {
				m.Stats.RulesSkipped++
				continue
			}
			freshIdx := lftj.NewSensitivityIndex()
			m.ruleSens[r.ID] = freshIdx
			m.ctx.SetSensitivityIndex(freshIdx)
			m.Stats.RulesEvaluated++
			derived, err := m.ctx.EvalRule(r, nil)
			m.ctx.SetSensitivityIndex(nil)
			if err != nil {
				return err
			}
			if prev, ok := m.ruleRel[r.ID]; !ok || !prev.Equal(derived) {
				m.ruleRel[r.ID] = derived
				touched[r.HeadName] = true
			}
		}
		for head := range touched {
			orig := m.ctx.Relation(head)
			m.refreshHeadFromRuleRels(head, stratum)
			cur := m.ctx.Relation(head)
			if !cur.Equal(orig) {
				if _, ok := old[head]; !ok {
					old[head] = orig
				}
				recordDiff(acc, head, orig, cur)
			}
		}
	}
	return nil
}

// SensitivityProbes reports how many intervals are currently recorded
// (for diagnostics and benchmarks).
func (m *Maintainer) SensitivityProbes() int {
	n := 0
	for _, idx := range m.ruleSens {
		n += idx.Len()
	}
	for _, idx := range m.stratumSens {
		n += idx.Len()
	}
	return n
}
