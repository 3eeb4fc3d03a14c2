package ivm

import (
	"logicblox/internal/compiler"
	"logicblox/internal/relation"
	"logicblox/internal/tuple"
)

// countable reports whether a rule's derivations can be maintained by
// support counting: plain rules outside recursive strata. Aggregation and
// predict rules are maintained by per-rule recomputation.
func countable(r *compiler.RulePlan) bool {
	return r.Agg == nil && r.Predict == nil
}

// initialCountingEval evaluates the program stratum by stratum, recording
// derivation counts for countable rules.
func (m *Maintainer) initialCountingEval() error {
	for _, stratum := range m.prog.Strata {
		if compiler.StratumRecursive(stratum) {
			// Recursive strata are maintained without counts.
			if err := m.ctx.EvalStratum(stratum); err != nil {
				return err
			}
			continue
		}
		touchedHeads := map[string]bool{}
		for _, r := range stratum {
			if !countable(r) {
				derived, err := m.ctx.EvalRule(r, nil)
				if err != nil {
					return err
				}
				m.ctx.Set(r.HeadName, m.ctx.Relation(r.HeadName).Union(derived))
				continue
			}
			counts := map[string]*crec{}
			err := m.ctx.EnumerateRuleHeads(r, nil, func(head tuple.Tuple) bool {
				k := head.String()
				rec, ok := counts[k]
				if !ok {
					rec = &crec{t: head.Clone()}
					counts[k] = rec
				}
				rec.n++
				return true
			})
			if err != nil {
				return err
			}
			m.ruleCounts[r.ID] = counts
			for k, rec := range counts {
				m.bumpSupport(r.HeadName, k, rec.t, rec.n)
			}
			touchedHeads[r.HeadName] = true
		}
		for head := range touchedHeads {
			m.rebuildFromSupport(head)
		}
	}
	return nil
}

func (m *Maintainer) bumpSupport(pred, key string, t tuple.Tuple, delta int) {
	sup, ok := m.support[pred]
	if !ok {
		sup = map[string]*crec{}
		m.support[pred] = sup
	}
	rec, ok := sup[key]
	if !ok {
		rec = &crec{t: t.Clone()}
		sup[key] = rec
	}
	rec.n += delta
}

// rebuildFromSupport sets pred's relation to the tuples with positive
// support (initial build only).
func (m *Maintainer) rebuildFromSupport(pred string) {
	rel := m.ctx.Relation(pred)
	for key, rec := range m.support[pred] {
		if rec.n > 0 {
			rel = rel.Insert(rec.t)
		} else {
			delete(m.support[pred], key)
		}
	}
	m.ctx.Set(pred, rel)
}

// applyCounting maintains each stratum with delta rules and support
// counting.
func (m *Maintainer) applyCounting(acc map[string]Delta, old map[string]relation.Relation) error {
	for _, stratum := range m.prog.Strata {
		if compiler.StratumRecursive(stratum) {
			if err := m.maintainRecursiveStratum(stratum, acc, old); err != nil {
				return err
			}
			continue
		}
		// pending presence transitions per head pred of this stratum.
		pending := map[string]map[string]presence{}
		for _, r := range stratum {
			if !r.ReadsAny(changedIn(acc)) {
				m.Stats.RulesSkipped++
				continue
			}
			var err error
			if countable(r) && !negTouched(acc, r) {
				err = m.deltaCountRule(r, acc, old, pending)
			} else if countable(r) {
				err = m.recountRule(r, pending)
			} else {
				err = m.recomputeUncounted(r, acc, old)
			}
			if err != nil {
				return err
			}
		}
		m.flushPending(pending, acc, old)
	}
	return nil
}

// presence tracks whether a head tuple was present before the batch.
type presence struct {
	t      tuple.Tuple
	before bool
}

// negTouched reports whether a predicate one of the rules negates has a
// pending change. Delta rules, over-deletion and semi-naive insertion are
// all monotone arguments: none of them applies then, in either direction
// (an insertion into a negated predicate retracts derivations).
func negTouched(acc map[string]Delta, rules ...*compiler.RulePlan) bool {
	for _, r := range rules {
		for _, n := range r.NegNames {
			if !acc[n].Empty() {
				return true
			}
		}
	}
	return false
}

// deltaCountRule applies the classical delta-rule decomposition:
// Δ(A1 ⋈ … ⋈ Ak) = Σ_i (A1ⁿᵉʷ … A_{i-1}ⁿᵉʷ ⋈ ΔA_i ⋈ A_{i+1}ᵒˡᵈ … A_kᵒˡᵈ),
// adjusting derivation counts by +1 for insertions and −1 for deletions.
func (m *Maintainer) deltaCountRule(r *compiler.RulePlan, acc map[string]Delta,
	old map[string]relation.Relation, pending map[string]map[string]presence) error {
	arityOf := func(name string) int { return m.ctx.Relation(name).Arity() }
	oldRel := func(name string) (relation.Relation, bool) {
		if o, ok := old[name]; ok {
			return o, true
		}
		return relation.Relation{}, false
	}
	for i := range r.Atoms {
		d := acc[r.Atoms[i].Name]
		if d.Empty() {
			continue
		}
		overrides := map[int]relation.Relation{}
		for j := i + 1; j < len(r.Atoms); j++ {
			if o, ok := oldRel(r.Atoms[j].Name); ok {
				overrides[j] = o
			}
		}
		run := func(part []tuple.Tuple, sign int) error {
			if len(part) == 0 {
				return nil
			}
			overrides[i] = relation.FromTuples(arityOf(r.Atoms[i].Name), part)
			m.Stats.RulesEvaluated++
			return m.ctx.EnumerateRuleHeads(r, overrides, func(head tuple.Tuple) bool {
				m.adjust(r, head, sign, pending)
				return true
			})
		}
		if err := run(d.Ins, +1); err != nil {
			return err
		}
		if err := run(d.Del, -1); err != nil {
			return err
		}
		delete(overrides, i)
	}
	return nil
}

// adjust applies a count change for one derivation of a head tuple.
func (m *Maintainer) adjust(r *compiler.RulePlan, head tuple.Tuple, sign int, pending map[string]map[string]presence) {
	key := head.String()
	counts := m.ruleCounts[r.ID]
	if counts == nil {
		counts = map[string]*crec{}
		m.ruleCounts[r.ID] = counts
	}
	rec, ok := counts[key]
	if !ok {
		rec = &crec{t: head.Clone()}
		counts[key] = rec
	}
	rec.n += sign

	p := pending[r.HeadName]
	if p == nil {
		p = map[string]presence{}
		pending[r.HeadName] = p
	}
	sup, ok := m.support[r.HeadName]
	if !ok {
		sup = map[string]*crec{}
		m.support[r.HeadName] = sup
	}
	srec, ok := sup[key]
	if !ok {
		srec = &crec{t: head.Clone()}
		sup[key] = srec
	}
	if _, seen := p[key]; !seen {
		p[key] = presence{t: srec.t, before: srec.n > 0}
	}
	srec.n += sign
}

// recountRule fully re-enumerates one countable rule (used when a negated
// dependency changed, where delta rules do not apply) and reconciles its
// counts.
func (m *Maintainer) recountRule(r *compiler.RulePlan, pending map[string]map[string]presence) error {
	m.Stats.RulesEvaluated++
	fresh := map[string]*crec{}
	err := m.ctx.EnumerateRuleHeads(r, nil, func(head tuple.Tuple) bool {
		k := head.String()
		rec, ok := fresh[k]
		if !ok {
			rec = &crec{t: head.Clone()}
			fresh[k] = rec
		}
		rec.n++
		return true
	})
	if err != nil {
		return err
	}
	prev := m.ruleCounts[r.ID]
	// Retract old counts, add new ones, via adjust to keep pending in
	// sync. The retraction bound must be snapshotted: adjust decrements
	// rec.n itself (prev is the live per-rule count map), so looping on
	// rec.n directly would stop halfway and leave stale support behind.
	for _, rec := range prev {
		n := rec.n
		for i := 0; i < n; i++ {
			m.adjust(r, rec.t, -1, pending)
		}
	}
	m.ruleCounts[r.ID] = map[string]*crec{}
	for _, rec := range fresh {
		for i := 0; i < rec.n; i++ {
			m.adjust(r, rec.t, +1, pending)
		}
	}
	return nil
}

// recomputeUncounted re-evaluates an aggregation/predict rule and diffs
// its head predicate wholesale (such rules are assumed to be the only
// writers of their head predicate).
func (m *Maintainer) recomputeUncounted(r *compiler.RulePlan, acc map[string]Delta, old map[string]relation.Relation) error {
	m.Stats.RulesEvaluated++
	derived, err := m.ctx.EvalRule(r, nil)
	if err != nil {
		return err
	}
	before := map[string]relation.Relation{r.HeadName: m.ctx.Relation(r.HeadName)}
	m.ctx.Set(r.HeadName, derived)
	m.recordHeads(acc, old, before)
	return nil
}

// flushPending converts support transitions into relation updates and
// head-predicate deltas.
func (m *Maintainer) flushPending(pending map[string]map[string]presence, acc map[string]Delta, old map[string]relation.Relation) {
	for pred, keys := range pending {
		rel := m.ctx.Relation(pred)
		orig := rel
		d := acc[pred]
		sup := m.support[pred]
		for key, p := range keys {
			after := sup[key] != nil && sup[key].n > 0
			switch {
			case !p.before && after:
				rel = rel.Insert(p.t)
				d.Ins = append(d.Ins, p.t)
			case p.before && !after:
				rel = rel.Delete(p.t)
				d.Del = append(d.Del, p.t)
			}
			if sup[key] != nil && sup[key].n <= 0 {
				delete(sup, key)
			}
		}
		if !rel.Equal(orig) {
			if _, ok := old[pred]; !ok {
				old[pred] = orig
			}
			m.ctx.Set(pred, rel)
		}
		if !d.Empty() {
			acc[pred] = d
		}
	}
}

// maintainRecursiveStratum handles a recursive stratum without counts:
// insert-only changes propagate with semi-naive rounds; a deletion, or any
// change to a negated predicate, forces a stratum recomputation (precise
// DRed for recursive strata is provided by the DRed mode).
func (m *Maintainer) maintainRecursiveStratum(stratum []*compiler.RulePlan, acc map[string]Delta, old map[string]relation.Relation) error {
	if !stratumTouched(stratum, acc) {
		m.Stats.RulesSkipped += len(stratum)
		return nil
	}
	monotone := !negTouched(acc, stratum...)
	for _, r := range stratum {
		for _, b := range r.BodyNames {
			if len(acc[b].Del) > 0 {
				monotone = false
			}
		}
	}
	if !monotone {
		return m.recomputeStratum(stratum, acc, old)
	}
	before := map[string]relation.Relation{}
	for _, r := range stratum {
		before[r.HeadName] = m.ctx.Relation(r.HeadName)
	}
	if err := m.propagateInserts(stratum, acc, before); err != nil {
		return err
	}
	m.recordHeads(acc, old, before)
	return nil
}

// recomputeStratum clears the stratum's head predicates and re-evaluates.
func (m *Maintainer) recomputeStratum(rules []*compiler.RulePlan, acc map[string]Delta, old map[string]relation.Relation) error {
	m.Stats.RulesEvaluated += len(rules)
	before, err := m.ctx.ReevalStratum(rules)
	if err != nil {
		return err
	}
	m.recordHeads(acc, old, before)
	return nil
}

// propagateInserts derives what follows from the pending insertions into
// predicates the rules read from outside (heads names the rules' own head
// predicates). The caller has established that the change is monotone for
// these rules (see negTouched) and has already dealt with deletions.
func (m *Maintainer) propagateInserts(rules []*compiler.RulePlan, acc map[string]Delta, heads map[string]relation.Relation) error {
	seeds := map[string]relation.Relation{}
	for _, r := range rules {
		for _, a := range r.Atoms {
			if _, own := heads[a.Name]; !own && len(acc[a.Name].Ins) > 0 {
				seeds[a.Name] = relation.FromTuples(m.ctx.Relation(a.Name).Arity(), acc[a.Name].Ins)
			}
		}
	}
	evals, err := m.ctx.PropagateStratum(rules, seeds)
	m.Stats.RulesEvaluated += evals
	return err
}
