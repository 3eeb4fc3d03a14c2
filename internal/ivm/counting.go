package ivm

import (
	"logicblox/internal/compiler"
	"logicblox/internal/relation"
	"logicblox/internal/tuple"
)

// countable reports whether a stratum can be maintained through the delta
// forms of its rules — support counts, over-deletion, semi-naive insertion.
// An aggregation or predict rule has none, so a stratum containing one is
// recomputed (recomputeStratum).
func countable(stratum []*compiler.RulePlan) bool {
	for _, r := range stratum {
		if r.Agg != nil || r.Predict != nil {
			return false
		}
	}
	return true
}

// initialCountingEval evaluates the program stratum by stratum. The strata
// maintained by counting — countable and not recursive, hence one head
// predicate with all its rules — are recounted from nothing, which records
// their derivation counts.
func (m *Maintainer) initialCountingEval() error {
	for _, stratum := range m.prog.Strata {
		if !countable(stratum) || compiler.StratumRecursive(stratum) {
			if err := m.ctx.EvalStratum(stratum); err != nil {
				return err
			}
			continue
		}
		pending := map[string]presence{}
		for _, r := range stratum {
			if err := m.recountRule(r, pending); err != nil {
				return err
			}
		}
		m.flushPending(stratum[0].HeadName, pending, map[string]Delta{}, map[string]relation.Relation{})
	}
	return nil
}

// countInto returns an EnumerateRuleHeads callback that counts each head
// tuple's derivations in counts.
func countInto(counts map[string]*crec) func(tuple.Tuple) bool {
	return func(head tuple.Tuple) bool {
		k := head.String()
		rec, ok := counts[k]
		if !ok {
			rec = &crec{t: head.Clone()}
			counts[k] = rec
		}
		rec.n++
		return true
	}
}

// applyCounting maintains each stratum with delta rules and support
// counting.
func (m *Maintainer) applyCounting(acc map[string]Delta, old map[string]relation.Relation) error {
	for _, stratum := range m.prog.Strata {
		var err error
		switch {
		case !stratumTouched(stratum, acc):
			m.Stats.RulesSkipped += len(stratum)
		case !countable(stratum):
			err = m.recomputeStratum(stratum, acc, old)
		case compiler.StratumRecursive(stratum):
			err = m.maintainRecursiveStratum(stratum, acc, old)
		default:
			err = m.countStratum(stratum, acc, old)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// countStratum maintains a countable non-recursive stratum — one head
// predicate — rule by rule, then turns the support transitions into the
// head's delta.
func (m *Maintainer) countStratum(stratum []*compiler.RulePlan, acc map[string]Delta, old map[string]relation.Relation) error {
	pending := map[string]presence{}
	for _, r := range stratum {
		if !r.ReadsAny(changedIn(acc)) {
			m.Stats.RulesSkipped++
			continue
		}
		var err error
		if negTouched(acc, r) {
			err = m.recountRule(r, pending)
		} else {
			err = m.deltaCountRule(r, acc, old, pending)
		}
		if err != nil {
			return err
		}
	}
	m.flushPending(stratum[0].HeadName, pending, acc, old)
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
	old map[string]relation.Relation, pending map[string]presence) error {
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

// adjust changes the derivation count of one head tuple of r by n,
// remembering in pending whether the tuple had support before the batch.
func (m *Maintainer) adjust(r *compiler.RulePlan, head tuple.Tuple, n int, pending map[string]presence) {
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
	rec.n += n

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
	if _, seen := pending[key]; !seen {
		pending[key] = presence{t: srec.t, before: srec.n > 0}
	}
	srec.n += n
}

// recountRule fully re-enumerates one rule (used when a negated dependency
// changed, where delta rules do not apply) and reconciles its counts:
// the old ones retracted, the new ones added, via adjust to keep pending in
// sync.
func (m *Maintainer) recountRule(r *compiler.RulePlan, pending map[string]presence) error {
	m.Stats.RulesEvaluated++
	fresh := map[string]*crec{}
	if err := m.ctx.EnumerateRuleHeads(r, nil, countInto(fresh)); err != nil {
		return err
	}
	for _, rec := range m.ruleCounts[r.ID] {
		m.adjust(r, rec.t, -rec.n, pending)
	}
	m.ruleCounts[r.ID] = map[string]*crec{}
	for _, rec := range fresh {
		m.adjust(r, rec.t, rec.n, pending)
	}
	return nil
}

// flushPending converts the support transitions of pred into its relation
// update and delta.
func (m *Maintainer) flushPending(pred string, pending map[string]presence, acc map[string]Delta, old map[string]relation.Relation) {
	rel := m.ctx.Relation(pred)
	orig := rel
	d := acc[pred]
	sup := m.support[pred]
	for key, p := range pending {
		after := sup[key] != nil && sup[key].n > 0
		switch {
		case !p.before && after:
			rel = rel.Insert(p.t)
			d.Ins = append(d.Ins, p.t)
		case p.before && !after:
			rel = rel.Delete(p.t)
			d.Del = append(d.Del, p.t)
		}
		if !after {
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

// maintainRecursiveStratum handles a recursive stratum without counts:
// insert-only changes propagate with semi-naive rounds; a deletion, or any
// change to a negated predicate, forces a stratum recomputation (precise
// DRed for recursive strata is provided by the DRed mode).
func (m *Maintainer) maintainRecursiveStratum(stratum []*compiler.RulePlan, acc map[string]Delta, old map[string]relation.Relation) error {
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
	before, _, err := m.ctx.ReevalStratum(rules)
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
