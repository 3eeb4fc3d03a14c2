package ivm

import (
	"logicblox/internal/compiler"
	"logicblox/internal/obs"
	"logicblox/internal/relation"
	"logicblox/internal/tuple"
)

// countable reports whether a stratum can be maintained through the delta
// forms of its rules — support counts, over-deletion, semi-naive insertion,
// or, for a non-recursive aggregate stratum, re-folding the groups they
// touch. A predict rule trains or scores a model over its whole body, so
// a stratum containing one is re-evaluated whole.
func countable(stratum []*compiler.RulePlan) bool {
	for _, r := range stratum {
		if r.Predict != nil {
			return false
		}
	}
	return true
}

// aggregates reports whether a rule of the stratum aggregates.
func aggregates(stratum []*compiler.RulePlan) bool {
	for _, r := range stratum {
		if r.Agg != nil {
			return true
		}
	}
	return false
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

// countStratum maintains a countable non-recursive stratum — one head
// predicate — rule by rule, then turns the support transitions into the
// head's new content. A rule is recounted in full when the stratum's
// deltas are not known or a predicate it negates moved, maintained by its
// delta rules when it reads a pending delta, and skipped otherwise.
func (m *Maintainer) countStratum(stratum []*compiler.RulePlan, known bool, acc map[string]Delta, old map[string]relation.Relation) error {
	pending := map[string]presence{}
	for _, r := range stratum {
		var err error
		switch {
		case !known || negTouched(acc, r):
			err = m.recountRule(r, pending)
		case r.ReadsAny(func(name string) bool { return !acc[name].Empty() }):
			err = m.deltaCountRule(r, acc, old, pending)
		default:
			m.Stats.RulesSkipped++
		}
		if err != nil {
			return err
		}
	}
	m.flushPending(stratum[0].HeadName, pending)
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

// flushPending turns the support transitions of pred into its new
// content.
func (m *Maintainer) flushPending(pred string, pending map[string]presence) {
	rel := m.ctx.Relation(pred)
	sup := m.support[pred]
	for key, p := range pending {
		after := sup[key] != nil && sup[key].n > 0
		switch {
		case !p.before && after:
			rel = rel.Insert(p.t)
		case p.before && !after:
			rel = rel.Delete(p.t)
		}
		if !after {
			delete(sup, key)
		}
	}
	m.ctx.Set(pred, rel)
}

// monotone reports whether a pending change can only add to a recursive
// stratum: no body predicate lost tuples and no negated one moved. Counting
// keeps no counts for recursive strata; it propagates such a change with
// semi-naive rounds and re-evaluates the stratum on any other (precise
// DRed for recursive strata is provided by the DRed mode).
func monotone(stratum []*compiler.RulePlan, acc map[string]Delta) bool {
	for _, r := range stratum {
		for _, b := range r.BodyNames {
			if len(acc[b].Del) > 0 {
				return false
			}
		}
	}
	return !negTouched(acc, stratum...)
}

// propagateInserts derives what follows from the pending insertions into
// predicates the rules read from outside their own heads. The caller has
// established that the change is monotone for these rules (see negTouched)
// and has already dealt with deletions.
func (m *Maintainer) propagateInserts(sp *obs.Span, rules []*compiler.RulePlan, acc map[string]Delta) error {
	own := map[string]bool{}
	for _, r := range rules {
		own[r.HeadName] = true
	}
	seeds := map[string]relation.Relation{}
	for _, r := range rules {
		for _, a := range r.Atoms {
			if !own[a.Name] && len(acc[a.Name].Ins) > 0 {
				seeds[a.Name] = relation.FromTuples(m.ctx.Relation(a.Name).Arity(), acc[a.Name].Ins)
			}
		}
	}
	evals, err := m.ctx.PropagateStratum(sp, rules, seeds)
	m.Stats.RulesEvaluated += evals
	return err
}
