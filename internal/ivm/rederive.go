package ivm

import (
	"logicblox/internal/compiler"
	"logicblox/internal/engine"
	"logicblox/internal/lftj"
	"logicblox/internal/obs"
	"logicblox/internal/relation"
	"logicblox/internal/tuple"
)

// Rederive is one walk in Recompute mode over ctx, whose derived
// predicates were up to date before the names in changed moved: every
// stratum the change reaches is re-evaluated whole, the others are left
// alone. It is the transaction path's maintenance (core's rederive), for a
// caller that keeps no maintenance state between passes. It returns the
// delta of every head the walk moved — content changed, or stored for the
// first time (even when empty) — and the work counters.
func Rederive(ctx *engine.Context, changed map[string]bool) (map[string]Delta, Stats, error) {
	m := &Maintainer{mode: Recompute, ctx: ctx}
	acc := map[string]Delta{}
	err := m.walk(changed, acc, map[string]relation.Relation{})
	return acc, m.Stats, err
}

// walk is the one stratum walk every maintainer runs (paper §3.2): the
// program's strata in order, each brought up to date by the operator the
// mode picks for it. changed names what moved without a known delta (the
// caller's set: every head on a first evaluation), acc holds the pending
// deltas and gains every moved head's, and old holds the before-images of
// everything acc names. A stratum is touched when it derives a name in
// changed, or reads one or a name with a pending delta; an untouched
// stratum is skipped. Sensitivity additionally skips a traced stratum no
// pending tuple falls in.
func (m *Maintainer) walk(changed map[string]bool, acc map[string]Delta, old map[string]relation.Relation) error {
	defer m.ctx.SetSensitivityIndex(nil)
	unknown := func(name string) bool { return changed[name] }
	pending := func(name string) bool {
		_, ok := acc[name]
		return ok || changed[name]
	}
	for _, stratum := range m.ctx.Prog.Strata {
		if !touches(stratum, pending) {
			m.Stats.RulesSkipped += len(stratum)
			continue
		}
		known := !touches(stratum, unknown)
		if m.mode == Sensitivity {
			id := stratum[0].ID
			if idx := m.sens[id]; idx != nil && known && !deltaHits(idx, acc) {
				m.Stats.RulesSkipped += len(stratum)
				continue
			}
			m.sens[id] = lftj.NewSensitivityIndex()
			m.ctx.SetSensitivityIndex(m.sens[id])
		}
		before := map[string]relation.Relation{}
		stored := map[string]bool{}
		for _, r := range stratum {
			before[r.HeadName] = m.ctx.Relation(r.HeadName)
			stored[r.HeadName] = m.ctx.Has(r.HeadName)
		}
		rebuilt, sp, err := m.maintain(stratum, known, acc, old)
		if err != nil {
			return err
		}
		for head, was := range before {
			m.record(head, was, stored[head], rebuilt, sp, acc, old)
		}
	}
	return nil
}

// touches reports whether a rule of the stratum derives or reads a name
// for which in holds.
func touches(stratum []*compiler.RulePlan, in func(name string) bool) bool {
	for _, r := range stratum {
		if in(r.HeadName) || r.ReadsAny(in) {
			return true
		}
	}
	return false
}

// maintain brings one touched stratum up to date by the operator the mode
// picks for it; known says every change the stratum sees comes with its
// delta. Counting counts a countable non-recursive stratum (recounting it
// when its deltas are not known) and propagates a monotone change into a
// countable recursive one; DRed runs over-deletion and rederivation on a
// countable stratum no negated predicate of which moved. Everything else
// is re-evaluated whole, which rebuilt reports, together with that
// evaluation's stratum span (nil when untraced).
func (m *Maintainer) maintain(stratum []*compiler.RulePlan, known bool, acc map[string]Delta, old map[string]relation.Relation) (rebuilt bool, sp *obs.Span, err error) {
	countable := countable(stratum)
	recursive := compiler.StratumRecursive(stratum)
	switch {
	case m.mode == Counting && countable && !recursive:
		return false, nil, m.countStratum(stratum, known, acc, old)
	case m.mode == Counting && countable && known && monotone(stratum, acc):
		return false, nil, m.propagateInserts(stratum, acc)
	case m.mode == DRed && countable && known && !negTouched(acc, stratum...):
		return false, nil, m.dredStratum(stratum, acc, old)
	}
	m.Stats.RulesEvaluated += len(stratum)
	_, sp, err = m.ctx.ReevalStratum(stratum)
	return true, sp, err
}

// record is the one place the walk reports what maintaining a stratum did
// to one of its heads, given the head's before-image and whether the
// context stored it. A reproduced head keeps its previous value outright.
// A head re-evaluated from nothing that moved by less than its size is
// stored as its previous value patched by the delta (was − Del ∪ Ins):
// the treap's unique representation makes the patch content- and
// shape-equal to the fresh result, and it shares every untouched subtree
// with the previous version, so versions go on sharing structure and the
// next diff against them costs O(change). A head that moved — content
// changed, or stored for the first time (even when empty) — gets its delta
// in acc and its before-image in old, and the stratum's span gets its
// ins/del counts.
func (m *Maintainer) record(head string, was relation.Relation, stored, rebuilt bool, sp *obs.Span, acc map[string]Delta, old map[string]relation.Relation) {
	now := m.ctx.Relation(head)
	var d Delta
	was.Diff(now,
		func(t tuple.Tuple) { d.Del = append(d.Del, t) },
		func(t tuple.Tuple) { d.Ins = append(d.Ins, t) })
	switch {
	case stored && d.Empty():
		m.ctx.Set(head, was)
		return
	case rebuilt && len(d.Del)+len(d.Ins) < now.Len():
		now = was
		for _, t := range d.Del {
			now = now.Delete(t)
		}
		for _, t := range d.Ins {
			now = now.Insert(t)
		}
	}
	m.ctx.Set(head, now)
	if !d.Empty() {
		sp.AddAttr("ins", int64(len(d.Ins)))
		sp.AddAttr("del", int64(len(d.Del)))
	}
	acc[head] = d
	old[head] = was
}
