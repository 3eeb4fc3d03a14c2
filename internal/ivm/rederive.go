package ivm

import (
	"logicblox/internal/compiler"
	"logicblox/internal/engine"
	"logicblox/internal/obs"
	"logicblox/internal/relation"
)

// Rederive is one walk in DRed mode over ctx, whose derived predicates
// were up to date before the change: pending holds the exact deltas of the
// names that moved with one (a transaction's base predicates), before
// their contents beforehand, and changed names what moved without a known
// delta (the heads of an addblock's or removeblock's changed rules, a
// query's rules, a restore's or a solve's predicates). A stratum that
// derives or reads a name in changed would be re-evaluated whole: with a
// memo (nil: none) it is first looked up there, and on a hit the
// remembered heads are maintained by the diff of their inputs instead
// (Memo). From then on the delta of every head it derives is known. A
// stratum reading only known deltas is maintained by them — DRed, or for
// an aggregate its touched groups updated by their signed delta or
// re-folded. The walk consumes changed. DRed and RefoldStratum keep no
// state between passes, and the memo is the only structure the walk keeps
// across them; this is the transaction path's maintenance (core's
// rederive). It returns the delta of every head the walk moved — content
// changed, or stored for the first time (even when empty) — and the work
// counters.
func Rederive(ctx *engine.Context, memo *Memo, changed map[string]bool, pending map[string]Delta, before map[string]relation.Relation) (map[string]Delta, Stats, error) {
	m := &Maintainer{mode: DRed, ctx: ctx, memo: memo}
	acc := make(map[string]Delta, len(pending))
	old := make(map[string]relation.Relation, len(pending))
	for name, d := range pending {
		acc[name], old[name] = d, before[name]
	}
	err := m.walk(changed, acc, old)
	for name := range pending {
		delete(acc, name)
	}
	return acc, m.Stats, err
}

// walk is the one stratum walk every maintainer runs (paper §3.2): the
// program's strata in order, each brought up to date by the operator the
// mode picks for it. changed names what moved without a known delta (the
// caller's set: every head on a first evaluation), acc holds the pending
// deltas and gains every moved head's, and old holds the before-images of
// everything acc names. A stratum is touched when it derives a name in
// changed, or reads one or a name with a pending delta; an untouched
// stratum is skipped. Once its stratum is maintained, a head's delta is
// known, so the walk deletes it from changed: a reader of a changed head
// is maintained by that delta like any other, and a changed head that did
// not move reaches no reader. A stratum that derives or reads a name in
// changed is looked up in the memo first when the maintainer has one
// (fromMemo), and remembered after.
func (m *Maintainer) walk(changed map[string]bool, acc map[string]Delta, old map[string]relation.Relation) error {
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
		before := map[string]relation.Relation{}
		stored := map[string]bool{}
		for _, r := range stratum {
			before[r.HeadName] = m.ctx.Relation(r.HeadName)
			stored[r.HeadName] = m.ctx.Has(r.HeadName)
		}
		sp := m.ctx.StratumSpan(stratum)
		memoized := !known && m.memoizes(stratum)
		var by string
		var err error
		if memoized {
			by, err = m.fromMemo(sp, stratum)
		} else {
			by, err = m.maintain(sp, stratum, known, acc, old)
		}
		sp.SetLabel("maintained_by", by)
		if err != nil {
			sp.End()
			return err
		}
		for head, was := range before {
			m.record(head, was, stored[head], by == byReeval || by == byMemo, sp, acc, old)
			delete(changed, head)
		}
		if memoized {
			m.remember(stratum)
		}
		sp.End()
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

// The operators a stratum can be maintained by, as the maintained_by
// label of its stratum span reads.
const (
	bySigned    = "signed"
	byRefold    = "refold"
	byDRed      = "dred"
	byCount     = "count"
	byPropagate = "propagate"
	byReeval    = "reeval"
	byMemo      = "memo"
)

// operator names the operator maintain runs on one touched stratum; known
// says every change the stratum sees comes with its delta in acc. Counting
// and DRed maintain the touched groups of a non-recursive aggregate
// stratum with known deltas no negated predicate of which moved by their
// signed delta or a re-fold (RefoldStratum, which may itself fall back to
// a whole re-evaluation); any other aggregate stratum — a recursive
// clique holding an aggregate among them — is re-evaluated whole.
// Otherwise Counting counts a countable non-recursive stratum (recounting
// it when its deltas are not known) and propagates a monotone change into
// a countable recursive one; DRed runs over-deletion and rederivation on a
// countable stratum no negated predicate of which moved. Everything else
// is re-evaluated whole.
func (m *Maintainer) operator(stratum []*compiler.RulePlan, known bool, acc map[string]Delta) string {
	incremental := (m.mode == Counting || m.mode == DRed) && countable(stratum)
	recursive := compiler.StratumRecursive(stratum)
	switch {
	case incremental && aggregates(stratum):
		if known && !recursive && !negTouched(acc, stratum...) {
			return byRefold
		}
	case incremental && m.mode == Counting && !recursive:
		return byCount
	case incremental && m.mode == Counting && known && monotone(stratum, acc):
		return byPropagate
	case incremental && m.mode == DRed && known && !negTouched(acc, stratum...):
		return byDRed
	}
	return byReeval
}

// maintain brings one touched stratum up to date, under its stratum span
// sp, by the operator the mode picks for it (operator), and names the
// operator that did.
func (m *Maintainer) maintain(sp *obs.Span, stratum []*compiler.RulePlan, known bool, acc map[string]Delta, old map[string]relation.Relation) (by string, err error) {
	switch by = m.operator(stratum, known, acc); by {
	case byRefold:
		return m.refold(sp, stratum, acc, old)
	case byCount:
		return by, m.countStratum(stratum, known, acc, old)
	case byPropagate:
		return by, m.propagateInserts(sp, stratum, acc, map[string]relation.Relation{})
	case byDRed:
		return by, m.dredStratum(sp, stratum, acc, old)
	}
	m.Stats.RulesEvaluated += len(stratum)
	m.Stats.StrataReevaluated++
	return byReeval, m.ctx.ReevalStratum(sp, stratum)
}

// refold hands an aggregate stratum to RefoldStratum: it was maintained
// by signed deltas when it updated a group that way and re-folded none.
func (m *Maintainer) refold(sp *obs.Span, stratum []*compiler.RulePlan, acc map[string]Delta, old map[string]relation.Relation) (string, error) {
	m.Stats.RulesEvaluated += len(stratum)
	signed, refolded, whole, err := m.ctx.RefoldStratum(sp, stratum, acc, old)
	if whole {
		m.Stats.StrataReevaluated++
		return byReeval, err
	}
	m.Stats.GroupsSigned += signed
	m.Stats.GroupsRefolded += refolded
	if signed > 0 && refolded == 0 {
		return bySigned, err
	}
	return byRefold, err
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
	d := engine.DeltaOf(was, now)
	switch {
	case stored && d.Empty():
		m.ctx.Set(head, was)
		return
	case rebuilt && len(d.Del)+len(d.Ins) < now.Len():
		del, ins := relation.FromTuples(now.Arity(), d.Del), relation.FromTuples(now.Arity(), d.Ins)
		now = was.Difference(del).Union(ins)
	}
	m.ctx.Set(head, now)
	if !d.Empty() {
		sp.AddAttr("ins", int64(len(d.Ins)))
		sp.AddAttr("del", int64(len(d.Del)))
	}
	acc[head] = d
	old[head] = was
}
