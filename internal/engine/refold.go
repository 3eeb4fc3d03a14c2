package engine

import (
	"logicblox/internal/compiler"
	"logicblox/internal/obs"
	"logicblox/internal/relation"
	"logicblox/internal/tuple"
)

// RefoldStratum brings an aggregate stratum up to date group by group
// (paper §3.2: P2P aggregation rules are maintained like any other rule).
// The stratum must be non-recursive — so it has one head, keyed by its
// first HeadArity-1 columns, and no rule of it reads what it derives —
// and no predicate it negates may have moved. acc holds the delta of every
// predicate that moved and old each one's content before it did, as the
// maintenance walk keeps them. Under the stratum span sp it
//
//  1. collects the touched group keys: each rule's delta forms, the
//     Δ-restricted atom taking insertions against the new state and
//     deletions against the old one (as DRed's over-delete does), yield
//     the key of every binding the change created or destroyed;
//  2. re-folds each touched group: every rule re-run with the key columns
//     pinned as constants, in the compiler's variable order — a pinned key
//     is a seek at its level, and the group's bindings come in the order a
//     full evaluation folds them, so even a float sum is bit-identical;
//  3. patches the head: on its previous version each touched key's tuples
//     are replaced by the re-folded ones (none when the group emptied).
//
// It returns the number of groups re-folded. It re-evaluates the stratum
// whole instead (whole=true, and a refold_fallback attribute on sp) when a
// key column is not a plain join variable or a rule predicts, which
// pinning cannot restrict, or when the touched keys reach half the head's
// tuples. That threshold errs towards the full pass: on a 20k-fact
// sum(sales) view keyed by product (200 groups) or by store (10), on a
// 2-vCPU Xeon, re-folding half the groups cost about 0.6× a full pass,
// three quarters 0.8–0.9×, and every group 1.1–1.75×.
func (c *Context) RefoldStratum(sp *obs.Span, rules []*compiler.RulePlan, acc map[string]Delta, old map[string]relation.Relation) (groups int, whole bool, err error) {
	head := rules[0].HeadName
	prev := c.Relation(head)
	keyVars, ok := groupKeyVars(rules)
	var keys []tuple.Tuple
	if ok {
		if keys, ok, err = c.touchedKeys(rules, acc, old, prev.Len()); err != nil {
			return 0, false, err
		}
	}
	if !ok {
		sp.SetAttr("refold_fallback", 1)
		return 0, true, c.ReevalStratum(sp, rules)
	}
	next := prev
	for _, k := range keys {
		for _, t := range prev.Lookup(k) {
			next = next.Delete(t)
		}
	}
	// An empty, non-nil override map marks each pinned run as a partial
	// evaluation: a delta evaluation in the rule's profile, no plan-store
	// order and no cost feedback to it.
	partial := map[int]relation.Relation{}
	for i, r := range rules {
		rsp := sp.Child("rule:" + r.HeadName)
		n := 0
		for _, k := range keys {
			out, err := c.evalRule(pinned(r, keyVars[i], k), partial)
			if err != nil {
				rsp.End()
				return 0, false, err
			}
			out.ForEach(func(t tuple.Tuple) bool {
				next = next.Insert(t)
				n++
				return true
			})
		}
		rsp.SetAttr("tuples", int64(n))
		rsp.End()
	}
	c.Set(head, next)
	sp.SetAttr("groups", int64(len(keys)))
	return len(keys), false, nil
}

// groupKeyVars returns, per rule, the join variables the head's key
// columns bind; ok=false when a rule predicts or a key column is computed
// rather than a plain join variable.
func groupKeyVars(rules []*compiler.RulePlan) (vars [][]int, ok bool) {
	vars = make([][]int, len(rules))
	for i, r := range rules {
		if r.Predict != nil {
			return nil, false
		}
		for _, e := range r.HeadExprs[:r.HeadArity-1] {
			ve, isVar := e.(compiler.VarExpr)
			if !isVar || ve.Idx >= r.NumJoinVars {
				return nil, false
			}
			vars[i] = append(vars[i], ve.Idx)
		}
	}
	return vars, true
}

// touchedKeys runs the delta forms of every rule of the stratum and
// returns the distinct group keys of the bindings they yield, stopping
// with ok=false as soon as the keys reach half of limit — at once when
// limit is 0: every key of an empty head is new, so nothing is gained by
// looking for them.
func (c *Context) touchedKeys(rules []*compiler.RulePlan, acc map[string]Delta, old map[string]relation.Relation, limit int) (keys []tuple.Tuple, ok bool, err error) {
	if limit == 0 {
		return nil, false, nil
	}
	seen := map[string]bool{}
	for _, r := range rules {
		for ai, a := range r.Atoms {
			d := acc[a.Name]
			for sign, part := range [][]tuple.Tuple{d.Ins, d.Del} {
				if len(part) == 0 {
					continue
				}
				overrides := map[int]relation.Relation{ai: relation.FromTuples(c.Relation(a.Name).Arity(), part)}
				if sign == 1 { // deletions: every other atom reads the old state
					for j, b := range r.Atoms {
						if j != ai && !acc[b.Name].Empty() {
							overrides[j] = old[b.Name]
						}
					}
				}
				err := c.EnumerateRuleHeads(r, overrides, func(h tuple.Tuple) bool {
					k := h[:r.HeadArity-1]
					if ks := k.String(); !seen[ks] {
						seen[ks] = true
						keys = append(keys, k)
					}
					return 2*len(keys) < limit
				})
				if err != nil {
					return nil, false, err
				}
				if 2*len(keys) >= limit {
					return nil, false, nil
				}
			}
		}
	}
	return keys, true, nil
}

// pinned returns a copy of r whose key variables are bound to key by
// virtual constant predicates, the way PinnedDerivable pins a head.
func pinned(r *compiler.RulePlan, vars []int, key tuple.Tuple) *compiler.RulePlan {
	p := *r
	p.Consts = append([]compiler.ConstBind(nil), r.Consts...)
	for i, v := range vars {
		p.Consts = append(p.Consts, compiler.ConstBind{Var: v, Val: key[i]})
	}
	return &p
}
