package engine

import (
	"slices"

	"logicblox/internal/compiler"
	"logicblox/internal/obs"
	"logicblox/internal/relation"
	"logicblox/internal/tuple"
)

// RefoldStratum brings an aggregate stratum up to date group by group
// (paper §3.2: P2P aggregation rules are maintained like any other rule).
// The stratum must be non-recursive — so it has one head, keyed by its
// first HeadArity-1 columns, and no rule of it reads what it derives —
// and no predicate it negates may have moved. acc holds the exact delta
// of every predicate that moved and old each one's content before it did,
// as the maintenance walk keeps them. Under the stratum span sp it
//
//  1. enumerates the exact binding delta of every rule (EnumerateDelta)
//     and gathers it by group key;
//  2. in a one-rule stratum aggregating by sum or count, updates each
//     touched group by its signed delta — stored value plus Σ sign × value
//     (or sign) — without re-running it; a count that reaches 0 drops the
//     group, and a sum group that lost a binding and now sums to 0 asks
//     its body restricted to its key whether a binding is left (an empty
//     group sums to 0, and a binding in neither state shows up as both
//     gained and lost, so nothing less tells). The int sums wrap exactly
//     as a full fold's do, two's-complement addition being associative,
//     so the result is the full fold's even on overflow;
//  3. re-folds every other touched group — a float sum, an avg, a min or
//     max, a stored value that is not an int, any group of a stratum with
//     more rules: every rule runs once, restricted to the keys to re-fold
//     (restrict) — a key is a seek at its variable's level, and each
//     group's bindings come in the order a full evaluation folds them, so
//     even a float sum is bit-identical;
//  4. patches the head: on its previous version each touched key's tuple
//     is replaced by the new one (none when the group emptied).
//
// It returns the number of groups updated by their signed delta and the
// number re-folded, and sets on sp how many groups the change touched
// (groups) and, when any was, how many were re-folded (refolded). It
// re-evaluates the stratum whole instead (whole=true, and a
// refold_fallback attribute on sp) when a key column is not a plain join
// variable or a rule predicts, which a key cannot restrict, when the head
// is empty (every group is new: nothing is gained by looking for them), or
// when the groups to re-fold exceed a third of the head's tuples — about
// the crossover: on a 20k-fact max(sales) view keyed by product (200
// groups) or by store (10), on a 2-vCPU Xeon, re-folding a quarter of the
// groups cost 0.7–0.8× a full pass, three eighths 1.1–1.2×, half 1.3–1.9×
// and every group 2.3–3.9× (BenchmarkRefoldCrossover). The full pass of a
// one-atom body is a scan and its head one sorted build; a restricted run
// walks the trie, and that walk is the cost. A group updated by its signed
// delta costs O(|Δ|) and does not count towards it.
func (c *Context) RefoldStratum(sp *obs.Span, rules []*compiler.RulePlan, acc map[string]Delta, old map[string]relation.Relation) (signed, refolded int, whole bool, err error) {
	head := rules[0].HeadName
	prev := c.Relation(head)
	keyVars, ok := groupKeyVars(rules)
	ok = ok && prev.Len() > 0
	bySign := ok && len(rules) == 1 && signable(rules[0].Agg)
	var groups []*groupDelta
	if ok {
		limit := prev.Len()
		if bySign {
			limit = 0
		}
		if groups, ok, err = c.deltaGroups(sp, rules, acc, old, limit); err != nil {
			return 0, 0, false, err
		}
	}
	next := prev
	var keys []tuple.Tuple // the groups to re-fold
	for _, g := range groups {
		stored := prev.Lookup(g.key)
		for _, s := range stored {
			next = next.Delete(s)
		}
		if bySign {
			t, done, err := c.signedGroup(rules[0], keyVars[0], stored, g)
			if err != nil {
				return 0, 0, false, err
			}
			if done {
				if t != nil {
					next = next.Insert(t)
				}
				continue
			}
		}
		keys = append(keys, g.key)
	}
	if !ok || PastCrossover(len(keys), prev.Len()) {
		sp.SetAttr("refold_fallback", 1)
		return 0, 0, true, c.ReevalStratum(sp, rules)
	}
	if len(keys) > 0 {
		if next, err = c.refoldGroups(sp, rules, keyVars, keys, next); err != nil {
			return 0, 0, false, err
		}
	}
	c.Set(head, next)
	signed, refolded = len(groups)-len(keys), len(keys)
	sp.SetAttr("groups", int64(len(groups)))
	if refolded > 0 {
		sp.SetAttr("refolded", int64(refolded))
	}
	return signed, refolded, false, nil
}

// refoldGroups runs every rule once, restricted to the keys to re-fold on
// its key variables, under a rule span of sp, and adds what they derive to
// head.
func (c *Context) refoldGroups(sp *obs.Span, rules []*compiler.RulePlan, keyVars [][]int, keys []tuple.Tuple, head relation.Relation) (relation.Relation, error) {
	set := relation.FromTuples(rules[0].HeadArity-1, keys)
	for i, r := range rules {
		rsp := sp.Child("rule:" + r.HeadName)
		out, err := c.evalRule(restrict(r, keyVars[i], set))
		if err != nil {
			rsp.End()
			return head, err
		}
		head = head.Union(out)
		rsp.SetAttr("tuples", int64(out.Len()))
		rsp.End()
	}
	return head, nil
}

// groupKeyVars returns, per rule, the join variables the head's key
// columns bind; ok=false when a rule predicts or a key column is computed
// rather than a plain join variable.
func groupKeyVars(rules []*compiler.RulePlan) (vars [][]int, ok bool) {
	vars = make([][]int, len(rules))
	for i, r := range rules {
		if vars[i] = r.HeadVars()[:r.HeadArity-1]; r.Predict != nil || slices.Contains(vars[i], -1) {
			return nil, false
		}
	}
	return vars, true
}

// signable reports whether an aggregate's groups can be updated by their
// signed delta: sum and count are linear in it.
func signable(agg *compiler.AggPlan) bool {
	if agg == nil {
		return false
	}
	switch agg.Func {
	case "sum", "total", "count":
		return true
	}
	return false
}

// groupDelta is the signed change one batch made to an aggregate group's
// bindings.
type groupDelta struct {
	key    tuple.Tuple
	n      int64 // bindings gained minus bindings lost
	sum    int64 // Σ sign × value over the int values, wrapping
	nonInt bool  // a value that was not an int moved
	lost   bool  // a binding was lost (not kept for count)
}

func (g *groupDelta) add(agg *compiler.AggPlan, binding tuple.Tuple, sign int) {
	g.n += int64(sign)
	if agg.ArgSlot < 0 { // count
		return
	}
	v := binding[agg.ArgSlot]
	switch {
	case v.Kind() != tuple.KindInt:
		g.nonInt = true
	case sign > 0:
		g.sum += v.AsInt()
	default:
		g.sum -= v.AsInt()
		g.lost = true
	}
}

// PastCrossover reports whether maintaining n changes to something of
// size tuples costs more than re-evaluating the stratum whole: past a
// third of its size. It is the one crossover of the maintenance path —
// RefoldStratum's re-folded groups against its head (the measurement it
// documents), and the memo's input diffs against the inputs (ivm.Memo) —
// a fixed rule, not an option.
func PastCrossover(n, size int) bool { return 3*n > size }

// deltaGroups enumerates the exact binding delta of every rule of the
// stratum, each under a rule span of sp counting the bindings it yielded,
// and gathers it by group key, in the order the keys first appear. With
// limit > 0 it stops with ok=false as soon as the keys are too many to
// re-fold in a head of limit tuples (PastCrossover).
func (c *Context) deltaGroups(sp *obs.Span, rules []*compiler.RulePlan, acc map[string]Delta, old map[string]relation.Relation, limit int) (groups []*groupDelta, ok bool, err error) {
	byKey := map[string]*groupDelta{}
	var buf []byte
	for _, r := range rules {
		rsp := sp.Child("rule:" + r.HeadName)
		n := int64(0)
		_, err := c.EnumerateDelta(r, acc, old, func(h, binding tuple.Tuple, sign int) bool {
			n++
			key := h[:r.HeadArity-1]
			buf = key.AppendKey(buf[:0])
			g := byKey[string(buf)]
			if g == nil {
				g = &groupDelta{key: key}
				byKey[string(buf)] = g
				groups = append(groups, g)
			}
			if r.Agg != nil {
				g.add(r.Agg, binding, sign)
			}
			return limit == 0 || !PastCrossover(len(groups), limit)
		})
		rsp.SetAttr("bindings", n)
		rsp.End()
		if err != nil {
			return nil, false, err
		}
		if limit > 0 && PastCrossover(len(groups), limit) {
			return nil, false, nil
		}
	}
	return groups, true, nil
}

// signedGroup brings one touched group of a one-rule sum or count stratum
// up to date from its stored head tuple (none for a new group) and its
// signed delta g, without re-running it. It returns the group's new head
// tuple, nil when the group lost its last binding, or done=false when a
// value or the stored sum is not an int and the group must be re-folded.
func (c *Context) signedGroup(r *compiler.RulePlan, keyVars []int, stored []tuple.Tuple, g *groupDelta) (t tuple.Tuple, done bool, err error) {
	var v tuple.Value
	present := len(stored) > 0
	if present {
		v = stored[0][r.HeadArity-1]
	}
	if g.nonInt || present && v.Kind() != tuple.KindInt {
		return nil, false, nil
	}
	count := r.Agg.Func == "count"
	d := g.sum
	if count {
		d = g.n
	}
	if present {
		d += v.AsInt()
	}
	switch {
	case count && d == 0:
		return nil, true, nil
	case !count && g.lost && d == 0:
		left, err := c.anyBinding(restrict(r, keyVars, relation.FromTuples(len(g.key), []tuple.Tuple{g.key})))
		if err != nil || !left {
			return nil, err == nil, err
		}
	}
	return append(g.key.Clone(), tuple.Int(d)), true, nil
}

// anyBinding reports whether r's body, under overrides, has a binding in
// the current state.
func (c *Context) anyBinding(r *compiler.RulePlan, overrides map[int]relation.Relation) (bool, error) {
	b, err := c.Bindings(r, overrides)
	if err != nil {
		return false, err
	}
	defer b.Close()
	_, ok := b.Next()
	return ok, b.Err()
}
