package engine

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"logicblox/internal/compiler"
	"logicblox/internal/lftj"
	"logicblox/internal/obs"
	"logicblox/internal/relation"
	"logicblox/internal/trie"
	"logicblox/internal/tuple"
)

// Bindings is the one rule-body operator: a pull cursor over the
// satisfying assignments of a rule body. Each Next draws one binding out
// of the LFTJ join iterator and completes it — assignments computed,
// filters and negated atoms applied — so nothing is materialized. Rule
// evaluation, constraint checking, IVM delta rules, solver grounding and
// streamed query answers all drain this cursor; it is also the only
// place a join notices that the evaluation's context was cancelled.
// Bindings come out in lexicographic order of the rule's join-variable
// order. The cursor must be Closed (idempotent): it holds the join's
// trie iterators open between Next calls, and Close is where the rule's
// profile is recorded.
type Bindings struct {
	c        *Context
	r        *compiler.RulePlan
	resolver ctxResolver
	full     tuple.Tuple    // the current binding, r.Slots wide
	buf      tuple.Tuple    // full's own storage, when r assigns a slot
	it       *lftj.Iter     // nil for a body-free rule: one empty binding
	js       *joinState     // its join state, pooled again on Close
	m        *lftj.Metrics  // nil when nobody reads the join's counters
	metrics  lftj.Metrics   // m's storage
	rs       *obs.RuleStats // nil when observability is off
	delta    bool           // evaluated with per-atom overrides
	t0       time.Time      // for the rule profile's evaluation time
	n        int64          // bindings yielded so far
	err      error
	done     bool
	closed   bool
}

// Bindings opens the cursor over r's body. overrides, when non-nil,
// substitutes the relation scanned by specific atom indices (semi-naive
// deltas, IVM delta rules). The plan is evaluated exactly as given.
func (c *Context) Bindings(r *compiler.RulePlan, overrides map[int]relation.Relation) (*Bindings, error) {
	b := &Bindings{
		c: c, r: r, resolver: ctxResolver{c},
		rs: c.ruleStatsFor(r), delta: overrides != nil, t0: time.Now(),
	}
	if len(r.Assigns) > 0 {
		b.buf = make(tuple.Tuple, r.Slots)
	}
	if len(r.Atoms) == 0 && len(r.Consts) == 0 {
		return b, nil // fact or fully computed rule
	}
	js := joinStates.Get().(*joinState)
	atoms := js.atoms[:0]
	var rels []relation.Relation // each atom's relation, for the range binds
	if len(r.Ranges) > 0 {
		rels = make([]relation.Relation, len(r.Atoms))
	}
	for ai, ap := range r.Atoms {
		rel, ok := overrides[ai]
		if !ok {
			rel = c.Relation(ap.Name)
		}
		if ap.Perm != nil {
			rel = c.permuted(ap.Name, rel, ap.Perm)
		}
		if rels != nil {
			rels[ai] = rel
		}
		if ai == len(js.tries) {
			js.tries = append(js.tries, new(relation.TrieIter))
		}
		js.tries[ai].Reset(rel)
		atoms = append(atoms, lftj.Atom{Pred: ap.Name, Iter: js.tries[ai], Vars: ap.Vars, Cols: ap.Perm})
	}
	for _, cb := range r.Consts {
		atoms = append(atoms, lftj.Atom{
			Pred: "$const", Iter: trie.NewConstIterator(cb.Val), Vars: []int{cb.Var},
		})
	}
	if rels != nil {
		atoms = c.appendRanges(atoms, r, rels)
	}
	js.atoms = atoms
	if err := js.join.Reset(r.NumJoinVars, atoms, c.sens); err != nil {
		return nil, fmt.Errorf("in rule %q: %w", r.Source, err)
	}
	if b.rs != nil {
		b.m = &b.metrics
		js.join.SetMetrics(b.m)
	}
	b.js, b.it = js, js.join.Iter()
	return b, nil
}

// joinState is the join a Bindings cursor runs: the LFTJ join, its atoms
// and the trie iterators over their relations. A closed cursor puts it
// back in joinStates, and the next cursor opened resets one from there
// rather than allocating its own, so rule after rule, and request after
// request, reuse the same few.
type joinState struct {
	join  lftj.Join
	atoms []lftj.Atom
	tries []*relation.TrieIter // tries[i] scans atoms[i], a relation atom
}

// joinStates holds the join states of closed cursors.
var joinStates = sync.Pool{New: func() any { return new(joinState) }}

// appendRanges appends to atoms, per join variable that r bounds, one
// range iterator holding the bounds (compiler.RangeBind) that are exact
// here: some atom reads the variable in its first plan column, and that
// column of its relation (rels[i]) holds values of the bounds' kind alone.
// Kind is the leading sort key, so the relation's first and last tuples
// pin the whole column; within one kind trie order is the filters' order,
// so the range skips only bindings the filters reject. Bounds of another
// kind are left to the filters alone. Under a sensitivity index the check
// records the column's two ends, where a value of another kind would
// land; the range iterator's own intervals go under "$range", which no
// change touches, as a constant's go under "$const".
func (c *Context) appendRanges(atoms []lftj.Atom, r *compiler.RulePlan, rels []relation.Relation) []lftj.Atom {
	for i, rb := range r.Ranges {
		if slices.ContainsFunc(r.Ranges[:i], func(p compiler.RangeBind) bool { return p.Var == rb.Var }) {
			continue // the variable's range was built at its first bound
		}
		for ai, ap := range r.Atoms {
			if len(ap.Vars) == 0 || ap.Vars[0] != rb.Var {
				continue
			}
			first, last, ok := rels[ai].Ends()
			if !ok || first[0].Kind() != last[0].Kind() {
				continue
			}
			lo, hi, ok := rangeOf(r.Ranges[i:], rb.Var, first[0].Kind())
			if !ok {
				continue
			}
			if c.sens != nil {
				col := 0
				if ap.Perm != nil {
					col = ap.Perm[0]
				}
				c.sens.AddColumn(ap.Name, col, tuple.MinValue(), first[0])
				c.sens.AddColumn(ap.Name, col, last[0], tuple.MaxValue())
			}
			atoms = append(atoms, lftj.Atom{
				Pred: "$range", Iter: trie.NewRangeIterator(lo, hi), Vars: []int{rb.Var},
			})
			break
		}
	}
	return atoms
}

// rangeOf intersects the bounds on variable v of kind k into the
// half-open range [lo, hi); ok is false when none has kind k.
func rangeOf(binds []compiler.RangeBind, v int, k tuple.Kind) (lo, hi tuple.Value, ok bool) {
	lo, hi = tuple.MinValue(), tuple.MaxValue()
	for _, rb := range binds {
		if rb.Var != v || rb.Val.Kind() != k {
			continue
		}
		ok = true
		bound := rb.Val
		if rb.Op == ">" || rb.Op == "<=" {
			bound = tuple.Successor(bound)
		}
		switch {
		case (rb.Op == ">" || rb.Op == ">=") && tuple.Less(lo, bound):
			lo = bound
		case (rb.Op == "<" || rb.Op == "<=") && tuple.Less(bound, hi):
			hi = bound
		}
	}
	return lo, hi, ok
}

// Next returns the next satisfying assignment: r.Slots values, join
// variables first, then assigned variables. The tuple is valid until the
// next call and is read-only: it may be the stored tuple itself (a
// one-atom rule's scan yields stored tuples, and a rule that assigns no
// variable passes the join's binding through), so clone it to retain it
// and never write into it. ok=false means exhaustion OR error — check
// Err after the loop.
func (b *Bindings) Next() (tuple.Tuple, bool) {
	for !b.done {
		if err := b.c.Err(); err != nil {
			return b.fail(err)
		}
		var joined tuple.Tuple
		if b.it == nil {
			b.done = true // body-free rule: the single empty binding
		} else if next, ok := b.it.Next(); ok {
			joined = next
		} else {
			b.done = true
			break
		}
		pass, err := b.complete(joined)
		if err != nil {
			return b.fail(fmt.Errorf("in rule %q: %w", b.r.Source, err))
		}
		if pass {
			b.n++
			return b.full, true
		}
	}
	return nil, false
}

// NextHead is Next followed by the head projection: it returns the
// rule's head tuple (for aggregation and predict rules, the group key)
// of the next satisfying assignment — once per assignment, so with
// derivation multiplicity and no deduplication. The tuple is freshly
// allocated and owned by the caller.
func (b *Bindings) NextHead() (tuple.Tuple, bool) {
	head := make(tuple.Tuple, len(b.r.HeadExprs))
	if !b.nextHeadInto(head) {
		return nil, false
	}
	return head, true
}

// nextHeadInto is NextHead projecting into head, len(r.HeadExprs) wide:
// the accumulators reuse one group key buffer.
func (b *Bindings) nextHeadInto(head tuple.Tuple) bool {
	full, ok := b.Next()
	if !ok {
		return false
	}
	for i, e := range b.r.HeadExprs {
		v, err := e.Eval(full, b.resolver)
		if err != nil {
			b.fail(fmt.Errorf("in rule %q: %w", b.r.Source, err))
			return false
		}
		head[i] = v
	}
	return true
}

// complete runs assignments, filters and negated atoms over one raw join
// binding, leaving the result in b.full: the joined tuple itself when the
// rule assigns nothing, else a copy in b's own buffer with the assigned
// slots written. pass=false means the binding was filtered out (not an
// error).
func (b *Bindings) complete(joined tuple.Tuple) (pass bool, err error) {
	b.full = joined
	if b.buf != nil {
		copy(b.buf, joined)
		b.full = b.buf
	}
	for _, a := range b.r.Assigns {
		v, err := a.E.Eval(b.full, b.resolver)
		if err != nil {
			return false, err
		}
		b.full[a.Slot] = v
	}
	for _, f := range b.r.Filters {
		l, err := f.L.Eval(b.full, b.resolver)
		if err != nil {
			return false, err
		}
		rv, err := f.R.Eval(b.full, b.resolver)
		if err != nil {
			return false, err
		}
		ok, err := compiler.CompareValues(f.Op, l, rv)
		if err != nil || !ok {
			return false, err
		}
	}
	for _, na := range b.r.NegAtoms {
		exists, err := b.c.checkGroundAtom(na, b.full, b.resolver)
		if err != nil || exists {
			return false, err
		}
	}
	return true, nil
}

func (b *Bindings) fail(err error) (tuple.Tuple, bool) {
	b.err = err
	b.done = true
	return nil, false
}

// Err returns the first error the cursor hit, if any (nil after a clean
// exhaustion). Cancellation of the context the evaluation was built with
// surfaces here, after at most one more binding.
func (b *Bindings) Err() error { return b.err }

// Close releases the join's trie iterators and records the evaluation:
// duration, bindings yielded and seek/next counts into the rule's
// profile. Idempotent.
func (b *Bindings) Close() {
	if b.closed {
		return
	}
	b.closed = true
	b.done = true
	if b.it != nil {
		b.it.Close()
		joinStates.Put(b.js)
		b.it, b.js = nil, nil
	}
	if b.delta {
		b.rs.AddDeltaEval(time.Since(b.t0), b.n)
	} else {
		b.rs.AddEval(time.Since(b.t0), b.n)
	}
	if b.m != nil {
		b.rs.AddJoin(b.m.Seeks, b.m.Nexts, b.m.SensRecords)
	}
}

// RuleCursor is a pull cursor over one rule's derived head tuples: the
// head projection of Bindings, for streaming a plain-projection rule's
// answers without materializing them. Tuples come out in lexicographic
// order of the rule's join-variable order; duplicates from distinct
// bindings are NOT removed (the consumer dedups, cheaply when head
// projection preserves order).
type RuleCursor struct{ b *Bindings }

// StreamRule opens a pull cursor over r's derivations. The rule must be a
// plain head projection (no aggregation or predict accumulator — those
// need the full result before producing any row). The plan is evaluated
// exactly as given, so the caller controls the enumeration order. The
// cursor must be Closed (idempotent).
func (c *Context) StreamRule(r *compiler.RulePlan) (*RuleCursor, error) {
	if r.Agg != nil || r.Predict != nil {
		return nil, fmt.Errorf("engine: rule %q aggregates; cannot stream", r.Source)
	}
	b, err := c.Bindings(r, nil)
	if err != nil {
		return nil, err
	}
	return &RuleCursor{b}, nil
}

// Next returns the next head tuple, freshly allocated. ok=false means
// exhaustion OR error — check Err after the loop.
func (cur *RuleCursor) Next() (tuple.Tuple, bool) { return cur.b.NextHead() }

// NextInto is Next projecting the head into head, which must be as wide
// as the rule's head: a drain that reuses one buffer allocates nothing
// per tuple. false means exhaustion OR error.
func (cur *RuleCursor) NextInto(head tuple.Tuple) bool { return cur.b.nextHeadInto(head) }

// Err returns the first error the cursor hit, if any.
func (cur *RuleCursor) Err() error { return cur.b.Err() }

// Close releases the underlying Bindings cursor. Idempotent.
func (cur *RuleCursor) Close() { cur.b.Close() }
