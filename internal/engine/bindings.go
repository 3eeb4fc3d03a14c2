package engine

import (
	"fmt"
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
	full     tuple.Tuple    // the current binding, r.Slots wide, reused by Next
	it       *lftj.Iter     // nil for a body-free rule: one empty binding
	m        *lftj.Metrics  // nil when nobody reads the join's counters
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
		c: c, r: r, resolver: ctxResolver{c}, full: make(tuple.Tuple, r.Slots),
		rs: c.ruleStatsFor(r), delta: overrides != nil, t0: time.Now(),
	}
	if len(r.Atoms) == 0 && len(r.Consts) == 0 {
		return b, nil // fact or fully computed rule
	}
	atoms := make([]lftj.Atom, 0, len(r.Atoms)+len(r.Consts))
	for ai, ap := range r.Atoms {
		rel, ok := overrides[ai]
		if !ok {
			rel = c.Relation(ap.Name)
		}
		if ap.Perm != nil {
			rel = c.permuted(ap.Name, rel, ap.Perm)
		}
		atoms = append(atoms, lftj.Atom{Pred: ap.Name, Iter: rel.Iterator(), Vars: ap.Vars, Cols: ap.Perm})
	}
	for _, cb := range r.Consts {
		atoms = append(atoms, lftj.Atom{
			Pred: "$const", Iter: trie.NewConstIterator(cb.Val), Vars: []int{cb.Var},
		})
	}
	j, err := lftj.NewJoin(r.NumJoinVars, atoms, c.sens)
	if err != nil {
		return nil, fmt.Errorf("in rule %q: %w", r.Source, err)
	}
	if b.rs != nil {
		b.m = &lftj.Metrics{}
		j.SetMetrics(b.m)
	}
	b.it = j.Iter()
	return b, nil
}

// Next returns the next satisfying assignment: r.Slots values, join
// variables first, then assigned variables. The tuple is reused between
// calls (clone it to retain it). ok=false means exhaustion OR error —
// check Err after the loop.
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
// binding, leaving the result in b.full. pass=false means the binding
// was filtered out (not an error).
func (b *Bindings) complete(joined tuple.Tuple) (pass bool, err error) {
	copy(b.full, joined)
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

// Err returns the first error the cursor hit, if any.
func (cur *RuleCursor) Err() error { return cur.b.Err() }

// Close releases the underlying Bindings cursor. Idempotent.
func (cur *RuleCursor) Close() { cur.b.Close() }
