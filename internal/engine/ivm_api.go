package engine

import (
	"slices"

	"logicblox/internal/compiler"
	"logicblox/internal/lftj"
	"logicblox/internal/relation"
	"logicblox/internal/tuple"
)

// Delta is a batch of changes to one predicate: the tuples it gained and
// the tuples it lost. The incremental-maintenance layer hands deltas to
// the stratum operators in this shape.
type Delta struct {
	Ins []tuple.Tuple
	Del []tuple.Tuple
}

// Empty reports whether the delta changes nothing.
func (d Delta) Empty() bool { return len(d.Ins) == 0 && len(d.Del) == 0 }

// DeltaOf returns the delta that turns was into now, each side in tuple
// order. It costs what the relations' diff costs: proportional to what
// they do not share.
func DeltaOf(was, now relation.Relation) Delta {
	var d Delta
	was.Diff(now,
		func(t tuple.Tuple) { d.Del = append(d.Del, t) },
		func(t tuple.Tuple) { d.Ins = append(d.Ins, t) })
	return d
}

// EvalRule evaluates one rule against the current context (with optional
// per-atom relation overrides) and returns the derived head tuples. It is
// the entry point used by the incremental-maintenance layer for delta
// rules.
func (c *Context) EvalRule(r *compiler.RulePlan, overrides map[int]relation.Relation) (relation.Relation, error) {
	return c.evalRuleUnder(c.span, r, overrides)
}

// EnumerateRuleHeads runs the rule body (with optional per-atom overrides)
// and calls emit once per satisfying assignment with the corresponding
// head tuple — i.e. with derivation multiplicity, which is what
// counting-based view maintenance needs. The head tuple is freshly
// allocated per call. An aggregation or predict rule has no
// per-derivation head: it emits the group key of each assignment.
func (c *Context) EnumerateRuleHeads(r *compiler.RulePlan, overrides map[int]relation.Relation, emit func(tuple.Tuple) bool) error {
	b, err := c.Bindings(r, overrides)
	if err != nil {
		return err
	}
	defer b.Close()
	for head, ok := b.NextHead(); ok && emit(head); head, ok = b.NextHead() {
	}
	return b.Err()
}

// EnumerateDelta enumerates the exact change acc made to r's bindings,
// by the delta-rule decomposition of Gupta, Mumick & Subrahmanian
// (SIGMOD'93):
//
//	Δ(A1 ⋈ … ⋈ Ak) = Σᵢ A1ⁿᵉʷ … Aᵢ₋₁ⁿᵉʷ ⋈ ΔAᵢ ⋈ Aᵢ₊₁ᵒˡᵈ … Akᵒˡᵈ
//
// For each atom whose predicate moved, it runs the body with that atom
// restricted to the insertions (sign +1) and then to the deletions (−1),
// the atoms before it reading the current state and the moved atoms after
// it their content in old. acc must hold exact deltas — Ins disjoint from
// old, Del contained in it — and no predicate r negates may have moved;
// then every binding gained is emitted once with +1, every binding lost
// once with −1, and a binding in neither state cancels out. emit gets the
// head tuple (for an aggregation rule, the group key), freshly allocated,
// and the full binding, reused between calls; returning false stops the
// enumeration. It returns the number of delta runs it made.
func (c *Context) EnumerateDelta(r *compiler.RulePlan, acc map[string]Delta, old map[string]relation.Relation, emit func(head, binding tuple.Tuple, sign int) bool) (runs int, err error) {
	overrides := map[int]relation.Relation{}
	for j, a := range r.Atoms {
		if !acc[a.Name].Empty() {
			overrides[j] = old[a.Name]
		}
	}
	for i, a := range r.Atoms {
		d := acc[a.Name]
		if d.Empty() {
			continue
		}
		for _, part := range []struct {
			ts   []tuple.Tuple
			sign int
		}{{d.Ins, +1}, {d.Del, -1}} {
			if len(part.ts) == 0 {
				continue
			}
			overrides[i] = relation.FromTuples(c.Relation(a.Name).Arity(), part.ts)
			runs++
			b, err := c.Bindings(r, overrides)
			if err != nil {
				return runs, err
			}
			more := true
			for head, ok := b.NextHead(); ok; head, ok = b.NextHead() {
				if more = emit(head, b.full, part.sign); !more {
					break
				}
			}
			b.Close()
			if err := b.Err(); err != nil || !more {
				return runs, err
			}
		}
		delete(overrides, i) // later runs read atom i's current state
	}
	return runs, nil
}

// EnumerateBindings runs the rule body (with optional per-atom overrides)
// and calls emit once per satisfying assignment with the full binding
// (join variables then assigned variables) and the resolver its filters
// read lookups through. The binding slice is reused across calls. The
// solver's grounding machinery uses this to linearize constraint and
// aggregation bodies.
func (c *Context) EnumerateBindings(r *compiler.RulePlan, overrides map[int]relation.Relation, emit func(tuple.Tuple, compiler.Resolver) bool) error {
	b, err := c.Bindings(r, overrides)
	if err != nil {
		return err
	}
	defer b.Close()
	for binding, ok := b.Next(); ok && emit(binding, b.resolver); binding, ok = b.Next() {
	}
	return b.Err()
}

// Rederivable returns the tuples of keys, head tuples of r, that r derives
// in the current state: one evaluation of r restricted to keys on its head
// columns that are join variables, intersected with keys, which checks the
// other columns (delete-and-rederive's re-derive step).
func (c *Context) Rederivable(r *compiler.RulePlan, keys relation.Relation) (relation.Relation, error) {
	out, err := c.evalRule(restrict(r, r.HeadVars(), keys))
	return out.Intersect(keys), err
}

// restrict returns a copy of r joined with one more atom that holds keys,
// and the overrides that supply keys to it. Column i of a key binds join
// variable vars[i]; a column whose variable is -1, or repeats an earlier
// column's, restricts nothing. In the compiler's variable order the atom
// is one more iterator at those variables' levels: a key is a seek, and
// the bindings that pass come in the order a full evaluation yields them.
// With no column to restrict, r comes back as it is.
func restrict(r *compiler.RulePlan, vars []int, keys relation.Relation) (*compiler.RulePlan, map[int]relation.Relation) {
	var cols []int // the key column of each restricted variable, in variable order
	for i, v := range vars {
		if v >= 0 && !slices.ContainsFunc(cols, func(c int) bool { return vars[c] == v }) {
			cols = append(cols, i)
		}
	}
	if len(cols) == 0 {
		return r, nil
	}
	slices.SortFunc(cols, func(a, b int) int { return vars[a] - vars[b] })
	if len(cols) < keys.Arity() || !slices.IsSorted(cols) {
		keys = keys.Permuted(cols)
	}
	atom := compiler.AtomPlan{Name: "$keys"}
	for _, col := range cols {
		atom.Vars = append(atom.Vars, vars[col])
	}
	p := *r
	p.Atoms = append(slices.Clip(r.Atoms), atom)
	return &p, map[int]relation.Relation{len(r.Atoms): keys}
}

// SetSensitivityIndex redirects sensitivity recording of subsequent
// evaluations to idx (nil disables recording). The incremental-maintenance
// layer uses this to record one index per rule or stratum; transaction
// repair records one index per reactive stratum.
func (c *Context) SetSensitivityIndex(idx *lftj.SensitivityIndex) { c.sens = idx }

// Recording reports whether evaluations record into a sensitivity index.
func (c *Context) Recording() bool { return c.sens != nil }
