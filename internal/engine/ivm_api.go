package engine

import (
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
// per-derivation head: it emits the group key of each assignment, which
// is what RefoldStratum's touched-key collection needs.
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

// EnumerateBindings runs the rule body (with optional per-atom overrides)
// and calls emit once per satisfying assignment with the full binding
// (join variables then assigned variables). The binding slice is reused
// across calls. The solver's grounding machinery uses this to linearize
// constraint and objective bodies.
func (c *Context) EnumerateBindings(r *compiler.RulePlan, overrides map[int]relation.Relation, emit func(tuple.Tuple) bool) error {
	b, err := c.Bindings(r, overrides)
	if err != nil {
		return err
	}
	defer b.Close()
	for binding, ok := b.Next(); ok && emit(binding); binding, ok = b.Next() {
	}
	return b.Err()
}

// PinnedDerivable reports whether head tuple t of rule r has at least one
// derivation in the current state. Join variables that map directly to
// head columns are pinned with virtual constant predicates so the search
// explores only the relevant region (used by delete-and-rederive).
func (c *Context) PinnedDerivable(r *compiler.RulePlan, t tuple.Tuple) (bool, error) {
	pinned := *r
	pinned.Consts = append([]compiler.ConstBind(nil), r.Consts...)
	for i, e := range r.HeadExprs {
		if ve, ok := e.(compiler.VarExpr); ok && ve.Idx < r.NumJoinVars {
			pinned.Consts = append(pinned.Consts, compiler.ConstBind{Var: ve.Idx, Val: t[i]})
		}
	}
	b, err := c.Bindings(&pinned, nil)
	if err != nil {
		return false, err
	}
	defer b.Close()
	for head, ok := b.NextHead(); ok; head, ok = b.NextHead() {
		if head.Equal(t) {
			return true, nil
		}
	}
	return false, b.Err()
}

// SetSensitivityIndex redirects sensitivity recording of subsequent
// evaluations to idx (nil disables recording). The incremental-maintenance
// layer uses this to record one index per rule or stratum; transaction
// repair records one index per reactive stratum.
func (c *Context) SetSensitivityIndex(idx *lftj.SensitivityIndex) { c.sens = idx }

// StartDerivedCapture begins accumulating, per head predicate, the union
// of every rule-evaluation output produced by subsequent EvalStratum
// calls (full passes and semi-naive fixpoint rounds alike). Transaction
// repair (paper §3.4) uses the captured pure derivations to replay an
// unaffected stratum against a different database head without
// re-evaluating it: for any head h, the post-stratum content of h is
// exactly seed(h) ∪ captured(h), and captured(h) is portable to a new
// seed as long as no recorded read of the stratum was affected.
func (c *Context) StartDerivedCapture() { c.capture = map[string]relation.Relation{} }

// TakeDerivedCapture stops capturing and returns the accumulated per-head
// derivations since StartDerivedCapture (nil if capture was off).
func (c *Context) TakeDerivedCapture() map[string]relation.Relation {
	m := c.capture
	c.capture = nil
	return m
}

// captureDerived folds one rule-evaluation output into the running
// capture.
func (c *Context) captureDerived(head string, r relation.Relation) {
	if c.capture == nil || r.IsEmpty() {
		return
	}
	if cur, ok := c.capture[head]; ok {
		c.capture[head] = cur.Union(r)
	} else {
		c.capture[head] = r
	}
}
