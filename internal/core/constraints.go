package core

import (
	"fmt"

	"logicblox/internal/compiler"
	"logicblox/internal/engine"
	"logicblox/internal/ivm"
	"logicblox/internal/obs"
	"logicblox/internal/relation"
	"logicblox/internal/tuple"
)

// txDelta is the exact per-predicate change from a transaction's receiver
// (prev) to its result (next), over the names the transaction dirtied:
// base predicates as applyBase reported them, derived heads as rederive
// did, anything else (restore, Solve, addblock's drops) diffed on first
// use. Every stored relation of next is a path copy or a patch of prev's,
// so the sharing-aware diff prunes all but the changed paths: O(Δ log n).
type txDelta struct {
	prev, next *Workspace
	dirty      map[string]bool
	known      map[string]ivm.Delta
}

// of returns name's delta, empty when the transaction did not move it.
func (d *txDelta) of(name string) ivm.Delta {
	if !d.dirty[name] {
		return ivm.Delta{}
	}
	m, ok := d.known[name]
	if !ok {
		now := d.next.relationOr(name, 0)
		m = engine.DeltaOf(d.prev.relationOr(name, now.Arity()), now)
		d.known[name] = m
	}
	return m
}

// checkFunctional enforces the functional dependency — at most one value
// per key — of every predicate preds declares functional, under the rule
// constraints follow (held): the receiver holds a predicate's dependency
// when its own program declares the predicate functional and it is not
// unchecked. A held predicate the transaction dirtied is probed at the
// tuples the delta reports inserted, and one the receiver held empty or
// did not hold (new to the program, or left by Load, Solve or a restore's
// empty start) is swept whole in one ordered pass; the rest keep the
// dependency the receiver held.
func (ws *Workspace) checkFunctional(preds map[string]*compiler.PredInfo, delta *txDelta) error {
	prev := delta.prev
	for name, info := range preds {
		if !info.Functional || info.Arity < 2 {
			continue
		}
		old := prev.prog.Preds[name]
		held := old != nil && old.Functional && !prev.unchecked && !prev.relationOr(name, info.Arity).IsEmpty()
		if held && !delta.dirty[name] {
			continue
		}
		rel, nkey := ws.relationOr(name, info.Arity), info.Arity-1
		var clash []tuple.Tuple // two tuples of rel sharing a key
		if !held {
			if a, b, ok := rel.KeyConflict(); ok {
				clash = []tuple.Tuple{a, b}
			}
		} else {
			for _, t := range delta.of(name).Ins {
				if same := rel.Lookup(t[:nkey]); len(same) > 1 {
					clash = same
					break
				}
			}
		}
		if clash != nil {
			return fmt.Errorf("transaction aborted: %w: functional dependency of %s: key %s has values %s and %s",
				ErrConstraint, name, clash[0][:nkey], clash[0][nkey], clash[1][nkey])
		}
	}
	return nil
}

// checkConstraints validates the constraints ks over the workspace state
// (whose relations ctx holds), returning an error listing all violations
// if the state is illegal. A constraint the transaction's receiver is
// known to satisfy is checked against what the transaction moved (delta,
// constraintScope): skipped, or checked over the bindings it gained only;
// the others — new to the program (addblock, restore, an exec's or a
// query's own), or left unchecked by Load or Solve — are checked in full.
// Constraints that reference free solver predicates (lang:solve:variable)
// define the optimization problem rather than the set of legal states
// before a solve, so they are enforced only once the free predicate has
// been populated. sp (the constraints span) and the core.constraints.*
// counters get how many constraints went each way, a check cut short by
// an error or the deadline included.
func (ws *Workspace) checkConstraints(ctx *engine.Context, ks []*compiler.ConstraintPlan, delta *txDelta, sp *obs.Span) error {
	unsolved, prevUnsolved := ws.unsolved(ctx.Prog), delta.prev.unsolved(delta.prev.prog)
	var vs []engine.Violation
	var skipped, deltaChecked, fullChecked int64
	defer func() {
		reg := ws.Observer()
		for _, c := range []struct {
			name string
			n    int64
		}{{"delta_checked", deltaChecked}, {"full_checked", fullChecked}, {"skipped", skipped}} {
			sp.SetAttr(c.name, c.n)
			if c.n > 0 {
				reg.Counter("core.constraints." + c.name).Add(c.n)
			}
		}
	}()
	for _, k := range ks {
		if refersTo(k, unsolved) {
			skipped++
			continue
		}
		var deltas map[int]relation.Relation
		if delta.prev.holds(k, prevUnsolved) {
			var full bool
			if full, deltas = constraintScope(k, delta, ctx); !full && deltas == nil {
				skipped++
				continue
			}
		}
		if deltas == nil {
			fullChecked++
		} else {
			deltaChecked++
		}
		kvs, err := ctx.CheckConstraint(k, deltas)
		if err != nil {
			return err
		}
		vs = append(vs, kvs...)
	}
	if len(vs) == 0 {
		return nil
	}
	msg := ""
	for i, v := range vs {
		if i == 5 {
			msg += fmt.Sprintf("\n  … and %d more", len(vs)-5)
			break
		}
		msg += "\n  " + v.String()
	}
	return fmt.Errorf("transaction aborted: %d %w(s):%s", len(vs), ErrConstraint, msg)
}

// constraintScope decides how much of constraint k a transaction must
// re-check when its receiver satisfied k (paper T3: a constraint is a view
// that must stay empty). A violation can appear only through a binding the
// body gained — a tuple inserted into a positive body atom — or an old
// binding whose head stopped holding. So k is checked in full (full) when
// a head atom lost tuples, a negated body atom lost tuples, a negated head
// atom gained tuples, or a predicate read by a head lookup moved;
// otherwise it is checked over the bindings its gaining atoms take part in
// (deltas: per positive body atom that gained tuples, those tuples), and
// skipped when there are none. A constraint names stored predicates only
// (the compiler rejects a delta or @start atom in one), so the delta
// describes every relation k reads.
func constraintScope(k *compiler.ConstraintPlan, delta *txDelta, ctx *engine.Context) (full bool, deltas map[int]relation.Relation) {
	for _, a := range k.HeadAtoms {
		if len(delta.of(a.Name).Del) > 0 {
			return true, nil
		}
	}
	for _, a := range k.HeadNegAtoms {
		if len(delta.of(a.Name).Ins) > 0 {
			return true, nil
		}
	}
	for _, a := range k.Body.NegAtoms {
		if len(delta.of(a.Name).Del) > 0 {
			return true, nil
		}
	}
	for _, name := range k.HeadLookups() {
		if !delta.of(name).Empty() {
			return true, nil
		}
	}
	for ai, a := range k.Body.Atoms {
		if ins := delta.of(a.Name).Ins; len(ins) > 0 {
			if deltas == nil {
				deltas = map[int]relation.Relation{}
			}
			deltas[ai] = relation.FromTuples(ctx.Relation(a.Name).Arity(), ins)
		}
	}
	return false, deltas
}

// unsolved returns the free solver predicates of prog that ws holds
// nothing of: the constraints over them wait for a solve.
func (ws *Workspace) unsolved(prog *compiler.Program) map[string]bool {
	if prog.Solve == nil {
		return nil
	}
	out := map[string]bool{}
	for _, v := range prog.Solve.Variables {
		if ws.Relation(v).IsEmpty() {
			out[v] = true
		}
	}
	return out
}

// holds reports whether ws's state is known to satisfy k: k is a
// constraint of ws's program that its last check enforced — none is when
// ws was settled unchecked since, and none over a free solver predicate
// ws holds nothing of (unsolved, ws's own).
func (ws *Workspace) holds(k *compiler.ConstraintPlan, unsolved map[string]bool) bool {
	return !ws.unchecked && ws.constraintSrcs[k.Source] && !refersTo(k, unsolved)
}

// constraintSources returns the source texts of prog's constraints.
func constraintSources(prog *compiler.Program) map[string]bool {
	out := make(map[string]bool, len(prog.Constraints))
	for _, k := range prog.Constraints {
		out[k.Source] = true
	}
	return out
}

// refersTo reports whether k touches any of names.
func refersTo(k *compiler.ConstraintPlan, names map[string]bool) bool {
	if len(names) == 0 {
		return false
	}
	for _, ref := range k.References() {
		if names[ref] {
			return true
		}
	}
	return false
}
