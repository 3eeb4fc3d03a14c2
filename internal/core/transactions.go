package core

import (
	"context"
	"fmt"

	"logicblox/internal/ast"
	"logicblox/internal/compiler"
	"logicblox/internal/engine"
	"logicblox/internal/ivm"
	"logicblox/internal/lftj"
	"logicblox/internal/meta"
	"logicblox/internal/obs"
	"logicblox/internal/parser"
	"logicblox/internal/relation"
	"logicblox/internal/tuple"
)

// AddBlock installs a named block of logic (an addblock transaction,
// paper §2.2.2). The meta-engine determines which derived predicates the
// change dirties; only those are re-materialized (live programming,
// §3.3).
func (ws *Workspace) AddBlock(name, src string) (*Workspace, error) {
	return ws.AddBlockCtx(context.Background(), name, src)
}

// AddBlockCtx is AddBlock bounded by a context: cancellation or deadline
// expiry stops the re-materialization and the constraint check within
// one join binding, wherever they are, and nothing is installed.
func (ws *Workspace) AddBlockCtx(rctx context.Context, name, src string) (*Workspace, error) {
	if ws.blocks.Contains(name) {
		return nil, fmt.Errorf("block %s already installed: %w", name, ErrConflict)
	}
	prog, err := parser.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("block %s: %w: %w", name, ErrParse, err)
	}
	newParsed := ws.parsedBlocks()
	newParsed[name] = prog
	return ws.reinstall(rctx, name, src, prog, newParsed)
}

// RemoveBlock uninstalls a block, restoring the workspace logic to its
// state before the corresponding AddBlock.
func (ws *Workspace) RemoveBlock(name string) (*Workspace, error) {
	if !ws.blocks.Contains(name) {
		return nil, fmt.Errorf("block %s is not installed", name)
	}
	newParsed := ws.parsedBlocks()
	delete(newParsed, name)
	return ws.reinstall(context.Background(), name, "", nil, newParsed)
}

// reinstall recompiles the workspace logic after a block change and
// re-materializes exactly the dirty predicates.
func (ws *Workspace) reinstall(rctx context.Context, name, src string, parsed *ast.Program, newParsed map[string]*ast.Program) (*Workspace, error) {
	sp, done := ws.txSpan(rctx, "addblock")
	out, err := ws.reinstallTraced(rctx, name, src, parsed, newParsed, sp)
	done(err)
	return out, err
}

func (ws *Workspace) reinstallTraced(rctx context.Context, name, src string, parsed *ast.Program, newParsed map[string]*ast.Program, sp *obs.Span) (*Workspace, error) {
	csp := sp.Child("compile")
	compiled, err := compileBlocks(newParsed)
	csp.End()
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrTypecheck, err)
	}
	asp := sp.Child("analyze")
	analysis, err := meta.Analyze(ws.parsedBlocks(), newParsed)
	asp.End()
	if err != nil {
		return nil, err
	}

	out := ws.clone()
	if parsed == nil {
		out.blocks = out.blocks.Delete(name)
		out.parsed = out.parsed.Delete(name)
	} else {
		out.blocks = out.blocks.Set(name, src)
		out.parsed = out.parsed.Set(name, parsed)
	}
	out.prog = compiled

	// Drop predicates that lost all their rules.
	for _, p := range analysis.DropPreds {
		out.derived = out.derived.Delete(p)
	}

	dirty := map[string]bool{}
	for _, p := range analysis.DirtyPreds {
		dirty[p] = true
	}
	for _, p := range analysis.DropPreds {
		dirty[p] = true // downstream readers of a dropped view must see it empty
	}
	// A schema change invalidates every cached plan that reads or derives
	// an affected predicate, so the adaptive optimizer re-samples against
	// the new logic instead of trusting stale orders.
	out.plans.InvalidatePreds(dirty)
	return out.settle(rctx, ws, compiled.Preds, dirty, nil, sp, true)
}

// ExecResult reports what an exec transaction changed.
type ExecResult struct {
	Workspace *Workspace
	// BaseDeltas lists insertions and deletions per base predicate.
	BaseDeltas map[string]ExecDelta
}

// ExecDelta is the per-predicate effect of an exec transaction: the
// tuples it inserted and deleted.
type ExecDelta = ivm.Delta

// Exec runs an exec transaction (paper §2.2.2): src contains reactive
// logic — delta facts and reactive rules over +R, -R, ^R and R@start.
// The pipeline is:
//
//  1. seed R@start with the current contents of every predicate;
//  2. evaluate the reactive rules (stratified over decorated names);
//  3. expand ^R upserts into +R / -R pairs;
//  4. apply the system frame rules R := (R@start − (-R)) ∪ (+R);
//  5. re-derive affected views and check integrity constraints.
//
// On constraint violation the transaction aborts: the receiver workspace
// is untouched (it is just a value) and an error is returned.
func (ws *Workspace) Exec(src string) (*ExecResult, error) {
	return ws.ExecCtx(context.Background(), src)
}

// ExecCtx is Exec bounded by a context: cancellation or deadline expiry
// stops the reactive evaluation, the view re-derivation and the
// constraint check within one join binding, wherever they are, and the
// transaction aborts with ctx.Err() wrapped (the receiver workspace is
// untouched, as for any abort).
func (ws *Workspace) ExecCtx(rctx context.Context, src string) (*ExecResult, error) {
	res, _, err := ws.execCtx(rctx, src, false)
	return res, err
}

// execCtx is the one exec pipeline; record additionally keeps the
// transaction's repair record (see ExecRecordedCtx).
func (ws *Workspace) execCtx(rctx context.Context, src string, record bool) (*ExecResult, *ExecRecord, error) {
	sp, done := ws.txSpan(rctx, "exec")
	var rec *ExecRecord
	if record {
		rec = &ExecRecord{snapshot: ws, src: src}
	}
	var res *ExecResult
	run, err := ws.execReactive(rctx, src, sp, rec)
	if err == nil {
		res, err = ws.applyReactive(rctx, run, sp)
	}
	done(err)
	if err != nil {
		return nil, nil, err
	}
	return res, rec, nil
}

// reactiveRun is the outcome of an exec transaction's reactive phase
// against one workspace snapshot: the combined program, the evaluation
// context holding the post-reactive delta relations, and the pure
// derivations per head predicate (the union of every rule-evaluation
// output, independent of what the heads were seeded with).
type reactiveRun struct {
	combined *compiler.Program
	ctx      *engine.Context
	derived  map[string]relation.Relation
}

// seedExecCtx builds the engine context for an exec transaction's
// reactive phase over ws: current contents plus @start versions.
func (ws *Workspace) seedExecCtx(rctx context.Context, combined *compiler.Program) *engine.Context {
	ctx := ws.newContext(rctx, combined)
	for p, info := range combined.Preds {
		// relationOr, not Relation: a predicate first introduced by this
		// transaction is unknown to ws.prog, and defaulting its @start
		// arity would corrupt the delta application below.
		ctx.Set(p+compiler.DecorAtStart, ws.relationOr(p, info.Arity))
	}
	return ctx
}

// execReactive parses, compiles and evaluates the reactive strata of an
// exec transaction against ws. When rec is non-nil it additionally
// records, per reactive stratum, the sensitivity intervals of every read
// and the pure derivations of every rule — the read/derivation record
// that ExecRecord.Repair replays against a different head on commit
// conflict (paper §3.4).
func (ws *Workspace) execReactive(rctx context.Context, src string, sp *obs.Span, rec *ExecRecord) (*reactiveRun, error) {
	psp := sp.Child("parse")
	eprog, err := parser.Parse(src)
	psp.End()
	if err != nil {
		return nil, fmt.Errorf("exec %w: %w", ErrParse, err)
	}
	csp := sp.Child("compile")
	combined, err := compileBlocks(ws.parsedBlocks(), eprog)
	csp.End()
	if err != nil {
		return nil, fmt.Errorf("exec %w: %w", ErrTypecheck, err)
	}
	ctx := ws.seedExecCtx(rctx, combined)
	run := &reactiveRun{combined: combined, ctx: ctx, derived: map[string]relation.Relation{}}

	// Evaluate reactive strata.
	esp := sp.Child("eval.reactive")
	ctx.SetSpan(esp)
	for _, stratum := range combined.ReactiveStrata {
		var idx *lftj.SensitivityIndex
		if rec != nil {
			idx = lftj.NewSensitivityIndex()
			ctx.SetSensitivityIndex(idx)
		}
		ctx.StartDerivedCapture()
		err := ctx.EvalStratum(stratum)
		capt := ctx.TakeDerivedCapture()
		if rec != nil {
			ctx.SetSensitivityIndex(nil)
		}
		if err != nil {
			esp.End()
			return nil, fmt.Errorf("exec: %w", err)
		}
		if rec != nil {
			rec.strata = append(rec.strata, recordedStratum{sens: idx, derived: capt})
		}
		mergeDerived(run.derived, capt)
	}
	ctx.SetSpan(nil)
	esp.End()
	if rec != nil {
		rec.combined = combined
	}
	return run, nil
}

// mergeDerived unions src's per-head derivations into dst.
func mergeDerived(dst, src map[string]relation.Relation) {
	for h, r := range src {
		if cur, ok := dst[h]; ok {
			dst[h] = cur.Union(r)
		} else {
			dst[h] = r
		}
	}
}

// baseDelta is one predicate's requested change in the form the system
// frame rules consume: the +R, -R and ^R relations of an exec
// transaction. Direct writes (Insert, Delete, Load) build the same value
// from their tuple lists, so every base change is an exec by construction.
type baseDelta struct {
	plus, minus, hat relation.Relation
}

// applyReactive finishes an exec transaction against the receiver: it
// collects the transaction's +R / -R / ^R relations, folds plain-headed
// reactive derivations into their heads' +R, and hands the lot to
// applyBase. run's context must have been seeded from the receiver (its
// @start relations are the receiver's contents) — either by execReactive
// on this workspace, or by ExecRecord replay onto a new head.
func (ws *Workspace) applyReactive(rctx context.Context, run *reactiveRun, sp *obs.Span) (*ExecResult, error) {
	combined, ctx := run.combined, run.ctx
	delta := func(p string) baseDelta {
		return baseDelta{
			plus:  ctx.Relation(compiler.DecorPlus + p),
			minus: ctx.Relation(compiler.DecorMinus + p),
			hat:   ctx.Relation(compiler.DecorHat + p),
		}
	}
	changes := map[string]baseDelta{}
	for p := range combined.Preds {
		if d := delta(p); !d.plus.IsEmpty() || !d.minus.IsEmpty() || !d.hat.IsEmpty() {
			changes[p] = d
		}
	}
	// Plain-headed reactive rules (e.g. audit logs fed by +R) insert their
	// pure derivations into their extensional head predicates. Using the
	// captured derivations (rather than the context's head content, which
	// also holds the head's seed) keeps the merge independent of what the
	// receiver already stored — a frame deletion of a head tuple survives
	// unless the transaction actually re-derived it.
	for head, derived := range run.derived {
		if compiler.BaseName(head) != head || derived.IsEmpty() {
			continue
		}
		d := delta(head)
		d.plus = d.plus.Union(derived)
		changes[head] = d
	}
	return ws.applyBase(rctx, combined.Preds, changes, sp, true)
}

// applyBase is the one base-delta step every write goes through: expand
// ^R upserts, apply the frame rules R := (R@start − (-R)) ∪ (+R) to the
// receiver's base predicates, compute the exact per-predicate deltas, and
// settle the result. preds is the symbol table the change was compiled
// against (it may know predicates the receiver does not yet). A change
// that leaves every predicate as it was returns the receiver itself.
func (ws *Workspace) applyBase(rctx context.Context, preds map[string]*compiler.PredInfo, changes map[string]baseDelta, sp *obs.Span, check bool) (*ExecResult, error) {
	fsp := sp.Child("frame")
	out := ws.clone()
	deltas := map[string]ExecDelta{}
	dirty := map[string]bool{}
	var ins, del int64
	for p, c := range changes {
		info := preds[p]
		arity := c.plus.Arity()
		if info != nil {
			if !info.EDB {
				fsp.End()
				return nil, fmt.Errorf("%w: cannot modify derived predicate %s", ErrTypecheck, p)
			}
			arity = info.Arity
		}
		start := ws.relationOr(p, arity)
		plus, minus := c.plus, c.minus
		// ^R replaces the functional value for the key: delete the old
		// binding (if different) and insert the new one.
		c.hat.ForEach(func(t tuple.Tuple) bool {
			if info != nil && info.Functional && arity >= 2 {
				if old, ok := start.FuncGet(t[:arity-1]); ok && !tuple.Equal(old, t[arity-1]) {
					minus = minus.Insert(append(t[:arity-1].Clone(), old))
				}
			}
			plus = plus.Insert(t)
			return true
		})
		next := start.Difference(minus).Union(plus)
		if next.Equal(start) {
			continue
		}
		var d ExecDelta
		start.Diff(next,
			func(t tuple.Tuple) { d.Del = append(d.Del, t) },
			func(t tuple.Tuple) { d.Ins = append(d.Ins, t) })
		deltas[p] = d
		ins += int64(len(d.Ins))
		del += int64(len(d.Del))
		out.base = out.base.Set(p, next)
		dirty[p] = true
	}
	fsp.End()
	sp.SetAttr("base_ins", ins)
	sp.SetAttr("base_del", del)
	if len(dirty) == 0 {
		return &ExecResult{Workspace: ws, BaseDeltas: deltas}, nil
	}
	res, err := out.settle(rctx, ws, preds, dirty, deltas, sp, check)
	if err != nil {
		return nil, err
	}
	return &ExecResult{Workspace: res, BaseDeltas: deltas}, nil
}

// settle is the single transaction tail: whatever moved the base
// relations or the logic of prev, the cloned workspace ends here — in one
// evaluation context bounded by rctx, affected views are re-derived from
// the dirty set and, unless check is off, functional dependencies (of
// the predicates that changed, as declared in preds — the symbol table
// the change was compiled against) and integrity constraints are
// verified over the result, both against the delta from prev: base holds
// the exact deltas of the base predicates the caller already knows
// (applyBase's), and only the dirty names nobody reported are diffed. Only Load
// (bulk seeding across predicates with referential constraints) and Solve
// (feasible by construction) run unchecked; the version they leave is
// marked so that the next checked transaction checks in full.
func (ws *Workspace) settle(rctx context.Context, prev *Workspace, preds map[string]*compiler.PredInfo, dirty map[string]bool, base map[string]ExecDelta, sp *obs.Span, check bool) (*Workspace, error) {
	ctx := ws.newContext(rctx, ws.prog)
	out, moved, err := ws.rederive(ctx, prev, dirty, base, sp)
	if err != nil {
		return nil, err
	}
	out.unchecked = !check
	if !check {
		return out, nil
	}
	for p, d := range base {
		moved[p] = d
	}
	ksp := sp.Child("constraints")
	delta := &txDelta{prev: prev, next: out, dirty: dirty, known: moved}
	err = out.checkFunctional(preds, delta)
	if err == nil {
		err = out.checkConstraints(ctx, delta, ksp)
	}
	ksp.End()
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Insert is a convenience exec: it inserts tuples into a base predicate
// directly, bypassing parsing (heavy transactional workloads use this
// path; it is equivalent to an exec of +pred facts).
func (ws *Workspace) Insert(pred string, tuples ...tuple.Tuple) (*Workspace, error) {
	res, err := ws.applyDirect(pred, tuples, nil, true)
	if err != nil {
		return nil, err
	}
	return res.Workspace, nil
}

// Delete is the deletion counterpart of Insert.
func (ws *Workspace) Delete(pred string, tuples ...tuple.Tuple) (*Workspace, error) {
	res, err := ws.applyDirect(pred, nil, tuples, true)
	if err != nil {
		return nil, err
	}
	return res.Workspace, nil
}

// applyDirect runs the exec transaction "+pred(ins…). -pred(del…)."
// without parsing or compiling anything: the tuple lists become the
// predicate's +R / -R and go through applyBase like any other exec.
func (ws *Workspace) applyDirect(pred string, ins, del []tuple.Tuple, check bool) (*ExecResult, error) {
	sp, done := ws.txSpan(context.Background(), "exec")
	arity := 0
	if info, ok := ws.prog.Preds[pred]; ok {
		arity = info.Arity
	} else if len(ins) > 0 {
		arity = len(ins[0])
	} else if len(del) > 0 {
		arity = len(del[0])
	}
	for _, ts := range [][]tuple.Tuple{ins, del} {
		for _, t := range ts {
			if len(t) != arity {
				err := fmt.Errorf("%w: %s has arity %d, got a tuple of %d values", ErrTypecheck, pred, arity, len(t))
				done(err)
				return nil, err
			}
		}
	}
	change := baseDelta{plus: relation.FromTuples(arity, ins), minus: relation.FromTuples(arity, del), hat: relation.New(arity)}
	res, err := ws.applyBase(context.Background(), ws.prog.Preds, map[string]baseDelta{pred: change}, sp, check)
	done(err)
	return res, err
}
