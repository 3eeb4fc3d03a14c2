package core

import (
	"context"
	"fmt"

	"logicblox/internal/compiler"
	"logicblox/internal/engine"
	"logicblox/internal/ivm"
	"logicblox/internal/lftj"
	"logicblox/internal/obs"
	"logicblox/internal/parser"
	"logicblox/internal/pmap"
	"logicblox/internal/relation"
	"logicblox/internal/tuple"
)

// AddBlock installs a named block of logic (an addblock transaction,
// paper §2.2.2). Only the strata the change reaches are maintained (live
// programming, §3.3): see reinstall.
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
	return ws.reinstall(rctx, "addblock", ws.blocks.Set(name, src))
}

// RemoveBlock uninstalls a block, restoring the workspace logic to its
// state before the corresponding AddBlock.
func (ws *Workspace) RemoveBlock(name string) (*Workspace, error) {
	if !ws.blocks.Contains(name) {
		return nil, fmt.Errorf("block %s is not installed", name)
	}
	return ws.reinstall(context.Background(), "removeblock", ws.blocks.Delete(name))
}

// reinstall compiles blocks, the workspace's logic after a block change
// (kind is the transaction: addblock or removeblock), and settles the
// result. The change is the heads of the rules it added or removed; the
// stratum walk re-evaluates those and maintains their readers by the
// heads' deltas.
func (ws *Workspace) reinstall(rctx context.Context, kind string, blocks pmap.Map[string]) (*Workspace, error) {
	sp, done := ws.txSpan(rctx, kind)
	out, err := ws.reinstallTraced(rctx, blocks, sp)
	done(err)
	return out, err
}

func (ws *Workspace) reinstallTraced(rctx context.Context, blocks pmap.Map[string], sp *obs.Span) (*Workspace, error) {
	psp := sp.Child("parse")
	progs, err := parseBlocks(blocks)
	psp.End()
	if err != nil {
		return nil, err
	}
	csp := sp.Child("compile")
	compiled, err := compiler.Compile(progs...)
	csp.End()
	if err == nil {
		err = ws.checkArities(compiled)
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrTypecheck, err)
	}

	out := ws.clone()
	out.blocks, out.prog, out.constraintSrcs = blocks, compiled, constraintSources(compiled)

	// A head that lost its last rule is dropped: its readers see it empty.
	dirty := changedHeads(ws.prog, compiled)
	for p := range dirty {
		if info := compiled.Preds[p]; info == nil || info.EDB {
			out.derived = out.derived.Delete(p)
		}
	}
	out, _, err = out.settle(rctx, ws, compiled, dirty, nil, sp, true)
	return out, err
}

// changedHeads returns the head of every rule whose printed source occurs
// a different number of times in the two programs: the heads an addblock
// or removeblock changes the rules of.
func changedHeads(from, to *compiler.Program) map[string]bool {
	count := map[string]int{}
	for _, r := range from.Rules {
		count[r.Source]++
	}
	for _, r := range to.Rules {
		count[r.Source]--
	}
	heads := map[string]bool{}
	for _, rules := range [][]*compiler.RulePlan{from.Rules, to.Rules} {
		for _, r := range rules {
			if count[r.Source] != 0 {
				heads[r.HeadName] = true
			}
		}
	}
	return heads
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
		rec = &ExecRecord{snapshot: ws}
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
// against one workspace snapshot: the combined program and the evaluation
// context holding the post-reactive delta relations.
type reactiveRun struct {
	combined *compiler.Program
	ctx      *engine.Context
}

// execReactive parses and compiles an exec transaction against ws and
// evaluates its reactive strata. An exec holds delta facts, reactive
// rules, declarations and constraints, which its check enforces over its
// result: a static rule is an ErrTypecheck, since no reactive stratum
// would evaluate it, and so is a lang:solve directive, since an exec
// installs no logic for it to direct. When rec is non-nil it keeps the
// compiled program and the per-stratum record that ExecRecord.Repair
// replays against a different head on commit conflict (paper §3.4).
func (ws *Workspace) execReactive(rctx context.Context, src string, sp *obs.Span, rec *ExecRecord) (*reactiveRun, error) {
	psp := sp.Child("parse")
	eprog, err := parser.Parse(src)
	psp.End()
	if err != nil {
		return nil, fmt.Errorf("exec %w: %w", ErrParse, err)
	}
	csp := sp.Child("compile")
	combined, err := compiler.Extend(ws.prog, eprog)
	csp.End()
	if err == nil && len(combined.Rules) > len(ws.prog.Rules) {
		err = fmt.Errorf("static rule %q in an exec: install it with addblock", combined.Rules[len(ws.prog.Rules)].Source)
	}
	if ds := eprog.Directives(); err == nil && len(ds) > 0 {
		err = fmt.Errorf("directive %s in an exec: install it with addblock", ds[0])
	}
	if err == nil {
		err = ws.checkArities(combined)
	}
	if err != nil {
		return nil, fmt.Errorf("exec %w: %w", ErrTypecheck, err)
	}
	if rec != nil {
		rec.combined = combined
	}
	run, err := ws.runReactive(rctx, combined, nil, rec, sp)
	if err != nil {
		return nil, fmt.Errorf("exec: %w", err)
	}
	return run, nil
}

// runReactive is the one reactive-strata loop, over an engine context
// seeded from ws: current contents plus @start versions. Every reactive
// head is a delta predicate, so it starts empty and after its stratum
// holds exactly what the stratum derived. The first len(replayed) strata
// (repair's unaffected prefix) install their recorded heads, and the rest
// are evaluated. With rec non-nil each evaluated stratum's read intervals
// and heads are recorded.
func (ws *Workspace) runReactive(rctx context.Context, combined *compiler.Program, replayed []recordedStratum, rec *ExecRecord, sp *obs.Span) (*reactiveRun, error) {
	ctx := ws.newContext(rctx, combined)
	for p, info := range combined.Preds {
		// relationOr, not Relation: a predicate first introduced by this
		// transaction is unknown to ws.prog, and defaulting its @start
		// arity would corrupt the delta application below.
		ctx.Set(p+compiler.DecorAtStart, ws.relationOr(p, info.Arity))
	}
	for _, st := range replayed {
		for h, r := range st.heads {
			ctx.Set(h, r)
		}
	}
	esp := sp.Child("eval.reactive")
	defer esp.End()
	ctx.SetSpan(esp)
	defer ctx.SetSpan(nil)
	for _, stratum := range combined.ReactiveStrata[len(replayed):] {
		var idx *lftj.SensitivityIndex
		if rec != nil {
			idx = lftj.NewSensitivityIndex()
		}
		ctx.SetSensitivityIndex(idx)
		if err := ctx.EvalStratum(stratum); err != nil {
			return nil, err
		}
		if rec != nil {
			heads := map[string]relation.Relation{}
			for _, r := range stratum {
				heads[r.HeadName] = ctx.Relation(r.HeadName)
			}
			rec.strata = append(rec.strata, recordedStratum{sens: idx, heads: heads})
		}
	}
	return &reactiveRun{combined: combined, ctx: ctx}, nil
}

// baseDelta is one predicate's requested change in the form the system
// frame rules consume: the +R, -R and ^R relations of an exec
// transaction. Direct writes (Insert, Delete, Load) build the same value
// from their tuple lists, so every base change is an exec by construction.
type baseDelta struct {
	plus, minus, hat relation.Relation
}

// applyReactive finishes an exec transaction against the receiver: it
// collects the transaction's +R / -R / ^R relations and hands them to
// applyBase. run's context must have been seeded from the receiver (its
// @start relations are the receiver's contents) — by runReactive, for an
// exec on this workspace or an ExecRecord replay onto a new head.
func (ws *Workspace) applyReactive(rctx context.Context, run *reactiveRun, sp *obs.Span) (*ExecResult, error) {
	ctx := run.ctx
	changes := map[string]baseDelta{}
	for p := range run.combined.Preds {
		d := baseDelta{
			plus:  ctx.Relation(compiler.DecorPlus + p),
			minus: ctx.Relation(compiler.DecorMinus + p),
			hat:   ctx.Relation(compiler.DecorHat + p),
		}
		if !d.plus.IsEmpty() || !d.minus.IsEmpty() || !d.hat.IsEmpty() {
			changes[p] = d
		}
	}
	return ws.applyBase(rctx, run.combined, changes, sp, true)
}

// applyBase is the one base-delta step every write goes through: expand
// ^R upserts, apply the frame rules R := (R@start − (-R)) ∪ (+R) to the
// receiver's base predicates, compute the exact per-predicate deltas, and
// settle the result. prog is the program the change was compiled to (an
// exec's: the installed program extended by the exec's declarations and
// constraints, so it may know predicates the receiver does not yet). A
// change that leaves every predicate as it was returns the receiver
// itself — unless the change is checked and the receiver is not: the
// next checked write reports what Load or Solve left, even one that
// writes nothing new.
func (ws *Workspace) applyBase(rctx context.Context, prog *compiler.Program, changes map[string]baseDelta, sp *obs.Span, check bool) (*ExecResult, error) {
	fsp := sp.Child("frame")
	out := ws.clone()
	deltas := map[string]ExecDelta{}
	dirty := map[string]bool{}
	var ins, del int64
	for p, c := range changes {
		info := prog.Preds[p]
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
		d := engine.DeltaOf(start, next)
		deltas[p] = d
		ins += int64(len(d.Ins))
		del += int64(len(d.Del))
		out.base = out.base.Set(p, next)
		dirty[p] = true
	}
	fsp.End()
	sp.SetAttr("base_ins", ins)
	sp.SetAttr("base_del", del)
	if len(dirty) == 0 && (!check || !ws.unchecked) {
		return &ExecResult{Workspace: ws, BaseDeltas: deltas}, nil
	}
	res, _, err := out.settle(rctx, ws, prog, dirty, deltas, sp, check)
	if err != nil {
		return nil, err
	}
	return &ExecResult{Workspace: res, BaseDeltas: deltas}, nil
}

// settle is the single transaction tail: whatever moved the base
// relations or the logic of prev, the cloned workspace ends here — in one
// evaluation context bounded by rctx, which it returns, affected views
// are re-derived from the dirty set and, unless check is off, functional
// dependencies and integrity constraints are verified over the result,
// both as declared in prog — the program the change was compiled to,
// whose constraints an exec or a query may extend — and against the
// delta from prev: base holds the exact deltas of the base predicates the
// caller already knows (applyBase's), and only the dirty names nobody
// reported are diffed. What prev is known to satisfy (held, and
// checkFunctional's held rule) is checked against the delta only. Only
// Load (bulk seeding across predicates with referential constraints) and
// Solve (feasible by construction) run unchecked; the version they leave
// holds nothing, so the next checked transaction checks in full.
func (ws *Workspace) settle(rctx context.Context, prev *Workspace, prog *compiler.Program, dirty map[string]bool, base map[string]ExecDelta, sp *obs.Span, check bool) (*Workspace, *engine.Context, error) {
	ctx := ws.newContext(rctx, prog)
	out, moved, err := ws.rederive(ctx, prev, dirty, base, sp)
	if err != nil {
		return nil, nil, err
	}
	out.unchecked = !check
	if !check {
		return out, ctx, nil
	}
	for p, d := range base {
		moved[p] = d
	}
	ksp := sp.Child("constraints")
	delta := &txDelta{prev: prev, next: out, dirty: dirty, known: moved}
	err = out.checkFunctional(prog.Preds, delta)
	if err == nil {
		err = out.checkConstraints(ctx, prog.Constraints, delta, ksp)
	}
	ksp.End()
	if err != nil {
		return nil, nil, err
	}
	return out, ctx, nil
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
	} else if stored, ok := ws.base.Get(pred); ok {
		arity = stored.Arity()
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
	res, err := ws.applyBase(context.Background(), ws.prog, map[string]baseDelta{pred: change}, sp, check)
	done(err)
	return res, err
}
