// Package core implements workspaces and transactions (paper §2.2.2,
// §3.1): a workspace bundles logic (blocks of rules and constraints) with
// the contents of base predicates plus the materialized derived
// predicates. Workspaces are immutable values built entirely from
// persistent data structures, so branching is O(1), every transaction
// yields a new version sharing structure with its parent, and aborting a
// transaction is dropping a pointer.
package core

import (
	"context"
	"sort"

	"logicblox/internal/ast"
	"logicblox/internal/compiler"
	"logicblox/internal/engine"
	"logicblox/internal/ivm"
	"logicblox/internal/ml"
	"logicblox/internal/obs"
	"logicblox/internal/optimizer"
	"logicblox/internal/pmap"
	"logicblox/internal/relation"
	"logicblox/internal/tuple"
)

// Workspace is one immutable version of the database: logic + data.
// All mutating methods return a new Workspace.
type Workspace struct {
	blocks  pmap.Map[string]            // block name → LogiQL source
	parsed  pmap.Map[*ast.Program]      // block name → parsed program
	prog    *compiler.Program           // compiled program (shared, immutable)
	base    pmap.Map[relation.Relation] // base predicate contents
	derived pmap.Map[relation.Relation] // derived predicate contents
	models  *ml.Registry                // model store (append-only, shared across versions)
	version uint64
	plans   *optimizer.PlanStore // sampled join orders (paper §3.2), shared across versions; nil = the compiler's orders
	obs     *obs.Registry        // transaction profiling target (nil → obs.Default)
	// unchecked marks a version settled without the integrity check (Load,
	// Solve) and not since checked: its state may violate a constraint, so
	// the next checked transaction checks every constraint in full.
	unchecked bool
}

// NewWorkspace returns an empty workspace with no logic and no data.
func NewWorkspace() *Workspace {
	empty, err := compiler.Compile(&ast.Program{})
	if err != nil {
		panic(err)
	}
	return &Workspace{
		blocks:  pmap.NewMap[string](),
		parsed:  pmap.NewMap[*ast.Program](),
		prog:    empty,
		base:    pmap.NewMap[relation.Relation](),
		derived: pmap.NewMap[relation.Relation](),
		models:  ml.NewRegistry(),
	}
}

// Version returns the workspace's version number (monotone along a
// branch's history).
func (ws *Workspace) Version() uint64 { return ws.version }

// WithAdaptiveOptimizer returns a workspace whose evaluations use the
// feedback-driven adaptive optimizer: each rule's variable order is chosen
// by the sampling optimizer (paper §3.2), and chosen orders persist in a
// plan store shared by every version and branch derived from this
// workspace (like the model registry). Subsequent transactions reuse
// cached orders and re-run sampling only when the engine's observed
// evaluation costs drift past the store's threshold, when input
// cardinalities change materially, or when a schema change invalidates
// the plan. Passing false detaches the store: rules run in the compiler's
// order.
func (ws *Workspace) WithAdaptiveOptimizer(on bool) *Workspace {
	cp := *ws
	cp.plans = nil
	if on {
		cp.plans = optimizer.NewPlanStore()
	}
	return &cp
}

// newContext is the one place a workspace builds an engine evaluation
// context: prog (the installed program, or it combined with a
// transaction's or query's own rules) over this version's relations, with
// the lineage's models, plan store and observer, bounded by rctx.
func (ws *Workspace) newContext(rctx context.Context, prog *compiler.Program) *engine.Context {
	return engine.NewContext(prog, ws.relations(), engine.Options{Models: ws.models, Plans: ws.plans, Obs: ws.Observer(), Ctx: rctx})
}

// PlanStore returns the adaptive optimizer's plan cache, or nil when the
// workspace is not running with WithAdaptiveOptimizer.
func (ws *Workspace) PlanStore() *optimizer.PlanStore { return ws.plans }

// Blocks returns the installed block names.
func (ws *Workspace) Blocks() []string { return ws.blocks.Keys() }

// Program returns the compiled program.
func (ws *Workspace) Program() *compiler.Program { return ws.prog }

// Models returns the predict-rule model registry.
func (ws *Workspace) Models() *ml.Registry { return ws.models }

// Relation returns the current contents of a predicate (base or derived).
func (ws *Workspace) Relation(name string) relation.Relation {
	if r, ok := ws.derived.Get(name); ok {
		return r
	}
	if r, ok := ws.base.Get(name); ok {
		return r
	}
	arity := 1
	if p, ok := ws.prog.Preds[name]; ok {
		arity = p.Arity
	}
	return relation.New(arity)
}

// Relations returns the full predicate → contents map (base and
// derived) of this version. The map is freshly allocated; the relations
// themselves are immutable persistent values.
func (ws *Workspace) Relations() map[string]relation.Relation { return ws.relations() }

// relationOr returns the current contents of a predicate, or an empty
// relation of the given arity when the workspace holds no data for it.
// Transactions use this with the arity of the program they compiled,
// which — unlike ws.prog behind Relation — also knows predicates the
// transaction introduces (data-first live programming: facts may arrive
// before any logic mentions their predicate).
func (ws *Workspace) relationOr(name string, arity int) relation.Relation {
	if r, ok := ws.derived.Get(name); ok {
		return r
	}
	if r, ok := ws.base.Get(name); ok {
		return r
	}
	return relation.New(arity)
}

// relations materializes the full name → relation map for an engine
// context.
func (ws *Workspace) relations() map[string]relation.Relation {
	out := map[string]relation.Relation{}
	ws.base.Range(func(k string, v relation.Relation) bool { out[k] = v; return true })
	ws.derived.Range(func(k string, v relation.Relation) bool { out[k] = v; return true })
	return out
}

func (ws *Workspace) clone() *Workspace {
	cp := *ws
	cp.version = ws.version + 1
	return &cp
}

// parsedBlocks returns the parsed programs keyed by block name.
func (ws *Workspace) parsedBlocks() map[string]*ast.Program {
	out := map[string]*ast.Program{}
	ws.parsed.Range(func(k string, v *ast.Program) bool { out[k] = v; return true })
	return out
}

func compileBlocks(parsed map[string]*ast.Program, extra ...*ast.Program) (*compiler.Program, error) {
	var names []string
	for n := range parsed {
		names = append(names, n)
	}
	sort.Strings(names)
	var progs []*ast.Program
	for _, n := range names {
		progs = append(progs, parsed[n])
	}
	progs = append(progs, extra...)
	return compiler.Compile(progs...)
}

// rederive re-materializes derived predicates after base-data or logic
// changes from prev, in ctx — the transaction tail's evaluation context,
// which holds ws's relations. dirty names what changed (base predicates
// with new contents and/or derived predicates marked dirty by the
// meta-engine) and grows by every derived predicate the pass moved; base
// holds the exact deltas of the dirty names that have one. The change
// propagates through the execution graph, and a predicate none of whose
// dependencies changed keeps its stored contents — the engine-side half of
// live programming (paper Figure 6). The maintenance itself is ivm's
// stratum walk in DRed mode: a stratum that reads only known deltas is
// maintained by them (an aggregate by re-folding the groups they touch),
// one that derives or reads a dirty name without a delta is re-evaluated
// whole. It also returns the delta of every derived predicate it moved.
func (ws *Workspace) rederive(ctx *engine.Context, prev *Workspace, dirty map[string]bool, base map[string]ivm.Delta, parent *obs.Span) (*Workspace, map[string]ivm.Delta, error) {
	sp := parent.Child("rederive")
	sp.SetAttr("dirty", int64(len(dirty)))
	ctx.SetSpan(sp)
	changed, before := map[string]bool{}, map[string]relation.Relation{}
	for name := range dirty {
		if _, ok := base[name]; ok {
			before[name] = prev.relationOr(name, ctx.Relation(name).Arity())
		} else {
			changed[name] = true
		}
	}
	moved, st, err := ivm.Rederive(ctx, changed, base, before)
	evals, reused := int64(st.RulesEvaluated), int64(st.RulesSkipped)
	sp.SetAttr("rules_evaluated", evals)
	sp.SetAttr("rules_reused", reused)
	sp.End()
	if evals+reused > 0 {
		reg := ws.Observer()
		reg.Counter("core.rederive.rules_evaluated").Add(evals)
		reg.Counter("core.rederive.rules_reused").Add(reused)
		reg.Counter("core.rederive.strata_reevaluated").Add(int64(st.StrataReevaluated))
		reg.Counter("core.rederive.groups_refolded").Add(int64(st.GroupsRefolded))
	}
	if err != nil {
		return nil, nil, err
	}
	out := ws.clone()
	for h := range moved {
		out.derived = out.derived.Set(h, ctx.Relation(h))
		dirty[h] = true
	}
	return out, moved, nil
}

// Query runs a query transaction: src is a program with a designated
// answer predicate "_" (plus any auxiliary rules). It returns the answer
// tuples. The workspace is unchanged (queries are read-only and run on
// the branch's snapshot, paper §3.1).
func (ws *Workspace) Query(src string) ([]tuple.Tuple, error) {
	return ws.QueryCtx(context.Background(), src)
}

// QueryCtx is Query bounded by a context: cancellation or deadline
// expiry stops the evaluation within one join binding, materialized or
// streamed, and the transaction returns ctx.Err() wrapped. It is a thin
// wrapper that drains a QueryCursor, so every read path evaluates
// identically.
func (ws *Workspace) QueryCtx(rctx context.Context, src string) ([]tuple.Tuple, error) {
	cur, err := ws.QueryCursor(rctx, src)
	if err != nil {
		return nil, err
	}
	defer cur.Close()
	out := make([]tuple.Tuple, 0, cur.hint)
	for t, ok := cur.Next(); ok; t, ok = cur.Next() {
		out = append(out, t)
	}
	if err := cur.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// Load seeds a base predicate in bulk: an exec of +name facts that skips
// the integrity-constraint check, so predicates tied together by
// referential constraints can be loaded one after the other in any order.
// A violation left behind by Load is reported by the next checked
// transaction (Exec, Insert, AddBlock, …) on the workspace.
func (ws *Workspace) Load(name string, tuples []tuple.Tuple) (*Workspace, error) {
	res, err := ws.applyDirect(name, tuples, nil, false)
	if err != nil {
		return nil, err
	}
	return res.Workspace, nil
}
