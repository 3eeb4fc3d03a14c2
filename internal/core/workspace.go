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
	"fmt"
	"slices"

	"logicblox/internal/ast"
	"logicblox/internal/compiler"
	"logicblox/internal/engine"
	"logicblox/internal/ivm"
	"logicblox/internal/ml"
	"logicblox/internal/obs"
	"logicblox/internal/parser"
	"logicblox/internal/pmap"
	"logicblox/internal/relation"
	"logicblox/internal/tuple"
)

// Workspace is one immutable version of the database: logic + data.
// All mutating methods return a new Workspace.
type Workspace struct {
	blocks pmap.Map[string]  // block name → LogiQL source
	prog   *compiler.Program // compiled blocks in name order (shared, immutable)
	// constraintSrcs holds the source texts of prog's constraints (shared,
	// immutable).
	constraintSrcs map[string]bool
	base           pmap.Map[relation.Relation] // base predicate contents
	derived        pmap.Map[relation.Relation] // derived predicate contents
	models         *ml.Registry                // model store (append-only, shared across versions)
	memo           *ivm.Memo                   // strata evaluated whole before (shared across versions)
	version        uint64
	obs            *obs.Registry // transaction profiling target (nil → obs.Default)
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
		blocks:         pmap.NewMap[string](),
		prog:           empty,
		constraintSrcs: constraintSources(empty),
		base:           pmap.NewMap[relation.Relation](),
		derived:        pmap.NewMap[relation.Relation](),
		models:         ml.NewRegistry(),
		memo:           ivm.NewMemo(),
	}
}

// Version returns the workspace's version number (monotone along a
// branch's history).
func (ws *Workspace) Version() uint64 { return ws.version }

// newContext is the one place a workspace builds an engine evaluation
// context: prog (the installed program, or it combined with a
// transaction's or query's own rules) over this version's relations, with
// the lineage's models and observer, bounded by rctx.
func (ws *Workspace) newContext(rctx context.Context, prog *compiler.Program) *engine.Context {
	return engine.NewContextOver(prog, wsRelations{ws}, engine.Options{Models: ws.models, Obs: ws.Observer(), Ctx: rctx})
}

// wsRelations is the engine.Source of a workspace's contents: its derived
// relations over its base ones, read in place.
type wsRelations struct{ ws *Workspace }

func (s wsRelations) Get(name string) (relation.Relation, bool) {
	if r, ok := s.ws.derived.Get(name); ok {
		return r, true
	}
	return s.ws.base.Get(name)
}

func (s wsRelations) Range(f func(string, relation.Relation) bool) {
	for name, r := range s.ws.relations() {
		if !f(name, r) {
			return
		}
	}
}

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

// checkArities fails when prog gives a predicate ws holds data for another
// arity: data may arrive before any logic mentions its predicate
// (data-first live programming), so only the data fixed its arity.
func (ws *Workspace) checkArities(prog *compiler.Program) error {
	for name, info := range prog.Preds {
		if r, ok := ws.base.Get(name); ok && r.Arity() != info.Arity {
			return fmt.Errorf("%s has arity %d, but its stored tuples have %d values", name, info.Arity, r.Arity())
		}
	}
	return nil
}

// parseBlocks parses every block in name order, the order the installed
// program is compiled in. A block that fails to parse is an ErrParse.
func parseBlocks(blocks pmap.Map[string]) ([]*ast.Program, error) {
	progs := make([]*ast.Program, 0, blocks.Len())
	var err error
	blocks.Range(func(name, src string) bool {
		var prog *ast.Program
		if prog, err = parser.Parse(src); err != nil {
			err = fmt.Errorf("block %s: %w: %w", name, ErrParse, err)
			return false
		}
		progs = append(progs, prog)
		return true
	})
	return progs, err
}

// rederive re-materializes derived predicates after base-data or logic
// changes from prev, in ctx — the transaction tail's evaluation context,
// which holds ws's relations. dirty names what changed (base predicates
// with new contents and/or the heads whose rules a block change added or
// removed) and grows by every derived predicate the pass moved; base
// holds the exact deltas of the dirty names that have one. The change
// propagates through the execution graph, and a predicate none of whose
// dependencies changed keeps its stored contents (live programming, paper
// Figure 6). The maintenance itself is ivm's stratum walk in DRed mode: a
// stratum that derives or reads a dirty name without a delta is
// re-evaluated whole, and one that reads only known deltas — those of
// base, and those of the heads maintained before it — is maintained by
// them (an aggregate's touched groups by their signed delta or a
// re-fold). It also returns the delta of every derived predicate it moved,
// and publishes what the walk came to: the rules it evaluated and reused,
// how it maintained them, and its memo lookups (ivm.Memo).
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
	moved, st, err := ivm.Rederive(ctx, ws.memo, changed, base, before)
	sp.SetAttr("rules_evaluated", int64(st.RulesEvaluated))
	sp.SetAttr("rules_reused", int64(st.RulesSkipped))
	sp.End()
	reg := ws.Observer()
	if evals, reused := int64(st.RulesEvaluated), int64(st.RulesSkipped); evals+reused > 0 {
		reg.Counter("core.rederive.rules_evaluated").Add(evals)
		reg.Counter("core.rederive.rules_reused").Add(reused)
		reg.Counter("core.rederive.strata_reevaluated").Add(int64(st.StrataReevaluated))
		reg.Counter("core.rederive.groups_signed").Add(int64(st.GroupsSigned))
		reg.Counter("core.rederive.groups_refolded").Add(int64(st.GroupsRefolded))
	}
	if st.MemoHits+st.MemoMisses+st.MemoFallbacks+st.MemoEvictions > 0 {
		reg.Counter("core.memo.hits").Add(int64(st.MemoHits))
		reg.Counter("core.memo.misses").Add(int64(st.MemoMisses))
		reg.Counter("core.memo.fallbacks").Add(int64(st.MemoFallbacks))
		reg.Counter("core.memo.evictions").Add(int64(st.MemoEvictions))
	}
	if err != nil {
		return nil, nil, err
	}
	out := ws.clone()
	for _, h := range sortedNames(moved) { // in name order: the map is built the same way each time
		out.derived = out.derived.Set(h, ctx.Relation(h))
		dirty[h] = true
	}
	return out, moved, nil
}

// sortedNames returns the keys of m in ascending order.
func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	slices.Sort(names)
	return names
}

// Query runs a query transaction: src is a program with a designated
// answer predicate "_" (plus any auxiliary rules). It returns the answer
// tuples: what "_" would hold after installing src as a block, whose
// rules may derive installed predicates too. Like that addblock, it fails
// with ErrConstraint when its rules break a constraint or functional
// dependency, installed or its own; a violation an unchecked Load left
// behind is not its to report. The workspace is unchanged (queries are
// read-only and run on the branch's snapshot, paper §3.1).
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
		if cur.streamed {
			t = t.Clone() // a streamed row lives in the cursor's buffer
		}
		out = append(out, t)
	}
	if err := cur.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// Load seeds a base predicate in bulk: an exec of +name facts that skips
// the integrity check — constraints and functional dependencies alike —,
// so predicates tied together by referential constraints can be loaded
// one after the other in any order. A violation left behind by Load is
// reported by the next checked write (Exec, Insert, AddBlock, …) on the
// workspace, which checks every constraint and dependency in full. A
// query is read-only: it reports only what its own rules break.
func (ws *Workspace) Load(name string, tuples []tuple.Tuple) (*Workspace, error) {
	res, err := ws.applyDirect(name, tuples, nil, false)
	if err != nil {
		return nil, err
	}
	return res.Workspace, nil
}
