// Package engine is the "engine proper" of the system (paper Figure 6):
// it evaluates a compiled LogiQL program bottom-up over a context of named
// relations, materializing derived predicates with leapfrog triejoin,
// semi-naive fixpoints for recursive strata, aggregation and predict P2P
// rules, and integrity-constraint checking.
package engine

import (
	"context"
	"fmt"
	"strings"

	"logicblox/internal/compiler"
	"logicblox/internal/lftj"
	"logicblox/internal/ml"
	"logicblox/internal/obs"
	"logicblox/internal/optimizer"
	"logicblox/internal/relation"
	"logicblox/internal/tuple"
)

// Options configure an evaluation context.
type Options struct {
	// Models stores trained models for predict rules. Required if the
	// program contains predict rules.
	Models *ml.Registry
	// Plans is the one join-order switch. Non-nil: each rule's variable
	// order is chosen by the sampling optimizer (paper §3.2) through this
	// cross-transaction plan cache — reused by rule fingerprint, re-sampled
	// only when observed evaluation cost or input cardinalities drift, and
	// fed the seek/next counts of every complete rule evaluation. Nil:
	// every rule runs in the compiler's order.
	Plans *optimizer.PlanStore
	// Obs, if non-nil, receives per-rule profiles (eval time, tuples
	// produced, LFTJ seek/next counts), per-stratum spans, and fixpoint
	// counters. When nil, the process-wide obs.Default() registry is used
	// if one is installed; otherwise instrumentation is off and costs one
	// pointer test per rule evaluation.
	Obs *obs.Registry
	// Ctx, if non-nil, bounds the evaluation: cancellation and deadline
	// expiry are honored inside every rule-body join — the Bindings
	// cursor polls it once per join binding, whoever drains it (rule,
	// constraint, delta rule, streamed answer) — and at the top of every
	// semi-naive fixpoint round, so a server request deadline stops a
	// cross-product or a runaway recursive rule instead of letting the
	// transaction spin (the evaluation returns ctx.Err()).
	Ctx context.Context
}

// Context is an evaluation context: a compiled program plus the current
// contents of every named relation (base, derived, delta, @start).
type Context struct {
	Prog      *compiler.Program
	rels      map[string]relation.Relation
	perms     map[string]relation.Relation // secondary-index cache
	models    *ml.Registry
	sens      *lftj.SensitivityIndex
	planStore *optimizer.PlanStore         // nil = the compiler's join orders
	obs       *obs.Registry                // nil = instrumentation off
	ctx       context.Context              // nil = unbounded evaluation
	done      <-chan struct{}              // ctx.Done(), nil when unbounded
	span      *obs.Span                    // parent for stratum spans (may be nil)
	plans     map[int]*compiler.RulePlan   // optimizer decisions, by rule ID
	ruleStats map[int]*obs.RuleStats       // cached per-rule profile handles
	capture   map[string]relation.Relation // per-head union of rule outputs (nil = off)
}

// NewContext builds a context over base relation contents (keyed by
// decorated name; usually plain base-predicate names).
func NewContext(prog *compiler.Program, base map[string]relation.Relation, opts Options) *Context {
	reg := opts.Obs
	if reg == nil {
		reg = obs.Default()
	}
	c := &Context{
		Prog:      prog,
		rels:      make(map[string]relation.Relation, len(base)+8),
		perms:     map[string]relation.Relation{},
		models:    opts.Models,
		planStore: opts.Plans,
		obs:       reg,
		ctx:       opts.Ctx,
		plans:     map[int]*compiler.RulePlan{},
		ruleStats: map[int]*obs.RuleStats{},
	}
	if opts.Ctx != nil {
		c.done = opts.Ctx.Done()
	}
	for name, r := range base {
		c.rels[name] = r
	}
	return c
}

// Relation returns the current content of name, or an empty relation of
// the predicate's arity.
func (c *Context) Relation(name string) relation.Relation {
	if r, ok := c.rels[name]; ok {
		return r
	}
	return relation.New(c.arityOf(name))
}

// Set replaces the content of name.
func (c *Context) Set(name string, r relation.Relation) { c.rels[name] = r }

// Has reports whether name has explicit content.
func (c *Context) Has(name string) bool {
	_, ok := c.rels[name]
	return ok
}

// Relations returns a copy of the name → relation map.
func (c *Context) Relations() map[string]relation.Relation {
	out := make(map[string]relation.Relation, len(c.rels))
	for k, v := range c.rels {
		out[k] = v
	}
	return out
}

// Err reports the evaluation context's cancellation state; nil when no
// context bounds the evaluation. Every unbounded loop over this context —
// the engine's own and a maintainer's fixpoints — polls it at the
// iteration boundary, and the Bindings cursor once per join binding, so it
// reads the context's Done channel (a lock-free test while the channel is
// open; nil, hence never ready, when unbounded) and asks for Err — a
// mutex acquisition on the standard contexts — only once that channel is
// closed.
func (c *Context) Err() error {
	select {
	case <-c.done:
		return c.ctx.Err()
	default:
		return nil
	}
}

func (c *Context) arityOf(name string) int {
	base := compiler.BaseName(name)
	if p, ok := c.Prog.Preds[base]; ok {
		return p.Arity
	}
	return 1
}

// EvalAll evaluates every static stratum in order, materializing all
// derived predicates.
func (c *Context) EvalAll() error {
	if c.obs != nil && c.span == nil {
		sp := c.obs.StartSpan("engine.eval")
		sp.SetAttr("strata", int64(len(c.Prog.Strata)))
		c.span = sp
		defer func() {
			c.span = nil
			sp.End()
		}()
	}
	for _, stratum := range c.Prog.Strata {
		if err := c.EvalStratum(stratum); err != nil {
			return err
		}
	}
	return c.checkFunctional()
}

// EvalStratum evaluates one stratum: a full first pass over every rule,
// then, for a recursive stratum, the semi-naive fixpoint seeded with what
// the first pass derived.
func (c *Context) EvalStratum(rules []*compiler.RulePlan) error {
	sp := c.StratumSpan(rules)
	defer sp.End()
	return c.evalStratum(sp, rules)
}

// StratumSpan opens the "stratum" span one stratum's evaluation or
// maintenance runs under, as a child of the context's span (nil when
// untraced). The stratum operators below take it as their parent, so a
// maintainer can record on it what it did; the caller ends it.
func (c *Context) StratumSpan(rules []*compiler.RulePlan) *obs.Span {
	sp := c.span.Child("stratum")
	sp.SetAttr("rules", int64(len(rules)))
	if compiler.StratumRecursive(rules) {
		sp.SetAttr("recursive", 1)
	}
	return sp
}

// evalStratum is EvalStratum under the stratum span sp.
func (c *Context) evalStratum(sp *obs.Span, rules []*compiler.RulePlan) error {
	// First pass: full evaluation of every rule against the state before
	// the stratum (the rules are independent: all read lower strata).
	results := make([]relation.Relation, len(rules))
	for i, r := range rules {
		out, err := c.evalRuleUnder(sp, r, nil)
		if err != nil {
			return err
		}
		results[i] = out
	}
	deltas := map[string]relation.Relation{}
	for i, r := range rules {
		c.absorb(r.HeadName, results[i], deltas)
	}
	if !compiler.StratumRecursive(rules) {
		return nil
	}
	_, err := c.propagate(sp, nil, rules, deltas)
	return err
}

// ReevalStratum empties the stratum's head predicates and evaluates it
// from scratch under the stratum span sp.
func (c *Context) ReevalStratum(sp *obs.Span, rules []*compiler.RulePlan) error {
	for _, r := range rules {
		c.Set(r.HeadName, relation.New(c.Relation(r.HeadName).Arity()))
	}
	return c.evalStratum(sp, rules)
}

// PropagateStratum brings an already evaluated stratum up to date with
// insertions into the predicates it reads: seeds maps a body predicate
// (whose relation already contains them) to its new tuples, and the
// semi-naive rounds of EvalStratum derive what follows, under the stratum
// span sp. Valid only for monotone changes — no deletion, and no change to
// a predicate the stratum negates. It returns the number of delta-rule
// evaluations run.
func (c *Context) PropagateStratum(sp *obs.Span, rules []*compiler.RulePlan, seeds map[string]relation.Relation) (int, error) {
	sp.SetAttr("seeded", int64(len(seeds)))
	return c.propagate(sp, sp, rules, seeds)
}

// propagate runs semi-naive rounds until no head gains a tuple: each round
// evaluates every rule once per occurrence of a predicate that changed in
// the previous round, with that occurrence restricted to the delta, under
// the stratum span sp. The first round's rule runs are traced as rule
// spans under first (nil: untraced), the rounds after it are not.
func (c *Context) propagate(sp, first *obs.Span, rules []*compiler.RulePlan, deltas map[string]relation.Relation) (int, error) {
	evals, rounds := 0, int64(0)
	defer func() {
		if rounds > 0 {
			sp.SetAttr("fixpoint_rounds", rounds)
			c.obs.Counter("engine.fixpoint.rounds").Add(rounds)
		}
	}()
	for len(deltas) > 0 {
		if err := c.Err(); err != nil {
			return evals, err
		}
		rounds++
		parent := first
		first = nil
		next := map[string]relation.Relation{}
		for _, r := range rules {
			for ai, atom := range r.Atoms {
				d, changed := deltas[atom.Name]
				if !changed {
					continue
				}
				evals++
				derived, err := c.evalRuleUnder(parent, r, map[int]relation.Relation{ai: d})
				if err != nil {
					return evals, err
				}
				c.absorb(r.HeadName, derived, next)
			}
		}
		deltas = next
	}
	return evals, nil
}

// absorb unions one rule evaluation's output into its head predicate and
// adds the tuples that were new to the head to deltas.
func (c *Context) absorb(head string, derived relation.Relation, deltas map[string]relation.Relation) {
	c.captureDerived(head, derived)
	cur := c.Relation(head)
	fresh := derived.Difference(cur)
	if fresh.IsEmpty() {
		return
	}
	c.Set(head, cur.Union(fresh))
	if d, ok := deltas[head]; ok {
		fresh = d.Union(fresh)
	}
	deltas[head] = fresh
}

// evalRuleUnder is evalRule traced as a "rule:<head>" child span of
// parent (nil = untraced).
func (c *Context) evalRuleUnder(parent *obs.Span, r *compiler.RulePlan, overrides map[int]relation.Relation) (relation.Relation, error) {
	var sp *obs.Span
	if parent != nil {
		sp = parent.Child("rule:" + r.HeadName)
	}
	out, err := c.evalRule(r, overrides)
	if err == nil {
		sp.SetAttr("tuples", int64(out.Len()))
	}
	sp.End()
	return out, err
}

// evalRule evaluates one rule body and returns the derived head tuples.
// overrides, when non-nil, substitutes the relation scanned by specific
// atom indices (used for semi-naive deltas and for IVM delta rules).
func (c *Context) evalRule(r *compiler.RulePlan, overrides map[int]relation.Relation) (relation.Relation, error) {
	// The optimizer rewrites the whole plan (join order, atom indices,
	// and every slot-referencing expression together), so the swap must
	// happen before the cursor and the accumulators are built.
	if c.planStore != nil && overrides == nil && r.NumJoinVars > 1 {
		r = c.optimizedPlan(r)
	}
	b, err := c.Bindings(r, overrides)
	if err != nil {
		return relation.New(r.HeadArity), err
	}
	defer b.Close() // after the accumulators finish: their time is the rule's
	out := relation.New(r.HeadArity)
	switch {
	case r.Agg != nil:
		agg := newAggAccum(r.Agg)
		for key, ok := b.NextHead(); ok; key, ok = b.NextHead() {
			agg.add(key, b.full)
		}
		if b.Err() == nil {
			out, err = agg.finish(r.HeadArity)
		}
	case r.Predict != nil:
		pred := newPredictAccum(r.Predict)
		for key, ok := b.NextHead(); ok; key, ok = b.NextHead() {
			if err = pred.add(key, b.full); err != nil {
				break
			}
		}
		if b.Err() == nil && err == nil {
			out, err = pred.finish(r.HeadArity, c.models)
		}
	default:
		for head, ok := b.NextHead(); ok; head, ok = b.NextHead() {
			out = out.Insert(head)
		}
	}
	if b.Err() != nil {
		return out, b.Err()
	}
	if err != nil {
		return out, fmt.Errorf("in rule %q: %w", r.Source, err)
	}
	return out, nil
}

// checkGroundAtom evaluates a ground (negated) atom's pattern and probes
// the relation, recording the probe in the sensitivity index.
func (c *Context) checkGroundAtom(na compiler.GroundAtom, binding tuple.Tuple, resolver compiler.Resolver) (bool, error) {
	pattern := make([]tuple.Value, len(na.Args))
	wild := make([]bool, len(na.Args))
	for i, e := range na.Args {
		if e == nil {
			wild[i] = true
			continue
		}
		v, err := e.Eval(binding, resolver)
		if err != nil {
			return false, err
		}
		pattern[i] = v
	}
	if c.sens != nil {
		recordPattern(c.sens, na.Name, pattern, wild)
	}
	return c.Relation(na.Name).MatchExists(pattern, wild), nil
}

// recordPattern adds the sensitivity region of a membership probe: the
// ground prefix is fixed, everything below the first wildcard matters.
func recordPattern(s *lftj.SensitivityIndex, name string, pattern []tuple.Value, wild []bool) {
	ground := 0
	for ground < len(pattern) && !wild[ground] {
		ground++
	}
	if ground == len(pattern) {
		s.AddPoint(name, pattern)
		return
	}
	s.Add(name, tuple.Tuple(pattern[:ground]), tuple.MinValue(), tuple.MaxValue())
}

// permuted returns rel with columns permuted, cached per content version;
// every index it builds on a miss counts in engine.index.permutes.
func (c *Context) permuted(name string, rel relation.Relation, perm []int) relation.Relation {
	var sb strings.Builder
	sb.WriteString(name)
	for _, p := range perm {
		fmt.Fprintf(&sb, "/%d", p)
	}
	fmt.Fprintf(&sb, "#%x", rel.StructuralHash())
	key := sb.String()
	if r, ok := c.perms[key]; ok {
		return r
	}
	c.obs.Counter("engine.index.permutes").Inc()
	r := rel.Permuted(perm)
	c.perms[key] = r
	return r
}

// checkFunctional verifies functional dependencies of derived functional
// predicates: at most one value per key.
func (c *Context) checkFunctional() error {
	for _, name := range c.Prog.IDBPreds {
		base := compiler.BaseName(name)
		p, ok := c.Prog.Preds[base]
		if !ok || !p.Functional || p.Arity < 2 {
			continue
		}
		if a, b, ok := c.Relation(name).KeyConflict(); ok {
			return fmt.Errorf("functional dependency violation in %s: key %s has values %s and %s",
				name, a[:p.Arity-1], a[p.Arity-1], b[p.Arity-1])
		}
	}
	return nil
}

// ctxResolver adapts a Context to the compiler.Resolver interface for
// constraint-head expressions.
type ctxResolver struct{ c *Context }

// FuncValue implements compiler.Resolver.
func (r ctxResolver) FuncValue(name string, key tuple.Tuple) (tuple.Value, bool) {
	rel := r.c.Relation(name)
	if rel.Arity() != len(key)+1 {
		return tuple.Value{}, false
	}
	if r.c.sens != nil {
		r.c.sens.Add(name, key, tuple.MinValue(), tuple.MaxValue())
	}
	return rel.FuncGet(key)
}

// Exists implements compiler.Resolver.
func (r ctxResolver) Exists(name string, pattern []tuple.Value, wild []bool) bool {
	if r.c.sens != nil {
		recordPattern(r.c.sens, name, pattern, wild)
	}
	return r.c.Relation(name).MatchExists(pattern, wild)
}

// optimizedPlan returns (and caches per context) the plan store's variant
// of a rule plan: the cross-transaction cached order when it is still
// trusted, a freshly sampled one on a miss or after drift. Only called with
// a plan store attached.
func (c *Context) optimizedPlan(r *compiler.RulePlan) *compiler.RulePlan {
	if p, ok := c.plans[r.ID]; ok {
		return p
	}
	plan := r
	if res, hit, err := c.planStore.Choose(r, c.Relation); err == nil && res.Plan != nil {
		plan = res.Plan
		if hit {
			c.obs.Counter("optimizer.plan.hits").Inc()
		} else {
			c.obs.Counter("optimizer.plan.misses").Inc()
			c.obs.Counter("optimizer.choose_order.calls").Inc()
		}
		c.ruleStatsFor(r).SetPlan(orderString(res.Order), hit)
	}
	c.plans[r.ID] = plan
	return plan
}

// orderString renders a variable order as "0,2,1" for rule profiles.
func orderString(order []int) string {
	var sb strings.Builder
	for i, o := range order {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%d", o)
	}
	return sb.String()
}
