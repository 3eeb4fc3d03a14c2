// Package engine_test holds the differential test harness: pseudo-random
// Datalog programs (plain rules, negation, recursion, and
// agg<<sum|count|min|max>> views) are evaluated both by a deliberately
// naive nested-loop reference evaluator and by the real LFTJ engine — under
// the default plan, under every candidate variable order, and with the
// adaptive plan cache cold and warm — and the outputs must agree exactly.
// The same generated programs drive IVM equivalence checks: random delta
// batches maintained incrementally must match full re-evaluation in every
// mode.
//
// It lives in an external package so it can import ivm (which itself
// imports engine) without a cycle.
package engine_test

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"logicblox/internal/compiler"
	"logicblox/internal/engine"
	"logicblox/internal/ivm"
	"logicblox/internal/obs"
	"logicblox/internal/optimizer"
	"logicblox/internal/parser"
	"logicblox/internal/relation"
	"logicblox/internal/tuple"
)

// ---- generated-program model -------------------------------------------

type genAtom struct {
	pred string
	vars []string
}

// genCmp is a comparison literal: l op r (var vs var) or l op c (var vs
// constant).
type genCmp struct {
	l, op, r string // r == "" → compare against the constant c
	c        int64
}

// genAssign binds a fresh variable to an arithmetic expression over
// bound variables/constants: v = l op r (or v = l op c).
type genAssign struct {
	v, l, op, r string // r == "" → constant operand c
	c           int64
}

// genAgg makes a rule an aggregation: head.vars is the group key and the
// head predicate carries one more column, fn over arg per group.
type genAgg struct {
	fn  string // sum, count, min, max
	arg string // the aggregated variable; "" for count
}

type genRule struct {
	head    genAtom
	body    []genAtom
	negs    []genAtom // negated atoms; all vars bound by positive atoms
	cmps    []genCmp
	assigns []genAssign
	agg     *genAgg // nil = plain projection onto head.vars
}

type genProgram struct {
	seed    int64
	rules   []genRule
	arities map[string]int // every predicate, base and derived
	base    map[string]relation.Relation
	derived []string // derived predicate names, definition order
}

func (p *genProgram) source() string {
	var b strings.Builder
	for _, r := range p.rules {
		b.WriteString(r.source())
	}
	return b.String()
}

// source renders one rule as a LogiQL clause on a line of its own.
func (r genRule) source() string {
	var b strings.Builder
	if r.agg != nil {
		fmt.Fprintf(&b, "%s[%s] = u <- agg<<u = %s(%s)>> ", r.head.pred, strings.Join(r.head.vars, ", "), r.agg.fn, r.agg.arg)
	} else {
		fmt.Fprintf(&b, "%s(%s) <- ", r.head.pred, strings.Join(r.head.vars, ", "))
	}
	var parts []string
	for _, a := range r.body {
		parts = append(parts, fmt.Sprintf("%s(%s)", a.pred, strings.Join(a.vars, ", ")))
	}
	for _, a := range r.assigns {
		rhs := a.r
		if rhs == "" {
			rhs = fmt.Sprintf("%d", a.c)
		}
		parts = append(parts, fmt.Sprintf("%s = %s %s %s", a.v, a.l, a.op, rhs))
	}
	for _, c := range r.cmps {
		rhs := c.r
		if rhs == "" {
			rhs = fmt.Sprintf("%d", c.c)
		}
		parts = append(parts, fmt.Sprintf("%s %s %s", c.l, c.op, rhs))
	}
	for _, n := range r.negs {
		parts = append(parts, fmt.Sprintf("!%s(%s)", n.pred, strings.Join(n.vars, ", ")))
	}
	b.WriteString(strings.Join(parts, ", "))
	b.WriteString(".\n")
	return b.String()
}

const genDomain = 7 // value domain [0, genDomain)

var (
	genVarPool    = []string{"a", "b", "c", "d", "e"}
	genAssignPool = []string{"x", "y", "z"} // assigned-variable names, disjoint from genVarPool
	genCmpOps     = []string{"<", "<=", ">", ">=", "!="}
	genArithOps   = []string{"+", "-", "*"}
)

// generate builds a random stratified Datalog program: 2-3 base
// predicates with random small relations, 1-3 derived predicates each
// defined by 1-2 rules over earlier predicates, possibly recursive.
// Beyond conjunctive atoms, rule bodies may carry comparison literals
// (var vs var or var vs constant), arithmetic assignments binding fresh
// head-usable variables (non-recursive rules only, so fixpoints stay
// finite), and negated atoms over base or strictly earlier derived
// predicates with every variable positively bound (safety and
// stratification). Atom variables are drawn from a shared pool so bodies
// join; head variables are a subset of body and assigned variables.
func generate(seed int64) *genProgram {
	rng := rand.New(rand.NewSource(seed))
	p := &genProgram{
		seed:    seed,
		arities: map[string]int{},
		base:    map[string]relation.Relation{},
	}

	nBase := 2 + rng.Intn(2)
	for i := 0; i < nBase; i++ {
		name := fmt.Sprintf("p%d", i)
		arity := 1 + rng.Intn(2)
		p.arities[name] = arity
		rel := relation.New(arity)
		for j := 0; j < 12+rng.Intn(18); j++ {
			t := make(tuple.Tuple, arity)
			for k := range t {
				t[k] = tuple.Int(int64(rng.Intn(genDomain)))
			}
			rel = rel.Insert(t)
		}
		p.base[name] = rel
	}

	for i, n := 0, 1+rng.Intn(3); i < n; i++ {
		p.addDerived(rng, fmt.Sprintf("d%d", i))
	}
	return p
}

// baseNames lists the base predicates in name order.
func (p *genProgram) baseNames() []string {
	names := make([]string, 0, len(p.base))
	for name := range p.base {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// addDerived appends a derived predicate of random arity defined by 1-2
// rules over the base predicates and the derived predicates before it.
func (p *genProgram) addDerived(rng *rand.Rand, name string) {
	arity := 1 + rng.Intn(2)
	p.arities[name] = arity
	earlier := p.derived
	p.derived = append(p.derived, name)

	nRules := 1 + rng.Intn(2)
	for ri := 0; ri < nRules; ri++ {
		// Non-first rules may recurse on the head predicate.
		rule, headPool := p.genBody(rng, name, earlier, ri > 0 && rng.Intn(3) == 0)

		// Head: a random nonempty subset of body variables of the
		// declared arity (repeat if the body is variable-poor);
		// assigned variables are candidates too.
		rule.head.vars = make([]string, arity)
		for k := range rule.head.vars {
			rule.head.vars[k] = headPool[rng.Intn(len(headPool))]
		}
		// Bias toward actually exercising the assignment: route the
		// assigned value into the head half the time.
		if len(rule.assigns) > 0 && rng.Intn(2) == 0 {
			rule.head.vars[rng.Intn(arity)] = rule.assigns[0].v
		}
		p.rules = append(p.rules, rule)
	}
}

// genBody draws one rule body for head predicate name: 2-3 atoms over the
// base predicates, the earlier derived ones and — when recurse — name
// itself, then possibly an assignment, a comparison and a negated atom. It
// returns the rule (head variables still to choose) and the variables a
// head may use: the body's in first-occurrence order, then the assigned.
func (p *genProgram) genBody(rng *rand.Rand, name string, earlier []string, recurse bool) (genRule, []string) {
	lower := append(p.baseNames(), earlier...) // what a negated atom may read
	pool := lower
	if recurse {
		pool = append(pool, name)
	}
	nAtoms := 2 + rng.Intn(2)
	rule := genRule{head: genAtom{pred: name}}
	seen := map[string]bool{}
	recursive := false
	var bodyVars []string
	for ai := 0; ai < nAtoms; ai++ {
		pred := pool[rng.Intn(len(pool))]
		if pred == name {
			recursive = true
		}
		vars := pickVars(rng, p.arities[pred], bodyVars)
		for _, v := range vars {
			if !seen[v] {
				seen[v] = true
				bodyVars = append(bodyVars, v)
			}
		}
		rule.body = append(rule.body, genAtom{pred: pred, vars: vars})
	}

	// Arithmetic assignment (non-recursive rules only: a fresh
	// value flowing into a recursive head would diverge).
	if !recursive && rng.Intn(3) == 0 {
		a := genAssign{
			v:  genAssignPool[rng.Intn(len(genAssignPool))],
			l:  bodyVars[rng.Intn(len(bodyVars))],
			op: genArithOps[rng.Intn(len(genArithOps))],
		}
		if rng.Intn(2) == 0 && len(bodyVars) > 1 {
			a.r = bodyVars[rng.Intn(len(bodyVars))]
		} else {
			a.c = int64(rng.Intn(genDomain))
		}
		rule.assigns = append(rule.assigns, a)
	}

	// Comparison literal over bound variables/constants.
	if rng.Intn(3) == 0 {
		c := genCmp{
			l:  bodyVars[rng.Intn(len(bodyVars))],
			op: genCmpOps[rng.Intn(len(genCmpOps))],
		}
		if rng.Intn(2) == 0 && len(bodyVars) > 1 {
			c.r = bodyVars[rng.Intn(len(bodyVars))]
		} else {
			c.c = int64(rng.Intn(genDomain))
		}
		rule.cmps = append(rule.cmps, c)
	}

	// Negated atom over a base or strictly earlier derived
	// predicate, every variable positively bound.
	if rng.Intn(3) == 0 {
		pred := lower[rng.Intn(len(lower))]
		vars := make([]string, p.arities[pred])
		for k := range vars {
			vars[k] = bodyVars[rng.Intn(len(bodyVars))]
		}
		rule.negs = append(rule.negs, genAtom{pred: pred, vars: vars})
	}

	headPool := bodyVars
	for _, a := range rule.assigns {
		headPool = append(headPool, a.v)
	}
	return rule, headPool
}

var genAggFns = []string{"sum", "count", "min", "max"}

// aggPrograms is how many extra programs the differential tests extend
// with withAggregates.
const aggPrograms = 30

// withAggregates appends to p one or two aggregate views
// `gN[key] = u <- agg<<u = fn(arg)>> body` — the body drawn like any other
// generated rule's, the group key a prefix (possibly empty) of the body's
// variables — and one plain view over everything before it, so a base
// delta also has to travel through an aggregate into a later stratum.
func withAggregates(p *genProgram) *genProgram {
	rng := rand.New(rand.NewSource(p.seed ^ 0xa99))
	for i, n := 0, 1+rng.Intn(2); i < n; i++ {
		name := fmt.Sprintf("g%d", i)
		rule, vars := p.genBody(rng, name, p.derived, false)
		// Keep at least one variable out of the key and aggregate over a
		// non-key variable, so groups have more than one row to fold.
		nKey := rng.Intn(min(len(vars)-len(rule.assigns), 3))
		rule.head.vars = vars[:nKey]
		rule.agg = &genAgg{fn: genAggFns[rng.Intn(len(genAggFns))]}
		if rule.agg.fn != "count" {
			rule.agg.arg = vars[nKey+rng.Intn(len(vars)-nKey)]
		}
		p.arities[name] = len(rule.head.vars) + 1
		p.derived = append(p.derived, name)
		p.rules = append(p.rules, rule)
	}
	p.addDerived(rng, "h")
	return p
}

// pickVars draws n distinct variables for one atom, biased toward
// variables already used in the rule body so atoms actually join.
func pickVars(rng *rand.Rand, n int, used []string) []string {
	out := make([]string, 0, n)
	taken := map[string]bool{}
	for len(out) < n {
		var v string
		if len(used) > 0 && rng.Intn(3) != 0 {
			v = used[rng.Intn(len(used))]
		} else {
			v = genVarPool[rng.Intn(len(genVarPool))]
		}
		if taken[v] {
			v = genVarPool[rng.Intn(len(genVarPool))]
		}
		if !taken[v] {
			taken[v] = true
			out = append(out, v)
		}
	}
	return out
}

// ---- naive nested-loop reference evaluator ------------------------------

// refEval computes the program's stratified model by naive iteration:
// derived predicates evaluate in definition order (their bodies only
// reference base, strictly earlier derived predicates, and — for
// recursive rules — themselves, so definition order is a stratification
// and negated atoms always see completed predicates), each iterated to
// fixpoint with nested-loop joins. It shares no code with the engine
// under test.
func refEval(p *genProgram, base map[string]relation.Relation) map[string]relation.Relation {
	rels := map[string][]tuple.Tuple{}
	keys := map[string]map[string]bool{}
	add := func(name string, t tuple.Tuple) bool {
		k := fmt.Sprintf("%v", t)
		if keys[name] == nil {
			keys[name] = map[string]bool{}
		}
		if keys[name][k] {
			return false
		}
		keys[name][k] = true
		rels[name] = append(rels[name], t)
		return true
	}
	for name, rel := range base {
		rel.ForEach(func(t tuple.Tuple) bool { add(name, t.Clone()); return true })
	}
	for _, d := range p.derived {
		if _, ok := rels[d]; !ok {
			rels[d] = nil
		}
	}

	for _, d := range p.derived {
		for changed := true; changed; {
			changed = false
			for _, r := range p.rules {
				if r.head.pred != d {
					continue
				}
				for _, t := range refApplyRule(r, rels) {
					if add(r.head.pred, t) {
						changed = true
					}
				}
			}
		}
	}

	out := map[string]relation.Relation{}
	for _, d := range p.derived {
		rel := relation.New(p.arities[d])
		for _, t := range rels[d] {
			rel = rel.Insert(t)
		}
		out[d] = rel
	}
	return out
}

// refApplyRule computes one application of a rule via nested loops over
// the body atoms, binding variables left to right; once all positive
// atoms are bound it evaluates assignments, then filters the binding
// through comparisons and negated atoms before emitting the head. An
// aggregation rule emits (group key, aggregated value) once per binding —
// a bag — and folds it per group at the end.
func refApplyRule(r genRule, rels map[string][]tuple.Tuple) []tuple.Tuple {
	var out []tuple.Tuple
	env := map[string]tuple.Value{}
	var walk func(i int)
	walk = func(i int) {
		if i == len(r.body) {
			var assigned []string
			for _, a := range r.assigns {
				l := env[a.l].AsInt()
				rv := a.c
				if a.r != "" {
					rv = env[a.r].AsInt()
				}
				var v int64
				switch a.op {
				case "+":
					v = l + rv
				case "-":
					v = l - rv
				case "*":
					v = l * rv
				}
				env[a.v] = tuple.Int(v)
				assigned = append(assigned, a.v)
			}
			ok := true
			for _, c := range r.cmps {
				l := env[c.l].AsInt()
				rv := c.c
				if c.r != "" {
					rv = env[c.r].AsInt()
				}
				if !refCompare(c.op, l, rv) {
					ok = false
					break
				}
			}
			if ok {
				for _, n := range r.negs {
					if refMatches(n, env, rels) {
						ok = false
						break
					}
				}
			}
			if ok {
				t := make(tuple.Tuple, len(r.head.vars), len(r.head.vars)+1)
				for k, v := range r.head.vars {
					t[k] = env[v]
				}
				if r.agg != nil && r.agg.arg != "" {
					t = append(t, env[r.agg.arg])
				}
				out = append(out, t)
			}
			for _, v := range assigned {
				delete(env, v)
			}
			return
		}
		a := r.body[i]
		for _, fact := range rels[a.pred] {
			ok := true
			var bound []string
			for k, v := range a.vars {
				if cur, has := env[v]; has {
					if !tuple.Equal(cur, fact[k]) {
						ok = false
						break
					}
				} else {
					env[v] = fact[k]
					bound = append(bound, v)
				}
			}
			if ok {
				walk(i + 1)
			}
			for _, v := range bound {
				delete(env, v)
			}
		}
	}
	walk(0)
	if r.agg != nil {
		return refAggregate(r.agg.fn, len(r.head.vars), out)
	}
	return out
}

// refAggregate folds a bag of (key..., value) rows — (key...) alone for
// count — into one (key..., fn over the group's values) row per key.
func refAggregate(fn string, keyLen int, rows []tuple.Tuple) []tuple.Tuple {
	acc := map[string]int64{}
	keys := map[string]tuple.Tuple{}
	for _, row := range rows {
		k := fmt.Sprintf("%v", row[:keyLen])
		cur, seen := acc[k]
		keys[k] = row[:keyLen]
		switch {
		case fn == "count":
			acc[k] = cur + 1
		case fn == "sum":
			acc[k] = cur + row[keyLen].AsInt()
		case !seen, fn == "min" && row[keyLen].AsInt() < cur, fn == "max" && row[keyLen].AsInt() > cur:
			acc[k] = row[keyLen].AsInt()
		}
	}
	var out []tuple.Tuple
	for k, key := range keys {
		out = append(out, append(key[:keyLen:keyLen], tuple.Int(acc[k])))
	}
	return out
}

// refCompare evaluates one comparison operator over ints.
func refCompare(op string, l, r int64) bool {
	switch op {
	case "<":
		return l < r
	case "<=":
		return l <= r
	case ">":
		return l > r
	case ">=":
		return l >= r
	case "!=":
		return l != r
	default:
		panic("unknown comparison op " + op)
	}
}

// refMatches reports whether a fully bound atom pattern matches any fact.
func refMatches(a genAtom, env map[string]tuple.Value, rels map[string][]tuple.Tuple) bool {
	for _, fact := range rels[a.pred] {
		ok := true
		for k, v := range a.vars {
			if !tuple.Equal(env[v], fact[k]) {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// ---- the differential harness -------------------------------------------

const diffPrograms = 50

// suitePrograms is the size of the differential suite; see suiteProgram.
const suitePrograms = diffPrograms + recNegPrograms + aggPrograms

// suiteProgram returns program i of the differential suite: generate's
// own draw for the first diffPrograms, then recNegPrograms extended with
// recursion under negation, then aggPrograms extended with aggregate views.
func suiteProgram(i int64) *genProgram {
	p := generate(i)
	switch {
	case i >= diffPrograms+recNegPrograms:
		p = withAggregates(p)
	case i >= diffPrograms:
		p = withRecursiveNegation(p)
	}
	return p
}

func compileGen(t *testing.T, p *genProgram) *compiler.Program {
	t.Helper()
	parsed, err := parser.Parse(p.source())
	if err != nil {
		t.Fatalf("seed %d: parse: %v\n%s", p.seed, err, p.source())
	}
	prog, err := compiler.Compile(parsed)
	if err != nil {
		t.Fatalf("seed %d: compile: %v\n%s", p.seed, err, p.source())
	}
	// The invariant the maintenance layer relies on (see Program.Strata).
	for _, stratum := range prog.Strata {
		for _, r := range stratum {
			if r.HeadName != stratum[0].HeadName && !compiler.StratumRecursive(stratum) {
				t.Fatalf("seed %d: non-recursive stratum derives both %s and %s\n%s", p.seed, stratum[0].HeadName, r.HeadName, p.source())
			}
		}
	}
	return prog
}

func checkDerived(t *testing.T, p *genProgram, ctx *engine.Context, want map[string]relation.Relation, label string) {
	t.Helper()
	for _, d := range p.derived {
		got := ctx.Relation(d)
		if !got.Equal(want[d]) {
			t.Fatalf("seed %d (%s): %s mismatch: engine %d tuples, reference %d\n%s\nengine: %v\nreference: %v",
				p.seed, label, d, got.Len(), want[d].Len(), p.source(), sortedSlice(got), sortedSlice(want[d]))
		}
	}
}

func sortedSlice(r relation.Relation) []string {
	var out []string
	r.ForEach(func(t tuple.Tuple) bool { out = append(out, fmt.Sprintf("%v", t)); return true })
	sort.Strings(out)
	return out
}

// TestDifferentialLFTJ evaluates the suite's programs with the real
// engine in the compiler's join orders and requires exact agreement with
// the nested-loop reference on every derived predicate. (Every other
// candidate order, ChooseOrder's among them, is TestDifferentialAllOrders'.)
func TestDifferentialLFTJ(t *testing.T) {
	for seed := int64(0); seed < suitePrograms; seed++ {
		p := suiteProgram(seed)
		prog := compileGen(t, p)
		want := refEval(p, p.base)

		plain := engine.NewContext(prog, p.base, engine.Options{})
		if err := plain.EvalAll(); err != nil {
			t.Fatalf("seed %d: eval: %v\n%s", seed, err, p.source())
		}
		checkDerived(t, p, plain, want, "heuristic")
	}
}

// drainBindings evaluates plan the way every consumer of the rule-body
// operator does: drain the Bindings cursor, project each binding onto the
// head, deduplicate.
func drainBindings(ctx *engine.Context, plan *compiler.RulePlan) (relation.Relation, error) {
	out := relation.New(plan.HeadArity)
	b, err := ctx.Bindings(plan, nil)
	if err != nil {
		return out, err
	}
	defer b.Close()
	for binding, ok := b.Next(); ok; binding, ok = b.Next() {
		head := make(tuple.Tuple, len(plan.HeadExprs))
		for i, e := range plan.HeadExprs {
			if head[i], err = e.Eval(binding, nil); err != nil {
				return out, err
			}
		}
		out = out.Insert(head)
	}
	return out, b.Err()
}

// streamAnswer evaluates rule the way a streamed query answers: the
// plan compiler.StreamOrder makes, heads pulled one at a time out of
// StreamRule. When every head column is a join variable the heads must
// arrive sorted (sorted reports whether they did), which is what lets
// the transaction layer dedup adjacent rows instead of materializing.
func streamAnswer(ctx *engine.Context, rule *compiler.RulePlan) (out relation.Relation, sorted bool, err error) {
	out = relation.New(rule.HeadArity)
	mustSort := !slices.Contains(rule.HeadVars(), -1)
	cur, err := ctx.StreamRule(compiler.StreamOrder(rule))
	if err != nil {
		return out, false, err
	}
	defer cur.Close()
	var prev tuple.Tuple
	sorted = true
	for head, ok := cur.Next(); ok; head, ok = cur.Next() {
		if mustSort && prev != nil && head.Compare(prev) < 0 {
			sorted = false
		}
		prev = head
		out = out.Insert(head)
	}
	return out, sorted, cur.Err()
}

// TestDifferentialAllOrders re-evaluates every generated rule under
// every candidate variable order: one rule application over the fixpoint
// relations must produce identical results regardless of order — and
// regardless of who drives the rule-body cursor: the materializing
// EvalRule, a plain drain of Bindings, or StreamRule on the streamed
// plan (aggregation rules: EvalRule only).
func TestDifferentialAllOrders(t *testing.T) {
	for seed := int64(0); seed < suitePrograms; seed++ {
		p := suiteProgram(seed)
		prog := compileGen(t, p)
		want := refEval(p, p.base)

		// Seed a context with the full fixpoint (base + reference-derived)
		// so single-rule evaluations have their inputs materialized.
		seeded := func() *engine.Context {
			ctx := engine.NewContext(prog, p.base, engine.Options{})
			for _, d := range p.derived {
				ctx.Set(d, want[d])
			}
			return ctx
		}
		for _, rule := range prog.Rules {
			if rule.NumJoinVars <= 1 {
				continue
			}
			ref, err := seeded().EvalRule(rule, nil)
			if err != nil {
				t.Fatalf("seed %d: identity eval: %v\n%s", seed, err, p.source())
			}
			if rule.Agg == nil {
				streamed, sorted, err := streamAnswer(seeded(), rule)
				if err != nil {
					t.Fatalf("seed %d: stream %s: %v\n%s", seed, rule.HeadName, err, p.source())
				}
				if !streamed.Equal(ref) || !sorted {
					t.Fatalf("seed %d: rule %s streamed: %d tuples vs %d, sorted=%v\n%s",
						seed, rule.HeadName, streamed.Len(), ref.Len(), sorted, p.source())
				}
			}
			for _, order := range optimizer.CandidateOrders(rule.NumJoinVars, 0) {
				plan, err := compiler.ReorderRule(rule, order)
				if err != nil {
					t.Fatalf("seed %d: reorder %v: %v", seed, order, err)
				}
				got, err := seeded().EvalRule(plan, nil)
				if err != nil {
					t.Fatalf("seed %d: eval order %v: %v", seed, order, err)
				}
				if !got.Equal(ref) {
					t.Fatalf("seed %d: rule %s order %v: %d tuples vs %d\n%s",
						seed, rule.HeadName, order, got.Len(), ref.Len(), p.source())
				}
				if rule.Agg != nil {
					continue // an aggregate needs its accumulator, which only EvalRule runs
				}
				drained, err := drainBindings(seeded(), plan)
				if err != nil {
					t.Fatalf("seed %d: drain order %v: %v", seed, order, err)
				}
				if !drained.Equal(ref) {
					t.Fatalf("seed %d: rule %s order %v drained: %d tuples vs %d\n%s",
						seed, rule.HeadName, order, drained.Len(), ref.Len(), p.source())
				}
			}
		}
	}
}

// ---- IVM equivalence -----------------------------------------------------

// batchKind restricts a random batch to one direction of change. The
// maintainers special-case monotone batches (semi-naive insertion with no
// deletion to undo), and a mixed batch almost never takes those paths.
type batchKind int

const (
	mixedBatch batchKind = iota
	insertOnly
	deleteOnly
)

// randomDeltas builds one random batch of base-relation changes:
// deletions sampled from current contents, insertions drawn fresh from
// the domain.
func randomDeltas(rng *rand.Rand, p *genProgram, cur map[string]relation.Relation, kind batchKind) map[string]ivm.Delta {
	out := map[string]ivm.Delta{}
	// Iterate predicates in sorted order: ranging over the map directly
	// would consume the seeded PRNG in Go's randomized map order, making
	// the "deterministic" batches differ run to run.
	names := make([]string, 0, len(cur))
	for name := range cur {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		rel := cur[name]
		if rng.Intn(2) == 0 {
			continue
		}
		var d ivm.Delta
		existing := rel.Slice()
		for i := 0; kind != insertOnly && i < rng.Intn(3); i++ {
			if len(existing) == 0 {
				break
			}
			d.Del = append(d.Del, existing[rng.Intn(len(existing))])
		}
		arity := p.arities[name]
		for i := 0; kind != deleteOnly && i < 1+rng.Intn(3); i++ {
			t := make(tuple.Tuple, arity)
			for k := range t {
				t[k] = tuple.Int(int64(rng.Intn(genDomain)))
			}
			d.Ins = append(d.Ins, t)
		}
		if !d.Empty() {
			out[name] = d
		}
	}
	return out
}

func applyToBase(cur map[string]relation.Relation, deltas map[string]ivm.Delta) map[string]relation.Relation {
	next := map[string]relation.Relation{}
	for name, rel := range cur {
		d := deltas[name]
		for _, t := range d.Del {
			rel = rel.Delete(t)
		}
		for _, t := range d.Ins {
			rel = rel.Insert(t)
		}
		next[name] = rel
	}
	return next
}

var ivmModes = []ivm.Mode{ivm.Recompute, ivm.Counting, ivm.DRed}

// ivmBatches is the batch sequence every program goes through in every
// mode: mixed batches, then the monotone ones.
var ivmBatches = []batchKind{mixedBatch, mixedBatch, mixedBatch, insertOnly, insertOnly, deleteOnly, deleteOnly}

// recNegPrograms is how many extra programs the differential tests extend
// with withRecursiveNegation.
const recNegPrograms = 10

// withRecursiveNegation appends to p a reachability view over a fresh
// random edge predicate whose two rules negate a random predicate of a
// lower stratum, so inserting into that predicate retracts reach tuples.
// generate's own draw (recursion on a third of the later rules, negation
// on a third of those, over mostly vacuous bodies) does not produce a
// live instance of that shape among the first diffPrograms seeds.
func withRecursiveNegation(p *genProgram) *genProgram {
	rng := rand.New(rand.NewSource(p.seed))
	var lower []string
	for name := range p.arities {
		lower = append(lower, name)
	}
	sort.Strings(lower)
	neg := lower[rng.Intn(len(lower))]
	negated := func(vars ...string) []genAtom {
		return []genAtom{{pred: neg, vars: vars[:p.arities[neg]]}}
	}
	edges := relation.New(2)
	for i, n := 0, 8+rng.Intn(6); i < n; i++ {
		edges = edges.Insert(tuple.Ints(int64(rng.Intn(genDomain)), int64(rng.Intn(genDomain))))
	}
	p.arities["edge"], p.base["edge"] = 2, edges
	p.arities["reach"] = 2
	p.derived = append(p.derived, "reach")
	p.rules = append(p.rules,
		genRule{
			head: genAtom{pred: "reach", vars: []string{"a", "b"}},
			body: []genAtom{{pred: "edge", vars: []string{"a", "b"}}},
			negs: negated("b", "a"),
		},
		genRule{
			head: genAtom{pred: "reach", vars: []string{"a", "c"}},
			body: []genAtom{{pred: "reach", vars: []string{"a", "b"}}, {pred: "edge", vars: []string{"b", "c"}}},
			negs: negated("c", "b"),
		})
	return p
}

// refoldable counts the non-recursive aggregate strata a batch that moved
// the given predicates reached with known deltas and no move in a
// predicate they negate: the strata Counting and DRed must hand to
// RefoldStratum instead of re-evaluating them whole.
func refoldable(prog *compiler.Program, moved map[string]ivm.Delta) int {
	n := 0
	for _, stratum := range prog.Strata {
		agg, reads, negMoved := false, false, false
		for _, r := range stratum {
			agg = agg || r.Agg != nil
			reads = reads || r.ReadsAny(func(name string) bool { return !moved[name].Empty() })
			for _, neg := range r.NegNames {
				negMoved = negMoved || !moved[neg].Empty()
			}
		}
		if agg && reads && !negMoved && !compiler.StratumRecursive(stratum) {
			n++
		}
	}
	return n
}

// refoldSpans counts, among the stratum spans of the last maintenance pass
// traced into reg, those RefoldStratum maintained: by signed deltas
// (maintained_by=signed), re-folded (maintained_by=refold) or re-evaluated
// whole by its fallback rule (refold_fallback).
func refoldSpans(reg *obs.Registry) (signed, refolded, fallbacks int) {
	tr, _ := reg.LastTrace()
	for _, sp := range tr.Children {
		for _, l := range sp.Labels {
			if l.Key != "maintained_by" {
				continue
			}
			switch l.Val {
			case "signed":
				signed++
			case "refold":
				refolded++
			}
		}
		for _, a := range sp.Attrs {
			if a.Key == "refold_fallback" {
				fallbacks++
			}
		}
	}
	return signed, refolded, fallbacks
}

// TestDifferentialIVM maintains each generated program incrementally
// through random delta batches in every maintenance mode, and through the
// transaction path (workspace arm); after each batch the maintained views
// must equal both a full re-evaluation and the nested-loop reference over
// the updated base. Counting and DRed must also send every aggregate
// stratum a batch reaches with known deltas to RefoldStratum, which
// re-evaluates it whole only by its own fallback rule; over the suite, both
// the signed-delta update and the group re-fold must have run.
func TestDifferentialIVM(t *testing.T) {
	var signed, refolded, fallbacks int
	defer func() {
		if !t.Failed() && (signed == 0 || refolded == 0) {
			t.Errorf("aggregate strata maintained by signed deltas: %d, re-folded group by group: %d; want both > 0", signed, refolded)
		}
		t.Logf("aggregate strata maintained by signed deltas: %d, re-folded: %d, re-evaluated by the fallback rule: %d", signed, refolded, fallbacks)
	}()
	for seed := int64(0); seed < suitePrograms; seed++ {
		p := suiteProgram(seed)
		prog := compileGen(t, p)
		workspaceArm(t, p)
		for _, mode := range ivmModes {
			m, err := ivm.NewMaintainer(prog, p.base, mode)
			if err != nil {
				t.Fatalf("seed %d %v: maintainer: %v\n%s", seed, mode, err, p.source())
			}
			reg := obs.NewRegistry()
			m.SetObserver(reg)
			rng := rand.New(rand.NewSource(seed*1000 + int64(mode)))
			cur := map[string]relation.Relation{}
			for name, rel := range p.base {
				cur[name] = rel
			}
			var deltaLog []string
			for batch, kind := range ivmBatches {
				deltas := randomDeltas(rng, p, cur, kind)
				if len(deltas) == 0 {
					continue
				}
				deltaLog = append(deltaLog, fmt.Sprintf("batch %d: %+v", batch, deltas))
				moved, err := m.Apply(deltas)
				if err != nil {
					t.Fatalf("seed %d %v batch %d: apply: %v\n%s", seed, mode, batch, err, p.source())
				}
				if mode == ivm.Counting || mode == ivm.DRed {
					sg, r, f := refoldSpans(reg)
					if want := refoldable(prog, moved); sg+r+f != want {
						t.Fatalf("seed %d %v batch %d: %d aggregate strata maintained by signed deltas, %d re-folded and %d fell back, want %d handed to RefoldStratum\n%s",
							seed, mode, batch, sg, r, f, want, p.source())
					}
					signed += sg
					refolded += r
					fallbacks += f
				}
				cur = applyToBase(cur, deltas)
				want := refEval(p, cur)
				for _, d := range p.derived {
					got := m.Relation(d)
					if !got.Equal(want[d]) {
						t.Fatalf("seed %d %v batch %d: %s diverged: maintained %d tuples, reference %d\n%s\nmaintained: %v\nreference: %v\ndeltas:\n%s",
							seed, mode, batch, d, got.Len(), want[d].Len(), p.source(), sortedSlice(got), sortedSlice(want[d]), strings.Join(deltaLog, "\n"))
					}
				}
			}
		}
	}
}

// workspaceArm runs TestDifferentialIVM's batch sequence through the
// transaction path: the program installed one block per rule, each batch
// an exec. After every batch each derived predicate must equal the
// reference, and the exec's BaseDeltas must be the batch's effective
// changes. The arm draws from its own random stream (the modes use
// seed*1000+mode), so the modes' batches do not depend on it.
func workspaceArm(t *testing.T, p *genProgram) {
	t.Helper()
	all := make([]int, len(p.rules))
	for i := range all {
		all[i] = i
	}
	ws := buildLiveWorkspace(t, p, p.base, all)
	rng := rand.New(rand.NewSource(p.seed*1000 + int64(len(ivmModes))))
	cur := p.base
	var deltaLog []string
	for batch, kind := range ivmBatches {
		deltas := randomDeltas(rng, p, cur, kind)
		if len(deltas) == 0 {
			continue
		}
		src := execSource(deltas)
		deltaLog = append(deltaLog, fmt.Sprintf("batch %d: %s", batch, strings.ReplaceAll(src, "\n", " ")))
		res, err := ws.Exec(src)
		if err != nil {
			t.Fatalf("seed %d workspace batch %d: exec: %v\n%s", p.seed, batch, err, p.source())
		}
		next := applyToBase(cur, deltas)
		for name, rel := range cur {
			var want ivm.Delta
			rel.Diff(next[name],
				func(t tuple.Tuple) { want.Del = append(want.Del, t) },
				func(t tuple.Tuple) { want.Ins = append(want.Ins, t) })
			got, reported := res.BaseDeltas[name]
			if reported == want.Empty() || !sameTuples(rel.Arity(), got.Ins, want.Ins) || !sameTuples(rel.Arity(), got.Del, want.Del) {
				t.Fatalf("seed %d workspace batch %d: %s base delta %+v (reported %v), want %+v\n%s",
					p.seed, batch, name, got, reported, want, strings.Join(deltaLog, "\n"))
			}
		}
		if len(res.BaseDeltas) > len(cur) {
			t.Fatalf("seed %d workspace batch %d: base deltas for unknown predicates: %+v", p.seed, batch, res.BaseDeltas)
		}
		ws, cur = res.Workspace, next
		want := refEval(p, cur)
		for _, d := range p.derived {
			if got := ws.Relation(d); !got.Equal(want[d]) {
				t.Fatalf("seed %d workspace batch %d: %s diverged: maintained %d tuples, reference %d\n%s\nmaintained: %v\nreference: %v\nbatches:\n%s",
					p.seed, batch, d, got.Len(), want[d].Len(), p.source(), sortedSlice(got), sortedSlice(want[d]), strings.Join(deltaLog, "\n"))
			}
		}
	}
}

// sameTuples reports whether a and b hold the same tuples of the given
// arity, each once.
func sameTuples(arity int, a, b []tuple.Tuple) bool {
	return len(a) == len(b) && relation.FromTuples(arity, a).Equal(relation.FromTuples(arity, b))
}
