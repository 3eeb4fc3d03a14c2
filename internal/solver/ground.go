package solver

import (
	"fmt"

	"logicblox/internal/compiler"
	"logicblox/internal/engine"
	"logicblox/internal/relation"
	"logicblox/internal/tuple"
)

// Grounding translates a LogiQL program with free second-order predicate
// variables (lang:solve:variable) into a linear program: decision
// variables are the entries of the free predicates over their key
// domains, integrity constraints become linear rows, and the
// lang:solve:max/min objective predicate's aggregation rule becomes the
// objective function (paper §2.3.1). Grounding reuses the engine's query
// evaluation machinery: constraint bodies are enumerated by leapfrog
// joins over the data, exactly as the paper describes ("this improves
// the scalability of the grounding by taking advantage of all the query
// evaluation machinery").
type Grounding struct {
	prog    *compiler.Program
	spec    *compiler.SolveSpec
	rels    map[string]relation.Relation
	free    map[string]bool
	integer map[string]bool

	vars    []VarInfo
	varIdx  map[string]int           // pred, NUL, key's AppendKey → variable
	domains map[string][]tuple.Tuple // free pred → key tuples

	// derivedLinear holds, for each derived sum-aggregation predicate
	// whose body reads free predicates (e.g. totalShelf), the linear form
	// of its value per group key (its AppendKey encoding: Int(1) and
	// Float(1) are different keys). Constraints and objectives referencing
	// such predicates are linearized through these forms.
	derivedLinear map[string]map[string]linForm
	derivedKeys   map[string][]tuple.Tuple

	objective []float64
	objConst  float64
	objSign   float64
	objPred   string

	rows []LinConstraint // every constraint's rows, in constraint order
}

// VarInfo names one decision variable: an entry of a free predicate.
type VarInfo struct {
	Pred string
	Key  tuple.Tuple
}

// sentinel value bound to free-value columns during body enumeration.
var sentinel = tuple.Float(1)

// Ground builds the LP/MIP for the program over the given relation
// contents.
func Ground(prog *compiler.Program, rels map[string]relation.Relation) (*Grounding, error) {
	spec := prog.Solve
	if spec == nil || len(spec.Variables) == 0 {
		return nil, fmt.Errorf("solver: program has no lang:solve:variable declarations")
	}
	g := &Grounding{
		prog:          prog,
		spec:          spec,
		rels:          rels,
		free:          map[string]bool{},
		integer:       map[string]bool{},
		varIdx:        map[string]int{},
		domains:       map[string][]tuple.Tuple{},
		derivedLinear: map[string]map[string]linForm{},
		derivedKeys:   map[string][]tuple.Tuple{},
		objSign:       1,
	}
	for _, v := range spec.Variables {
		info, ok := prog.Preds[v]
		if !ok {
			return nil, fmt.Errorf("solver: unknown free predicate %s", v)
		}
		if !info.Functional || info.Arity < 1 {
			return nil, fmt.Errorf("solver: free predicate %s must be functional", v)
		}
		g.free[v] = true
		if info.ColumnKinds[info.Arity-1] == tuple.KindInt {
			g.integer[v] = true
		}
	}
	for _, v := range spec.Integral {
		g.integer[v] = true
	}
	switch {
	case spec.Maximize != "":
		g.objPred = spec.Maximize
	case spec.Minimize != "":
		g.objPred = spec.Minimize
		g.objSign = -1
	}

	if err := g.buildDomains(); err != nil {
		return nil, err
	}
	if err := g.computeDerivedLinear(); err != nil {
		return nil, err
	}
	for _, k := range prog.Constraints {
		if err := g.groundConstraint(k); err != nil {
			return nil, err
		}
	}
	if g.objPred != "" {
		if err := g.groundObjective(); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// NumVars returns the number of decision variables.
func (g *Grounding) NumVars() int { return len(g.vars) }

// Vars returns the decision-variable descriptors.
func (g *Grounding) Vars() []VarInfo { return g.vars }

// freeCtx returns an engine context in which each free predicate holds
// its key domain paired with a sentinel value, so constraint bodies that
// join on free predicates enumerate per domain key.
func (g *Grounding) freeCtx() *engine.Context {
	ctx := engine.NewContext(g.prog, g.rels, engine.Options{})
	for pred, keys := range g.domains {
		ctx.Set(pred, withSentinel(g.prog.Preds[pred].Arity, keys))
	}
	for pred, keys := range g.derivedKeys {
		ctx.Set(pred, withSentinel(g.prog.Preds[pred].Arity, keys))
	}
	return ctx
}

// withSentinel returns the relation of each key extended by the sentinel
// value.
func withSentinel(arity int, keys []tuple.Tuple) relation.Relation {
	ts := make([]tuple.Tuple, len(keys))
	for i, k := range keys {
		ts[i] = append(append(make(tuple.Tuple, 0, arity), k...), sentinel)
	}
	return relation.FromTuples(arity, ts)
}

func (g *Grounding) varFor(pred string, key tuple.Tuple) int {
	id := string(key.AppendKey([]byte(pred + "\x00")))
	if i, ok := g.varIdx[id]; ok {
		return i
	}
	i := len(g.vars)
	g.varIdx[id] = i
	g.vars = append(g.vars, VarInfo{Pred: pred, Key: key.Clone()})
	g.objective = append(g.objective, 0)
	g.domains[pred] = append(g.domains[pred], key.Clone())
	return i
}

// buildDomains determines each free predicate's key domain: for every
// constraint whose head references the free predicate and whose body does
// not, the body bindings projected onto the key terms define variables
// (e.g. Product(p) -> Stock[p] >= minStock[p] creates one variable per
// product).
func (g *Grounding) buildDomains() error {
	ctx := engine.NewContext(g.prog, g.rels, engine.Options{})
	for _, k := range g.prog.Constraints {
		if g.bodyMentionsFree(k.Body) {
			continue
		}
		// Collect the free-pred references in the head.
		var refs []predRef
		for _, ha := range k.HeadAtoms {
			if g.free[ha.Name] {
				refs = append(refs, predRef{ha.Name, ha.Args})
			}
		}
		for _, hc := range k.HeadChecks {
			collectFuncGets(hc.L, g.free, &refs)
			collectFuncGets(hc.R, g.free, &refs)
		}
		if len(refs) == 0 {
			continue
		}
		err := ctx.EnumerateBindings(k.Body, nil, func(binding tuple.Tuple) bool {
			for _, r := range refs {
				arity := g.prog.Preds[r.pred].Arity
				keyLen := arity - 1
				key := make(tuple.Tuple, 0, keyLen)
				ok := true
				for i := 0; i < keyLen && i < len(r.args); i++ {
					if r.args[i] == nil {
						ok = false
						break
					}
					v, err := r.args[i].Eval(binding, nil)
					if err != nil {
						ok = false
						break
					}
					key = append(key, v)
				}
				if ok && len(key) == keyLen {
					g.varFor(r.pred, key)
				}
			}
			return true
		})
		if err != nil {
			return err
		}
	}
	total := 0
	for _, keys := range g.domains {
		total += len(keys)
	}
	if total == 0 {
		return fmt.Errorf("solver: no domain constraints found for free predicates %v (add constraints of the form Domain(k) -> F[k] ...)", g.spec.Variables)
	}
	return nil
}

// predRef records a reference to a predicate with its argument exprs.
type predRef struct {
	pred string
	args []compiler.Expr
}

func collectFuncGets(e compiler.Expr, free map[string]bool, out *[]predRef) {
	switch e := e.(type) {
	case compiler.FuncGetExpr:
		if free[e.Name] {
			*out = append(*out, predRef{e.Name, e.Args})
		}
		for _, a := range e.Args {
			collectFuncGets(a, free, out)
		}
	case compiler.ArithExpr:
		collectFuncGets(e.L, free, out)
		collectFuncGets(e.R, free, out)
	}
}

// bodyMentionsFree reports whether a body plan joins on a free predicate.
func (g *Grounding) bodyMentionsFree(body *compiler.RulePlan) bool {
	for _, a := range body.Atoms {
		base := compiler.BaseName(a.Name)
		if g.free[base] {
			return true
		}
		if _, ok := g.derivedLinear[base]; ok {
			return true
		}
	}
	return false
}

// symbolicSlots maps each binding slot bound by a free predicate's value
// column to the atom's key slots, in stored column order.
type symRef struct {
	pred     string // free predicate, or "" when derived is set
	derived  string // derived-linear predicate
	keySlots []int
}

func (g *Grounding) symbolicSlots(body *compiler.RulePlan) map[int]symRef {
	out := map[int]symRef{}
	for _, a := range body.Atoms {
		base := compiler.BaseName(a.Name)
		_, isDerived := g.derivedLinear[base]
		if !g.free[base] && !isDerived {
			continue
		}
		// The value is the last stored column, the key the ones before it.
		stored := compiler.StoredVars(a)
		val := len(stored) - 1
		ref := symRef{keySlots: stored[:val]}
		if isDerived {
			ref.derived = base
		} else {
			ref.pred = base
		}
		out[stored[val]] = ref
	}
	return out
}

// relResolver resolves functional lookups and existence checks against
// the grounding's relation contents.
type relResolver map[string]relation.Relation

// FuncValue implements compiler.Resolver.
func (r relResolver) FuncValue(name string, key tuple.Tuple) (tuple.Value, bool) {
	rel, ok := r[name]
	if !ok || rel.Arity() != len(key)+1 {
		return tuple.Value{}, false
	}
	return rel.FuncGet(key)
}

// Exists implements compiler.Resolver.
func (r relResolver) Exists(name string, pattern []tuple.Value, wild []bool) bool {
	rel, ok := r[name]
	if !ok {
		return false
	}
	return rel.MatchExists(pattern, wild)
}

// linForm is a linear expression over decision variables.
type linForm struct {
	coeffs map[int]float64
	c      float64
}

func (l linForm) add(o linForm, scale float64) linForm {
	out := linForm{coeffs: map[int]float64{}, c: l.c + scale*o.c}
	for k, v := range l.coeffs {
		out.coeffs[k] = v
	}
	for k, v := range o.coeffs {
		out.coeffs[k] += scale * v
	}
	return out
}

func (l linForm) isConst() bool { return len(l.coeffs) == 0 }

// linEval evaluates an expression to a linear form over decision
// variables, under a concrete binding with symbolic slots.
func (g *Grounding) linEval(e compiler.Expr, binding tuple.Tuple, syms map[int]symRef,
	assigns map[int]compiler.Expr, res compiler.Resolver) (linForm, error) {
	switch e := e.(type) {
	case compiler.ConstExpr:
		f, ok := e.Val.Numeric()
		if !ok {
			return linForm{}, fmt.Errorf("non-numeric constant %s in linear context", e.Val)
		}
		return linForm{coeffs: map[int]float64{}, c: f}, nil
	case compiler.VarExpr:
		if ref, ok := syms[e.Idx]; ok {
			key := make(tuple.Tuple, len(ref.keySlots))
			for i, s := range ref.keySlots {
				key[i] = binding[s]
			}
			if ref.derived != "" {
				form, ok := g.derivedLinear[ref.derived][string(key.AppendKey(nil))]
				if !ok {
					return linForm{}, fmt.Errorf("no linear form for %s%s", ref.derived, key)
				}
				return form, nil
			}
			v := g.varFor(ref.pred, key)
			return linForm{coeffs: map[int]float64{v: 1}}, nil
		}
		if ae, ok := assigns[e.Idx]; ok {
			return g.linEval(ae, binding, syms, assigns, res)
		}
		f, ok := binding[e.Idx].Numeric()
		if !ok {
			return linForm{}, fmt.Errorf("non-numeric value %s in linear context", binding[e.Idx])
		}
		return linForm{coeffs: map[int]float64{}, c: f}, nil
	case compiler.FuncGetExpr:
		// Key args must be ground (no decision variables) and are
		// evaluated as plain values, not linearized.
		key := make(tuple.Tuple, len(e.Args))
		for i, a := range e.Args {
			if exprTouchesSym(a, syms, assigns) {
				return linForm{}, fmt.Errorf("free variable in functional key of %s", e.Name)
			}
			v, err := a.Eval(binding, res)
			if err != nil {
				return linForm{}, err
			}
			key[i] = v
		}
		if forms, ok := g.derivedLinear[e.Name]; ok {
			form, ok := forms[string(key.AppendKey(nil))]
			if !ok {
				return linForm{}, fmt.Errorf("no linear form for %s%s", e.Name, key)
			}
			return form, nil
		}
		if g.free[e.Name] {
			v := g.varFor(e.Name, key)
			return linForm{coeffs: map[int]float64{v: 1}}, nil
		}
		v, err := e.Eval(binding, res)
		if err != nil {
			return linForm{}, err
		}
		f, ok := v.Numeric()
		if !ok {
			return linForm{}, fmt.Errorf("non-numeric functional value %s", v)
		}
		return linForm{coeffs: map[int]float64{}, c: f}, nil
	case compiler.ArithExpr:
		l, err := g.linEval(e.L, binding, syms, assigns, res)
		if err != nil {
			return linForm{}, err
		}
		r, err := g.linEval(e.R, binding, syms, assigns, res)
		if err != nil {
			return linForm{}, err
		}
		switch e.Op {
		case '+':
			return l.add(r, 1), nil
		case '-':
			return l.add(r, -1), nil
		case '*':
			switch {
			case l.isConst():
				return linForm{coeffs: scaled(r.coeffs, l.c), c: l.c * r.c}, nil
			case r.isConst():
				return linForm{coeffs: scaled(l.coeffs, r.c), c: l.c * r.c}, nil
			default:
				return linForm{}, fmt.Errorf("nonlinear product of decision variables")
			}
		case '/':
			if !r.isConst() || r.c == 0 {
				return linForm{}, fmt.Errorf("nonlinear or zero division")
			}
			return linForm{coeffs: scaled(l.coeffs, 1/r.c), c: l.c / r.c}, nil
		}
		return linForm{}, fmt.Errorf("unknown operator %c", e.Op)
	default:
		return linForm{}, fmt.Errorf("cannot linearize %T", e)
	}
}

func scaled(m map[int]float64, f float64) map[int]float64 {
	out := make(map[int]float64, len(m))
	for k, v := range m {
		out[k] = v * f
	}
	return out
}

// exprTouchesSym reports whether an expression reads a symbolic slot.
func exprTouchesSym(e compiler.Expr, syms map[int]symRef, assigns map[int]compiler.Expr) bool {
	switch e := e.(type) {
	case compiler.VarExpr:
		if _, ok := syms[e.Idx]; ok {
			return true
		}
		if ae, ok := assigns[e.Idx]; ok {
			return exprTouchesSym(ae, syms, assigns)
		}
		return false
	case compiler.ArithExpr:
		return exprTouchesSym(e.L, syms, assigns) || exprTouchesSym(e.R, syms, assigns)
	case compiler.FuncGetExpr:
		for _, a := range e.Args {
			if exprTouchesSym(a, syms, assigns) {
				return true
			}
		}
		return false
	default:
		return false
	}
}

// groundConstraint translates one integrity constraint into linear rows.
func (g *Grounding) groundConstraint(k *compiler.ConstraintPlan) error {
	mentions := g.bodyMentionsFree(k.Body) || g.headMentionsFree(k)
	if !mentions {
		return nil // ordinary constraint: checked by the engine, not the solver
	}
	syms := g.symbolicSlots(k.Body)
	assigns := map[int]compiler.Expr{}
	for _, a := range k.Body.Assigns {
		assigns[a.Slot] = a.E
	}
	// Safety: filters and negations must not read symbolic slots.
	for _, f := range k.Body.Filters {
		if exprTouchesSym(f.L, syms, assigns) || exprTouchesSym(f.R, syms, assigns) {
			return fmt.Errorf("solver: constraint %q filters on a free predicate value", k.Source)
		}
	}
	ctx := g.freeCtx()
	var groundErr error
	err := ctx.EnumerateBindings(k.Body, nil, func(binding tuple.Tuple) bool {
		for _, hc := range k.HeadChecks {
			if hc.Op == "!exists" {
				continue
			}
			l, err := g.linEval(hc.L, binding, syms, assigns, relResolver(g.rels))
			if err != nil {
				groundErr = fmt.Errorf("in constraint %q: %w", k.Source, err)
				return false
			}
			r, err := g.linEval(hc.R, binding, syms, assigns, relResolver(g.rels))
			if err != nil {
				groundErr = fmt.Errorf("in constraint %q: %w", k.Source, err)
				return false
			}
			diff := l.add(r, -1) // l - r  op  0
			if diff.isConst() {
				continue // no decision variables involved: engine's job
			}
			var op ConstraintOp
			switch hc.Op {
			case "<=", "<":
				op = LE
			case ">=", ">":
				op = GE
			case "=":
				op = EQ
			default:
				groundErr = fmt.Errorf("in constraint %q: cannot ground %s over free predicates", k.Source, hc.Op)
				return false
			}
			g.rows = append(g.rows, LinConstraint{Coeffs: diff.coeffs, Op: op, RHS: -diff.c})
		}
		return true
	})
	if err == nil {
		err = groundErr
	}
	return err
}

func (g *Grounding) headMentionsFree(k *compiler.ConstraintPlan) bool {
	names := map[string]bool{}
	for n := range g.free {
		names[n] = true
	}
	for n := range g.derivedLinear {
		names[n] = true
	}
	var refs []predRef
	for _, hc := range k.HeadChecks {
		collectFuncGets(hc.L, names, &refs)
		collectFuncGets(hc.R, names, &refs)
	}
	for _, ha := range k.HeadAtoms {
		if g.free[ha.Name] {
			return true
		}
	}
	return len(refs) > 0
}

// groundObjective linearizes the objective predicate's sum-aggregation
// rule.
func (g *Grounding) groundObjective() error {
	var rule *compiler.RulePlan
	for _, r := range g.prog.Rules {
		if r.HeadName == g.objPred {
			rule = r
			break
		}
	}
	if rule == nil {
		return fmt.Errorf("solver: objective predicate %s has no rule", g.objPred)
	}
	if rule.Agg == nil || (rule.Agg.Func != "sum" && rule.Agg.Func != "total") {
		return fmt.Errorf("solver: objective %s must be a sum aggregation", g.objPred)
	}
	if forms, ok := g.derivedLinear[g.objPred]; ok {
		// Nullary objective: its linear form was already computed.
		if form, ok := forms[""]; ok {
			for v, c := range form.coeffs {
				g.objective[v] += g.objSign * c
			}
			g.objConst += g.objSign * form.c
			return nil
		}
	}
	syms := g.symbolicSlots(rule)
	assigns := map[int]compiler.Expr{}
	for _, a := range rule.Assigns {
		assigns[a.Slot] = a.E
	}
	ctx := g.freeCtx()
	var groundErr error
	argExpr := compiler.Expr(compiler.VarExpr{Idx: rule.Agg.ArgSlot})
	err := ctx.EnumerateBindings(rule, nil, func(binding tuple.Tuple) bool {
		lf, err := g.linEval(argExpr, binding, syms, assigns, relResolver(g.rels))
		if err != nil {
			groundErr = fmt.Errorf("in objective %s: %w", g.objPred, err)
			return false
		}
		for v, c := range lf.coeffs {
			g.objective[v] += g.objSign * c
		}
		g.objConst += g.objSign * lf.c
		return true
	})
	if err == nil {
		err = groundErr
	}
	return err
}

// Problem assembles the LP/MIP.
func (g *Grounding) Problem() *Problem {
	p := &Problem{
		NumVars:     len(g.vars),
		Objective:   append([]float64(nil), g.objective...),
		Constraints: append([]LinConstraint(nil), g.rows...),
		Free:        make([]bool, len(g.vars)),
		Integer:     make([]bool, len(g.vars)),
	}
	for i := range p.Free {
		p.Free[i] = true
	}
	for i, v := range g.vars {
		if g.integer[v.Pred] {
			p.Integer[i] = true
		}
	}
	return p
}

// HasInteger reports whether any decision variable is integral (MIP).
func (g *Grounding) HasInteger() bool {
	for _, v := range g.vars {
		if g.integer[v.Pred] {
			return true
		}
	}
	return false
}

// Solve grounds nothing further: it runs the LP (or MIP when integral
// variables exist) and returns the populated free-predicate relations.
func (g *Grounding) Solve() (map[string]relation.Relation, *Solution, error) {
	p := g.Problem()
	var sol *Solution
	var err error
	if g.HasInteger() {
		sol, err = SolveMIP(p)
	} else {
		sol, err = SolveLP(p)
	}
	if err != nil {
		return nil, nil, err
	}
	if sol.Status != Optimal {
		return nil, sol, fmt.Errorf("solver: %s", sol.Status)
	}
	facts := map[string][]tuple.Tuple{}
	for i, v := range g.vars {
		var val tuple.Value
		if g.integer[v.Pred] {
			val = tuple.Int(int64(roundTo(sol.X[i])))
		} else {
			val = tuple.Float(sol.X[i])
		}
		t := make(tuple.Tuple, 0, len(v.Key)+1)
		t = append(t, v.Key...)
		facts[v.Pred] = append(facts[v.Pred], append(t, val))
	}
	out := map[string]relation.Relation{}
	for pred := range g.domains {
		out[pred] = relation.FromTuples(g.prog.Preds[pred].Arity, facts[pred])
	}
	// Undo the minimization sign on the reported objective.
	sol.Objective = g.objSign * sol.Objective
	return out, sol, nil
}

func roundTo(x float64) float64 {
	if x >= 0 {
		return float64(int64(x + 0.5))
	}
	return float64(int64(x - 0.5))
}

// computeDerivedLinear finds derived sum-aggregation predicates whose
// bodies read free predicates (e.g. totalShelf over Stock) and computes
// the linear form of their value per group key, so constraints and
// objectives over those predicates linearize through substitution.
func (g *Grounding) computeDerivedLinear() error {
	for _, r := range g.prog.Rules {
		if r.Agg == nil || (r.Agg.Func != "sum" && r.Agg.Func != "total") {
			continue
		}
		directFree := false
		for _, a := range r.Atoms {
			if g.free[compiler.BaseName(a.Name)] {
				directFree = true
				break
			}
		}
		if !directFree {
			continue
		}
		syms := g.symbolicSlots(r)
		assigns := map[int]compiler.Expr{}
		for _, a := range r.Assigns {
			assigns[a.Slot] = a.E
		}
		for _, f := range r.Filters {
			if exprTouchesSym(f.L, syms, assigns) || exprTouchesSym(f.R, syms, assigns) {
				return fmt.Errorf("solver: rule %q filters on a free predicate value", r.Source)
			}
		}
		forms := map[string]linForm{}
		var keys []tuple.Tuple
		ctx := g.freeCtx()
		argExpr := compiler.Expr(compiler.VarExpr{Idx: r.Agg.ArgSlot})
		var groundErr error
		err := ctx.EnumerateBindings(r, nil, func(binding tuple.Tuple) bool {
			key := make(tuple.Tuple, len(r.HeadExprs))
			for i, e := range r.HeadExprs {
				v, err := e.Eval(binding, nil)
				if err != nil {
					groundErr = err
					return false
				}
				key[i] = v
			}
			lf, err := g.linEval(argExpr, binding, syms, assigns, relResolver(g.rels))
			if err != nil {
				groundErr = fmt.Errorf("in rule %q: %w", r.Source, err)
				return false
			}
			ks := string(key.AppendKey(nil))
			prev, had := forms[ks]
			if !had {
				prev = linForm{coeffs: map[int]float64{}}
				keys = append(keys, key.Clone())
			}
			forms[ks] = prev.add(lf, 1)
			return true
		})
		if err == nil {
			err = groundErr
		}
		if err != nil {
			return err
		}
		g.derivedLinear[r.HeadName] = forms
		g.derivedKeys[r.HeadName] = keys
	}
	return nil
}
