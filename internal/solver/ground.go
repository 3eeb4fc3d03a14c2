package solver

import (
	"fmt"
	"slices"

	"logicblox/internal/compiler"
	"logicblox/internal/engine"
	"logicblox/internal/relation"
	"logicblox/internal/tuple"
)

// Grounding translates a LogiQL program with free second-order predicate
// variables (lang:solve:variable) into a linear program (paper §2.3.1).
// Its decision variables are the entries of the free predicates over
// their key domains. Linearization knows one thing about a predicate: the
// linear form of its value at a key (form). For a free predicate that is
// one decision variable; for a linear head — a sum aggregation whose body
// reads a free predicate, such as totalShelf — it is the sum of its
// bindings' forms, computed once by linearize. Integrity constraints that
// read either become linear rows, and the objective (lang:solve:max/min)
// is the sum of its head's forms. Every body is enumerated by the
// engine's leapfrog joins over the data, exactly as the paper describes
// ("this improves the scalability of the grounding by taking advantage of
// all the query evaluation machinery"), one binding at a time through
// eachBinding.
type Grounding struct {
	prog    *compiler.Program
	spec    *compiler.SolveSpec
	rels    map[string]relation.Relation
	free    map[string]bool
	integer map[string]bool

	vars    []VarInfo
	varIdx  map[string]int           // pred, NUL, key's AppendKey → variable
	domains map[string][]tuple.Tuple // free pred → key tuples
	linear  map[string]linearHead    // linear head → its forms

	objective []float64
	objConst  float64
	objSign   float64
	objPred   string

	rows []LinConstraint // every constraint's rows, in constraint order
}

// linearHead is the linear form of a derived predicate's value per group
// key (the key's AppendKey encoding: Int(1) and Float(1) are different
// keys), with the keys in the order its body first derived them.
type linearHead struct {
	forms map[string]linForm
	keys  []tuple.Tuple
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
		prog:    prog,
		spec:    spec,
		rels:    rels,
		free:    map[string]bool{},
		integer: map[string]bool{},
		varIdx:  map[string]int{},
		domains: map[string][]tuple.Tuple{},
		linear:  map[string]linearHead{},
		objSign: 1,
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
	// A linear head is a sum aggregation that joins on a free predicate.
	for _, r := range g.prog.Rules {
		if !isSum(r) || !slices.ContainsFunc(r.Atoms, func(a compiler.AtomPlan) bool { return g.free[compiler.BaseName(a.Name)] }) {
			continue
		}
		h, err := g.linearize(r)
		if err != nil {
			return nil, err
		}
		g.linear[r.HeadName] = h
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

func isSum(r *compiler.RulePlan) bool {
	return r.Agg != nil && (r.Agg.Func == "sum" || r.Agg.Func == "total")
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

// form returns the linear form of pred's value at key: one decision
// variable for a free predicate, the stored form for a linear head. ok is
// false for any other predicate, whose value is data.
func (g *Grounding) form(pred string, key tuple.Tuple) (f linForm, ok bool, err error) {
	if g.free[pred] {
		return linForm{coeffs: map[int]float64{g.varFor(pred, key): 1}}, true, nil
	}
	h, ok := g.linear[pred]
	if !ok {
		return linForm{}, false, nil
	}
	if f, ok = h.forms[string(key.AppendKey(nil))]; !ok {
		return linForm{}, true, fmt.Errorf("no linear form for %s%s", pred, key)
	}
	return f, true, nil
}

// decides reports whether pred's value is a decision: pred is free or a
// linear head.
func (g *Grounding) decides(pred string) bool {
	_, ok := g.linear[pred]
	return ok || g.free[pred]
}

// bodyDecides reports whether a body joins on a decision.
func (g *Grounding) bodyDecides(body *compiler.RulePlan) bool {
	return slices.ContainsFunc(body.Atoms, func(a compiler.AtomPlan) bool { return g.decides(compiler.BaseName(a.Name)) })
}

// predRef records a reference to a predicate with its argument exprs.
type predRef struct {
	pred string
	args []compiler.Expr
}

// headRefs returns the references a constraint's head makes to the
// predicates in holds for: its head atoms, then the functional lookups of
// its head checks.
func headRefs(k *compiler.ConstraintPlan, in func(string) bool) []predRef {
	var refs []predRef
	for _, ha := range k.HeadAtoms {
		if in(ha.Name) {
			refs = append(refs, predRef{ha.Name, ha.Args})
		}
	}
	for _, hc := range k.HeadChecks {
		collectFuncGets(hc.L, in, &refs)
		collectFuncGets(hc.R, in, &refs)
	}
	return refs
}

func collectFuncGets(e compiler.Expr, in func(string) bool, out *[]predRef) {
	switch e := e.(type) {
	case compiler.FuncGetExpr:
		if in(e.Name) {
			*out = append(*out, predRef{e.Name, e.Args})
		}
		for _, a := range e.Args {
			collectFuncGets(a, in, out)
		}
	case compiler.ArithExpr:
		collectFuncGets(e.L, in, out)
		collectFuncGets(e.R, in, out)
	}
}

// buildDomains determines each free predicate's key domain: for every
// constraint whose head references the free predicate and whose body does
// not, the body bindings projected onto the key terms define variables
// (e.g. Product(p) -> Stock[p] >= minStock[p] creates one variable per
// product).
func (g *Grounding) buildDomains() error {
	isFree := func(p string) bool { return g.free[p] }
	for _, k := range g.prog.Constraints {
		refs := headRefs(k, isFree)
		if len(refs) == 0 || g.bodyDecides(k.Body) {
			continue
		}
		err := g.eachBinding(k.Body, fmt.Sprintf("constraint %q", k.Source), func(b *linBinding) error {
			for _, r := range refs {
				if key, ok := b.key(r); ok {
					g.varFor(r.pred, key)
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	if len(g.vars) == 0 {
		return fmt.Errorf("solver: no domain constraints found for free predicates %v (add constraints of the form Domain(k) -> F[k] ...)", g.spec.Variables)
	}
	return nil
}

// symRef names the decision a binding slot holds: the value column of an
// atom over pred, keyed by the atom's key slots in stored column order.
type symRef struct {
	pred     string
	keySlots []int
}

// symbolicSlots maps each binding slot bound by a decision's value column
// to its symRef.
func (g *Grounding) symbolicSlots(body *compiler.RulePlan) map[int]symRef {
	out := map[int]symRef{}
	for _, a := range body.Atoms {
		base := compiler.BaseName(a.Name)
		if !g.decides(base) {
			continue
		}
		// The value is the last stored column, the key the ones before it.
		stored := compiler.StoredVars(a)
		val := len(stored) - 1
		out[stored[val]] = symRef{pred: base, keySlots: stored[:val]}
	}
	return out
}

// linBinding is one binding of a body under linearization: its values,
// the slots that hold decisions (a sentinel in vals), the body's
// assignments, and the binding's resolver.
type linBinding struct {
	g       *Grounding
	vals    tuple.Tuple
	syms    map[int]symRef
	assigns map[int]compiler.Expr
	res     compiler.Resolver
}

// eachBinding calls fn once per binding of body, enumerated over the data
// with each free predicate holding its key domain and each linear head
// its keys, each paired with the sentinel value: a body that joins on a
// decision enumerates one binding per key. A body whose filters read a
// decision is rejected, since the sentinel is not its value; that error
// and fn's are reported in what (the rule or constraint).
func (g *Grounding) eachBinding(body *compiler.RulePlan, what string, fn func(*linBinding) error) error {
	b := &linBinding{g: g, syms: g.symbolicSlots(body), assigns: map[int]compiler.Expr{}}
	for _, a := range body.Assigns {
		b.assigns[a.Slot] = a.E
	}
	for _, f := range body.Filters {
		if b.touchesSym(f.L) || b.touchesSym(f.R) {
			return fmt.Errorf("solver: %s filters on a free predicate value", what)
		}
	}
	ctx := engine.NewContext(g.prog, g.rels, engine.Options{})
	for pred, keys := range g.domains {
		ctx.Set(pred, withSentinel(g.prog.Preds[pred].Arity, keys))
	}
	for pred, h := range g.linear {
		ctx.Set(pred, withSentinel(g.prog.Preds[pred].Arity, h.keys))
	}
	var err error
	enumErr := ctx.EnumerateBindings(body, nil, func(vals tuple.Tuple, res compiler.Resolver) bool {
		b.vals, b.res = vals, res
		if err = fn(b); err != nil {
			err = fmt.Errorf("in %s: %w", what, err)
		}
		return err == nil
	})
	if enumErr != nil {
		return enumErr
	}
	return err
}

// key evaluates a reference's key arguments under the binding; ok is
// false when one is a wildcard or does not evaluate.
func (b *linBinding) key(r predRef) (tuple.Tuple, bool) {
	n := b.g.prog.Preds[r.pred].Arity - 1
	if len(r.args) < n {
		return nil, false
	}
	key := make(tuple.Tuple, n)
	for i, a := range r.args[:n] {
		if a == nil {
			return nil, false
		}
		v, err := a.Eval(b.vals, b.res)
		if err != nil {
			return nil, false
		}
		key[i] = v
	}
	return key, true
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

// lin evaluates an expression to a linear form over decision variables
// under the binding.
func (b *linBinding) lin(e compiler.Expr) (linForm, error) {
	switch e := e.(type) {
	case compiler.ConstExpr:
		f, ok := e.Val.Numeric()
		if !ok {
			return linForm{}, fmt.Errorf("non-numeric constant %s in linear context", e.Val)
		}
		return linForm{coeffs: map[int]float64{}, c: f}, nil
	case compiler.VarExpr:
		if ref, ok := b.syms[e.Idx]; ok {
			key := make(tuple.Tuple, len(ref.keySlots))
			for i, s := range ref.keySlots {
				key[i] = b.vals[s]
			}
			f, _, err := b.g.form(ref.pred, key)
			return f, err
		}
		if ae, ok := b.assigns[e.Idx]; ok {
			return b.lin(ae)
		}
		f, ok := b.vals[e.Idx].Numeric()
		if !ok {
			return linForm{}, fmt.Errorf("non-numeric value %s in linear context", b.vals[e.Idx])
		}
		return linForm{coeffs: map[int]float64{}, c: f}, nil
	case compiler.FuncGetExpr:
		// Key args must be ground (no decision variables) and are
		// evaluated as plain values, not linearized.
		key := make(tuple.Tuple, len(e.Args))
		for i, a := range e.Args {
			if b.touchesSym(a) {
				return linForm{}, fmt.Errorf("free variable in functional key of %s", e.Name)
			}
			v, err := a.Eval(b.vals, b.res)
			if err != nil {
				return linForm{}, err
			}
			key[i] = v
		}
		if f, ok, err := b.g.form(e.Name, key); ok {
			return f, err
		}
		v, err := e.Eval(b.vals, b.res)
		if err != nil {
			return linForm{}, err
		}
		f, ok := v.Numeric()
		if !ok {
			return linForm{}, fmt.Errorf("non-numeric functional value %s", v)
		}
		return linForm{coeffs: map[int]float64{}, c: f}, nil
	case compiler.ArithExpr:
		l, err := b.lin(e.L)
		if err != nil {
			return linForm{}, err
		}
		r, err := b.lin(e.R)
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

// touchesSym reports whether an expression reads a slot that holds a
// decision.
func (b *linBinding) touchesSym(e compiler.Expr) bool {
	switch e := e.(type) {
	case compiler.VarExpr:
		if _, ok := b.syms[e.Idx]; ok {
			return true
		}
		ae, ok := b.assigns[e.Idx]
		return ok && b.touchesSym(ae)
	case compiler.ArithExpr:
		return b.touchesSym(e.L) || b.touchesSym(e.R)
	case compiler.FuncGetExpr:
		return slices.ContainsFunc(e.Args, b.touchesSym)
	default:
		return false
	}
}

// rowOps maps a head comparison to the row it grounds to.
var rowOps = map[string]ConstraintOp{"<=": LE, "<": LE, ">=": GE, ">": GE, "=": EQ}

// groundConstraint translates one integrity constraint that reads a
// decision into linear rows, one per binding and head comparison.
func (g *Grounding) groundConstraint(k *compiler.ConstraintPlan) error {
	if !g.bodyDecides(k.Body) && len(headRefs(k, g.decides)) == 0 {
		return nil // ordinary constraint: checked by the engine, not the solver
	}
	return g.eachBinding(k.Body, fmt.Sprintf("constraint %q", k.Source), func(b *linBinding) error {
		for _, hc := range k.HeadChecks {
			if hc.Op == "!exists" {
				continue
			}
			l, err := b.lin(hc.L)
			if err != nil {
				return err
			}
			r, err := b.lin(hc.R)
			if err != nil {
				return err
			}
			diff := l.add(r, -1) // l - r  op  0
			if diff.isConst() {
				continue // no decision variables involved: engine's job
			}
			op, ok := rowOps[hc.Op]
			if !ok {
				return fmt.Errorf("cannot ground %s over free predicates", hc.Op)
			}
			g.rows = append(g.rows, LinConstraint{Coeffs: diff.coeffs, Op: op, RHS: -diff.c})
		}
		return nil
	})
}

// linearize computes the linear head of sum-aggregation rule r: per group
// key, the sum of the forms of the aggregated value over the bindings
// that derive it.
func (g *Grounding) linearize(r *compiler.RulePlan) (linearHead, error) {
	h := linearHead{forms: map[string]linForm{}}
	arg := compiler.VarExpr{Idx: r.Agg.ArgSlot}
	err := g.eachBinding(r, fmt.Sprintf("rule %q", r.Source), func(b *linBinding) error {
		key := make(tuple.Tuple, len(r.HeadExprs))
		for i, e := range r.HeadExprs {
			v, err := e.Eval(b.vals, b.res)
			if err != nil {
				return err
			}
			key[i] = v
		}
		lf, err := b.lin(arg)
		if err != nil {
			return err
		}
		ks := string(key.AppendKey(nil))
		prev, had := h.forms[ks]
		if !had {
			prev = linForm{coeffs: map[int]float64{}}
			h.keys = append(h.keys, key)
		}
		h.forms[ks] = prev.add(lf, 1)
		return nil
	})
	return h, err
}

// groundObjective sets the objective to the sum of the objective head's
// linear forms, linearizing its rule when the head is not a linear head
// already.
func (g *Grounding) groundObjective() error {
	i := slices.IndexFunc(g.prog.Rules, func(r *compiler.RulePlan) bool { return r.HeadName == g.objPred })
	if i < 0 {
		return fmt.Errorf("solver: objective predicate %s has no rule", g.objPred)
	}
	if !isSum(g.prog.Rules[i]) {
		return fmt.Errorf("solver: objective %s must be a sum aggregation", g.objPred)
	}
	h, ok := g.linear[g.objPred]
	if !ok {
		var err error
		if h, err = g.linearize(g.prog.Rules[i]); err != nil {
			return err
		}
	}
	for _, key := range h.keys {
		f := h.forms[string(key.AppendKey(nil))]
		for v, c := range f.coeffs {
			g.objective[v] += g.objSign * c
		}
		g.objConst += g.objSign * f.c
	}
	return nil
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
