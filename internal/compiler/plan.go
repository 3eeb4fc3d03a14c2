package compiler

import (
	"slices"

	"logicblox/internal/ast"
	"logicblox/internal/tuple"
)

// Decorated predicate names: reactive rules refer to versioned and delta
// predicates (paper §2.2.1). The engine evaluates rules over a context of
// named relations, so deltas and versions are simply distinct names.
//
//	R         — current content
//	R@start   — content at transaction start
//	+R        — insertions of the current transaction
//	-R        — deletions of the current transaction
//	^R        — upsert pseudo-predicate, expanded into +R/-R
const (
	DecorPlus    = "+"
	DecorMinus   = "-"
	DecorHat     = "^"
	DecorAtStart = "@start"
)

// DecoratedName returns the context name for a predicate occurrence.
func DecoratedName(pred string, delta ast.DeltaKind, atStart bool) string {
	name := pred
	switch delta {
	case ast.DeltaPlus:
		name = DecorPlus + name
	case ast.DeltaMinus:
		name = DecorMinus + name
	case ast.DeltaHat:
		name = DecorHat + name
	}
	if atStart {
		name += DecorAtStart
	}
	return name
}

// BaseName strips delta/version decorations from a context name.
func BaseName(name string) string {
	for len(name) > 0 && (name[0] == '+' || name[0] == '-' || name[0] == '^') {
		name = name[1:]
	}
	if n := len(name) - len(DecorAtStart); n > 0 && name[n:] == DecorAtStart {
		name = name[:n]
	}
	return name
}

// PredInfo is catalog metadata for one predicate.
type PredInfo struct {
	Name       string
	Arity      int
	Functional bool // declared/used in the bracket shape R[k...] = v
	EDB        bool // extensional (base); inferred unless declared
	// ColumnKinds holds per-column type constraints harvested from type
	// declarations; tuple.KindNull means unconstrained.
	ColumnKinds []tuple.Kind
}

// AtomPlan is a planned positive body atom: which stored relation to scan,
// under what column permutation, binding which join variables.
type AtomPlan struct {
	Name string // decorated context name
	// Perm maps plan columns to stored columns: plan column i reads stored
	// column Perm[i]. nil means identity (no secondary index needed).
	Perm []int
	// Vars[i] is the join variable bound by plan column i; strictly
	// increasing, as leapfrog triejoin requires.
	Vars []int
}

// ConstBind is a virtual constant predicate joined on one variable
// (the rewrite of constants in atoms, paper §3.2).
type ConstBind struct {
	Var int
	Val tuple.Value
}

// RangeBind is a virtual range predicate joined on one variable: the
// rewrite of a filter Var Op Val, where Op is <, <=, > or >= and Val a
// constant (written on either side in the source), as ConstBind rewrites
// a constant in an atom. The filter itself stays in Filters. Filters
// compare numbers across kinds, while trie order puts every int before
// every float, so the engine joins a range only where it is exact: where
// some atom reads Var in its first plan column and that column holds
// values of Val's kind alone.
type RangeBind struct {
	Var int
	Op  string
	Val tuple.Value
}

// GroundAtom is an atom whose arguments are all computable at check time:
// negated body atoms and constraint-head atoms. A nil Expr is a wildcard
// (match anything at that column).
type GroundAtom struct {
	Name string // decorated context name
	Args []Expr // len = predicate arity; nil entries are wildcards
}

// FilterPlan is a comparison checked after variables are bound.
type FilterPlan struct {
	Op   string
	L, R Expr
}

// AssignPlan computes a non-join variable from bound ones.
type AssignPlan struct {
	Slot int
	E    Expr
}

// TypeCheck asserts that a slot holds a value of a primitive kind
// (constraint heads like float(v)).
type TypeCheck struct {
	Slot int
	Kind tuple.Kind
}

// AggPlan describes the aggregation of a P2P rule body (paper §2.2.1).
// ArgSlot is the aggregated variable's slot, or -1 for count.
type AggPlan struct {
	Func    string
	ArgSlot int
}

// PredictPlan describes a predict P2P rule (paper §2.3.2).
type PredictPlan struct {
	Func          string // logist, linear (learning) or eval
	ValueSlot     int    // observed value (learning) / model handle (eval)
	FeatureSlot   int    // feature value variable
	ValueKeySlots []int  // slots identifying a training example (e.g. wk)
	FeatNameSlots []int  // slots identifying a feature (e.g. n)
}

// RulePlan is an executable derivation rule. Bindings are tuples of
// Slots values: the first NumJoinVars slots are leapfrog join variables,
// the rest are assigned (computed) variables.
type RulePlan struct {
	ID          int
	Source      string // pretty-printed original rule
	HeadName    string // decorated head predicate name
	HeadArity   int
	HeadExprs   []Expr // one per head column (for agg/predict: key columns only)
	NumJoinVars int
	Slots       int
	VarNames    []string
	Atoms       []AtomPlan
	Consts      []ConstBind
	Ranges      []RangeBind
	NegAtoms    []GroundAtom
	Filters     []FilterPlan
	Assigns     []AssignPlan // in dependency order
	Agg         *AggPlan
	Predict     *PredictPlan
	// BodyNames / NegNames list decorated body predicate names for
	// dependency tracking (positive and negated occurrences).
	BodyNames []string
	NegNames  []string
}

// ConstraintPlan is a compiled integrity constraint F -> G: the body plan
// enumerates bindings of F; for each, every head check must pass.
type ConstraintPlan struct {
	ID     int
	Source string
	// Body reuses RulePlan machinery with no head.
	Body      *RulePlan
	HeadAtoms []GroundAtom
	// HeadNegAtoms records negated head atoms structurally (in addition
	// to the "!exists" entry in HeadChecks), for core's constraintScope,
	// which needs the atom's predicate to see it gain tuples.
	HeadNegAtoms []GroundAtom
	HeadChecks   []FilterPlan
	HeadTypes    []TypeCheck
	refs         []string // References, listed once the plan is compiled
}

// SolveSpec captures the lang:solve directives of a block (paper §2.3.1).
type SolveSpec struct {
	Variables []string // free second-order predicate variables
	Maximize  string   // objective predicate (nullary functional), or ""
	Minimize  string
	Integral  []string // predicates constrained to integer values (MIP)
}

// Program is the compiled form of a block set: catalog, plans, and
// stratification.
type Program struct {
	Preds       map[string]*PredInfo
	Rules       []*RulePlan // static derivation rules (no deltas)
	Reactive    []*RulePlan // rules mentioning delta/@start predicates
	Constraints []*ConstraintPlan
	// Strata groups the static rules into evaluation strata, in evaluation
	// order. Each stratum is one SCC of the predicate graph: a single
	// predicate with all its rules, or a recursive clique — so a stratum
	// that is not StratumRecursive has exactly one head predicate, which
	// the maintenance layer (internal/ivm, core's rederive) relies on.
	Strata         [][]*RulePlan
	ReactiveStrata [][]*RulePlan // reactive rules in evaluation order (exec pipeline)
	Solve          *SolveSpec
	// IDBPreds lists derived predicate names in stratum order.
	IDBPreds []string
}

// References lists every predicate name a constraint touches (body atoms,
// negated atoms, head atoms, and functional lookups in head checks). The
// workspace uses it to defer constraints over free solver predicates to
// the prescriptive-analytics machinery instead of enforcing them at
// transaction time. Every transaction's check asks, so the list is
// computed once, when the constraint is compiled.
func (k *ConstraintPlan) References() []string { return k.refs }

func (k *ConstraintPlan) references() []string {
	set := map[string]bool{}
	for _, a := range k.Body.Atoms {
		set[BaseName(a.Name)] = true
	}
	for _, n := range k.Body.NegNames {
		set[BaseName(n)] = true
	}
	for _, ha := range k.HeadAtoms {
		set[BaseName(ha.Name)] = true
	}
	for _, ha := range k.HeadNegAtoms {
		set[BaseName(ha.Name)] = true
	}
	for _, n := range k.HeadLookups() {
		set[BaseName(n)] = true
	}
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	slices.Sort(out) // the same list for the same constraint
	return out
}

// HeadLookups lists the predicates a constraint's head reads through
// functional lookups — v[x] in a comparison or in a head atom's argument —
// so a change to them can break a binding the body did not gain.
func (k *ConstraintPlan) HeadLookups() []string {
	var out []string
	for _, hc := range k.HeadChecks {
		out = collectLookups(hc.L, out)
		out = collectLookups(hc.R, out)
	}
	for _, ha := range k.HeadAtoms {
		for _, a := range ha.Args {
			out = collectLookups(a, out)
		}
	}
	return out
}

// collectLookups appends the names of the functional lookups in e.
func collectLookups(e Expr, out []string) []string {
	switch e := e.(type) {
	case FuncGetExpr:
		out = append(out, e.Name)
		for _, a := range e.Args {
			out = collectLookups(a, out)
		}
	case ArithExpr:
		out = collectLookups(e.L, out)
		out = collectLookups(e.R, out)
	case existsExpr:
		for _, a := range e.args {
			out = collectLookups(a, out)
		}
	}
	return out
}
