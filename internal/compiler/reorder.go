package compiler

import (
	"fmt"
	"slices"
)

// The variable layout of a rule is one planning decision (paper §3.2): the
// order of its join variables, and for each body atom the column
// permutation that lets leapfrog triejoin read the atom in that order. The
// functions below make that decision; outside the engine's join builder
// and the optimizer's sampler, code reads it back only through them.

// Order returns r with the join variables of first leading, in that
// order, and every other join variable following in r's order. A
// negative entry, or one that repeats an earlier entry, is skipped. When
// no variable moves it returns r itself.
func Order(r *RulePlan, first []int) *RulePlan {
	order := make([]int, 0, r.NumJoinVars)
	seen := make([]bool, r.NumJoinVars)
	for _, v := range first {
		if v >= 0 && !seen[v] {
			seen[v] = true
			order = append(order, v)
		}
	}
	for v, s := range seen {
		if !s {
			order = append(order, v)
		}
	}
	for i, v := range order {
		if i != v {
			return reorder(r, order)
		}
	}
	return r
}

// streamOrderCap bounds the interleavings StreamOrder compares; past it
// the constant-bound variables simply lead.
const streamOrderCap = 64

// StreamOrder returns the plan a streamed answer runs: r's distinct head
// variables in head-column order, each constant-bound variable (r.Consts)
// placed among them, and every other join variable after them in r's
// order. A constant-bound variable takes one value, so wherever it sits
// the heads still arrive sorted; of the interleavings it picks the one in
// which the fewest atoms need a permuted index, the constants earliest on
// a tie, so a query constant is a seek on the stored columns.
func StreamOrder(r *RulePlan) *RulePlan {
	var heads []int
	for _, v := range r.HeadVars() {
		if v >= 0 && !slices.Contains(heads, v) {
			heads = append(heads, v)
		}
	}
	consts := make([]int, len(r.Consts)) // each constant has its own variable
	for i, c := range r.Consts {
		consts[i] = c.Var
	}
	n := 1 // interleavings of heads (in order) with consts (in any order)
	for i := 1; i <= len(consts) && n <= streamOrderCap; i++ {
		n *= len(heads) + i
	}
	if len(consts) == 0 || n > streamOrderCap {
		return Order(r, append(consts, heads...))
	}
	var best *RulePlan
	bestPerms := 0
	first := make([]int, 0, len(heads)+len(consts))
	used := make([]bool, len(consts))
	// walk extends first by every unused constant, then by the next head
	// variable, so the first of equally good orders has its constants
	// earliest, and no later order beats one that permutes no atom.
	var walk func(h int)
	walk = func(h int) {
		if best != nil && bestPerms == 0 {
			return
		}
		if len(first) == cap(first) {
			p := Order(r, first)
			perms := 0
			for _, a := range p.Atoms {
				if a.Perm != nil {
					perms++
				}
			}
			if best == nil || perms < bestPerms {
				best, bestPerms = p, perms
			}
			return
		}
		for i, c := range consts {
			if !used[i] {
				used[i] = true
				first = append(first, c)
				walk(h)
				first = first[:len(first)-1]
				used[i] = false
			}
		}
		if h < len(heads) {
			first = append(first, heads[h])
			walk(h + 1)
			first = first[:len(first)-1]
		}
	}
	walk(0)
	return best
}

// HeadVars returns, per head column (for an aggregation or predict rule,
// per key column), the join variable the column binds, or -1 when it is a
// constant or a computed value.
func (r *RulePlan) HeadVars() []int {
	vars := make([]int, len(r.HeadExprs))
	for i, e := range r.HeadExprs {
		vars[i] = -1
		if ve, ok := e.(VarExpr); ok && ve.Idx < r.NumJoinVars {
			vars[i] = ve.Idx
		}
	}
	return vars
}

// planAtom plans a body atom of relation name whose stored column c binds
// join variable storedVars[c]: its plan columns are the stored columns
// sorted by variable, and Perm is nil when that is the stored order.
func planAtom(name string, storedVars []int) AtomPlan {
	perm := make([]int, len(storedVars))
	for i := range perm {
		perm[i] = i
	}
	slices.SortStableFunc(perm, func(x, y int) int { return storedVars[x] - storedVars[y] })
	a := AtomPlan{Name: name, Vars: make([]int, len(perm))}
	for i, c := range perm {
		a.Vars[i] = storedVars[c]
		if c != i {
			a.Perm = perm
		}
	}
	return a
}

// StoredVars returns the join variable each stored column of a binds: the
// inverse of the atom's planning.
func StoredVars(a AtomPlan) []int {
	vars := make([]int, len(a.Vars))
	for i, v := range a.Vars {
		c := i
		if a.Perm != nil {
			c = a.Perm[i]
		}
		vars[c] = v
	}
	return vars
}

// ReorderRule returns a copy of the plan with its join variables permuted
// into a new order: order[i] is the old slot of the variable that becomes
// slot i. Atom column permutations (secondary indices) are re-planned and
// every compiled expression is rewritten to the new slot numbering. The
// sampling-based optimizer (paper §3.2) uses this to evaluate candidate
// variable orders.
func ReorderRule(r *RulePlan, order []int) (*RulePlan, error) {
	n := r.NumJoinVars
	if len(order) != n {
		return nil, fmt.Errorf("compiler: order has %d entries for %d join variables", len(order), n)
	}
	seen := make([]bool, n)
	for _, old := range order {
		if old < 0 || old >= n || seen[old] {
			return nil, fmt.Errorf("compiler: order %v is not a permutation of join slots", order)
		}
		seen[old] = true
	}
	return reorder(r, order), nil
}

// reorder is ReorderRule for an order known to permute r's join slots.
func reorder(r *RulePlan, order []int) *RulePlan {
	// newSlot[old] = position of old slot in the new order; assigned
	// slots keep their positions.
	newSlot := make([]int, r.Slots)
	for s := range newSlot {
		newSlot[s] = s
	}
	for i, old := range order {
		newSlot[old] = i
	}

	out := *r
	out.VarNames = make([]string, r.Slots)
	for old, name := range r.VarNames {
		out.VarNames[newSlot[old]] = name
	}
	out.Atoms = make([]AtomPlan, len(r.Atoms))
	for ai, a := range r.Atoms {
		out.Atoms[ai] = planAtom(a.Name, remapSlots(StoredVars(a), newSlot))
	}

	out.Consts = make([]ConstBind, len(r.Consts))
	for i, c := range r.Consts {
		out.Consts[i] = ConstBind{Var: newSlot[c.Var], Val: c.Val}
	}
	out.Ranges = make([]RangeBind, len(r.Ranges))
	for i, rb := range r.Ranges {
		out.Ranges[i] = RangeBind{Var: newSlot[rb.Var], Op: rb.Op, Val: rb.Val}
	}
	out.NegAtoms = make([]GroundAtom, len(r.NegAtoms))
	for i, na := range r.NegAtoms {
		out.NegAtoms[i] = GroundAtom{Name: na.Name, Args: remapExprs(na.Args, newSlot)}
	}
	out.Filters = make([]FilterPlan, len(r.Filters))
	for i, f := range r.Filters {
		out.Filters[i] = FilterPlan{Op: f.Op, L: remapExpr(f.L, newSlot), R: remapExpr(f.R, newSlot)}
	}
	out.Assigns = make([]AssignPlan, len(r.Assigns))
	for i, a := range r.Assigns {
		out.Assigns[i] = AssignPlan{Slot: newSlot[a.Slot], E: remapExpr(a.E, newSlot)}
	}
	out.HeadExprs = remapExprs(r.HeadExprs, newSlot)
	if r.Agg != nil {
		agg := *r.Agg
		if agg.ArgSlot >= 0 {
			agg.ArgSlot = newSlot[agg.ArgSlot]
		}
		out.Agg = &agg
	}
	if r.Predict != nil {
		p := *r.Predict
		p.ValueSlot = newSlot[p.ValueSlot]
		p.FeatureSlot = newSlot[p.FeatureSlot]
		p.ValueKeySlots = remapSlots(p.ValueKeySlots, newSlot)
		p.FeatNameSlots = remapSlots(p.FeatNameSlots, newSlot)
		out.Predict = &p
	}
	return &out
}

func remapSlots(slots []int, newSlot []int) []int {
	out := make([]int, len(slots))
	for i, s := range slots {
		out[i] = newSlot[s]
	}
	return out
}

func remapExprs(es []Expr, newSlot []int) []Expr {
	out := make([]Expr, len(es))
	for i, e := range es {
		if e == nil {
			continue
		}
		out[i] = remapExpr(e, newSlot)
	}
	return out
}

func remapExpr(e Expr, newSlot []int) Expr {
	switch e := e.(type) {
	case VarExpr:
		return VarExpr{Idx: newSlot[e.Idx]}
	case ConstExpr:
		return e
	case ArithExpr:
		return ArithExpr{Op: e.Op, L: remapExpr(e.L, newSlot), R: remapExpr(e.R, newSlot)}
	case FuncGetExpr:
		return FuncGetExpr{Name: e.Name, Args: remapExprs(e.Args, newSlot)}
	case existsExpr:
		return existsExpr{name: e.name, args: remapExprs(e.args, newSlot)}
	default:
		return e
	}
}
