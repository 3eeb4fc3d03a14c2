// Package solver implements the prescriptive-analytics substrate
// (paper §2.3.1): a from-scratch two-phase primal simplex LP solver, a
// branch-and-bound MIP solver on top of it, and the grounding machinery
// that translates LogiQL integrity constraints over free second-order
// predicate variables into solver input. The paper uses Gurobi/SCIP
// behind the same interface; any correct LP/MIP solver exercises the same
// grounding code path (see DESIGN.md substitutions).
package solver

import (
	"fmt"
	"math"

	"logicblox/internal/obs"
)

// ConstraintOp relates a linear expression to its right-hand side.
type ConstraintOp byte

// Constraint operators.
const (
	LE ConstraintOp = '<'
	GE ConstraintOp = '>'
	EQ ConstraintOp = '='
)

// LinConstraint is Σ Coeffs[i]·x_i  op  RHS.
type LinConstraint struct {
	Coeffs map[int]float64
	Op     ConstraintOp
	RHS    float64
}

// Problem is a linear program: maximize Objectiveᵀx subject to the
// constraints, with x_i ≥ 0 unless Free[i].
type Problem struct {
	NumVars     int
	Objective   []float64 // maximize
	Constraints []LinConstraint
	Free        []bool // free (unbounded below) variables, split internally
	Integer     []bool // integrality constraints (MIP only)
}

// Status reports the outcome of a solve.
type Status int

// Solve outcomes.
const (
	Optimal Status = iota
	Infeasible
	Unbounded
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	default:
		return "unknown"
	}
}

// Solution is the result of a solve.
type Solution struct {
	Status    Status
	X         []float64
	Objective float64
}

const eps = 1e-9

// SolveLP maximizes the problem's objective with the two-phase primal
// simplex method on a dense tableau.
func SolveLP(p *Problem) (*Solution, error) {
	if p.NumVars == 0 {
		return &Solution{Status: Optimal}, nil
	}
	// Split free variables: x = x⁺ − x⁻.
	n := p.NumVars
	extra := 0
	negIdx := make([]int, n) // index of x⁻ for free vars, -1 otherwise
	for i := range negIdx {
		negIdx[i] = -1
	}
	if p.Free != nil {
		for i := 0; i < n; i++ {
			if p.Free[i] {
				negIdx[i] = n + extra
				extra++
			}
		}
	}
	cols := n + extra

	type row struct {
		a   []float64
		rhs float64
	}
	addRow := func(coeffs map[int]float64, rhs float64, flip bool) row {
		r := row{a: make([]float64, cols), rhs: rhs}
		for i, c := range coeffs {
			if i < 0 || i >= n {
				continue
			}
			r.a[i] = c
			if negIdx[i] >= 0 {
				r.a[negIdx[i]] = -c
			}
		}
		if flip {
			for j := range r.a {
				r.a[j] = -r.a[j]
			}
			r.rhs = -r.rhs
		}
		return r
	}
	// Normalize all constraints to Σa·x ≤ b or equality; represent ≥ as
	// flipped ≤; keep equalities marked.
	type normRow struct {
		row
		eq bool
	}
	var norm []normRow
	for _, c := range p.Constraints {
		switch c.Op {
		case LE:
			norm = append(norm, normRow{addRow(c.Coeffs, c.RHS, false), false})
		case GE:
			norm = append(norm, normRow{addRow(c.Coeffs, c.RHS, true), false})
		case EQ:
			norm = append(norm, normRow{addRow(c.Coeffs, c.RHS, false), true})
		default:
			return nil, fmt.Errorf("solver: unknown constraint op %q", c.Op)
		}
	}

	m := len(norm)
	// Tableau layout: structural vars (cols) + slack per inequality +
	// artificial per row needing one.
	slackOf := make([]int, m)
	numSlack := 0
	for i, r := range norm {
		if !r.eq {
			slackOf[i] = cols + numSlack
			numSlack++
		} else {
			slackOf[i] = -1
		}
	}
	artOf := make([]int, m)
	numArt := 0
	total := cols + numSlack
	// Ensure nonnegative RHS, then decide artificials.
	for i := range norm {
		if norm[i].rhs < 0 {
			for j := range norm[i].a {
				norm[i].a[j] = -norm[i].a[j]
			}
			norm[i].rhs = -norm[i].rhs
			if slackOf[i] >= 0 {
				// Slack coefficient becomes -1: need an artificial.
				slackOf[i] = -slackOf[i] - 2 // mark negative slack, encode
			}
		}
	}
	for i := range norm {
		if slackOf[i] < 0 { // equality or negative slack: artificial needed
			artOf[i] = total + numArt
			numArt++
		} else {
			artOf[i] = -1
		}
	}
	total += numArt

	// Build tableau: m rows × (total + 1) columns (last = RHS).
	t := make([][]float64, m)
	basis := make([]int, m)
	for i, r := range norm {
		t[i] = make([]float64, total+1)
		copy(t[i], r.a)
		t[i][total] = r.rhs
		switch {
		case slackOf[i] >= 0:
			t[i][slackOf[i]] = 1
			basis[i] = slackOf[i]
		default:
			if s := -slackOf[i] - 2; s >= 0 && !norm[i].eq {
				t[i][s] = -1 // surplus variable
			}
			t[i][artOf[i]] = 1
			basis[i] = artOf[i]
		}
	}

	// Phase 1: minimize sum of artificials. The working row holds the
	// phase-1 reduced costs z_j − c_j = (Σ artificial rows)_j for
	// structural columns; artificial columns are barred from re-entering.
	if numArt > 0 {
		obj := make([]float64, total+1)
		for i := range norm {
			if artOf[i] >= 0 {
				for j := 0; j <= total; j++ {
					obj[j] += t[i][j]
				}
			}
		}
		artForbidden := make([]bool, total)
		for i := range norm {
			if artOf[i] >= 0 {
				artForbidden[artOf[i]] = true
			}
		}
		if status := pivotLoop(t, basis, obj, total, artForbidden); status == Unbounded {
			return &Solution{Status: Infeasible}, nil
		}
		if obj[total] > eps {
			return &Solution{Status: Infeasible}, nil
		}
		// Drive remaining artificials out of the basis if possible.
		for i := range basis {
			if basis[i] >= total-numArt+0 && basis[i] >= cols+numSlack {
				for j := 0; j < cols+numSlack; j++ {
					if math.Abs(t[i][j]) > eps {
						pivot(t, basis, i, j)
						break
					}
				}
			}
		}
	}

	// Phase 2: maximize the real objective. The working row holds the
	// reduced costs c_j − z_j; a variable with a positive entry improves
	// the objective and may enter the basis.
	obj := make([]float64, total+1)
	for i := 0; i < n; i++ {
		obj[i] = objCoeff(p, i)
		if negIdx[i] >= 0 {
			obj[negIdx[i]] = -objCoeff(p, i)
		}
	}
	for i, b := range basis {
		if math.Abs(obj[b]) > eps {
			f := obj[b]
			for j := 0; j <= total; j++ {
				obj[j] -= f * t[i][j]
			}
		}
	}
	forbidden := make([]bool, total)
	for i := cols + numSlack; i < total; i++ {
		forbidden[i] = true // artificials must not re-enter
	}
	if status := pivotLoop(t, basis, obj, total, forbidden); status == Unbounded {
		return &Solution{Status: Unbounded}, nil
	}

	x := make([]float64, n)
	vals := make([]float64, total)
	for i, b := range basis {
		vals[b] = t[i][total]
	}
	for i := 0; i < n; i++ {
		x[i] = vals[i]
		if negIdx[i] >= 0 {
			x[i] -= vals[negIdx[i]]
		}
	}
	objV := 0.0
	for i := 0; i < n; i++ {
		objV += objCoeff(p, i) * x[i]
	}
	return &Solution{Status: Optimal, X: x, Objective: objV}, nil
}

func objCoeff(p *Problem, i int) float64 {
	if i < len(p.Objective) {
		return p.Objective[i]
	}
	return 0
}

// pivotLoop runs Bland's-rule simplex pivoting on a minimization tableau
// whose objective row is obj (minimizing obj means driving positive
// entries; we use the convention that we pivot while some obj[j] > eps).
func pivotLoop(t [][]float64, basis []int, obj []float64, total int, forbidden []bool) Status {
	m := len(t)
	pivots := 0
	defer func() { obs.Default().Counter("solver.simplex.pivots").Add(int64(pivots)) }()
	for iter := 0; iter < 20000; iter++ {
		// Entering column: Bland's rule (first positive reduced cost).
		col := -1
		for j := 0; j < total; j++ {
			if forbidden != nil && forbidden[j] {
				continue
			}
			if obj[j] > eps {
				col = j
				break
			}
		}
		if col < 0 {
			return Optimal
		}
		// Leaving row: minimum ratio, ties by smallest basis index.
		row := -1
		best := math.Inf(1)
		for i := 0; i < m; i++ {
			if t[i][col] > eps {
				ratio := t[i][total] / t[i][col]
				if ratio < best-eps || (ratio < best+eps && (row < 0 || basis[i] < basis[row])) {
					best = ratio
					row = i
				}
			}
		}
		if row < 0 {
			return Unbounded
		}
		pivots++
		pivot(t, basis, row, col)
		f := obj[col]
		if math.Abs(f) > eps {
			for j := 0; j <= total; j++ {
				obj[j] -= f * t[row][j]
			}
		}
	}
	return Optimal // iteration cap: return current (near-optimal) basis
}

// pivot makes column col basic in row row.
func pivot(t [][]float64, basis []int, row, col int) {
	p := t[row][col]
	for j := range t[row] {
		t[row][j] /= p
	}
	for i := range t {
		if i == row {
			continue
		}
		f := t[i][col]
		if math.Abs(f) < eps {
			continue
		}
		for j := range t[i] {
			t[i][j] -= f * t[row][j]
		}
	}
	basis[row] = col
}
