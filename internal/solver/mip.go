package solver

import (
	"math"
	"slices"

	"logicblox/internal/obs"
)

// SolveMIP maximizes the problem with integrality on the variables marked
// in p.Integer, using LP-based branch and bound with best-bound pruning.
// When the free predicate of a LogiQL program is re-declared over
// integers, the system reformulates and routes here (paper §2.3.1).
func SolveMIP(p *Problem) (*Solution, error) {
	relaxed, err := SolveLP(p)
	if err != nil {
		return nil, err
	}
	if relaxed.Status != Optimal {
		return relaxed, nil
	}
	best := &Solution{Status: Infeasible, Objective: math.Inf(-1)}
	var nodes int64
	err = branch(p, relaxed, best, 0, &nodes)
	obs.Default().Counter("solver.bnb.nodes").Add(nodes)
	if err != nil {
		return nil, err
	}
	if best.Status != Optimal {
		return &Solution{Status: Infeasible}, nil
	}
	return best, nil
}

const intTol = 1e-6

// branch explores the subtree under relaxed, the LP optimum of p, keeping
// in best the best integral solution found.
func branch(p *Problem, relaxed *Solution, best *Solution, depth int, nodes *int64) error {
	*nodes++
	if depth > 200 {
		return nil
	}
	if relaxed.Status != Optimal {
		return nil
	}
	// Best-bound pruning: the relaxation bounds any integer solution below.
	if relaxed.Objective <= best.Objective+intTol {
		return nil
	}
	// Find the most fractional integral variable.
	frac := -1
	fracDist := 0.0
	for i := 0; i < p.NumVars && i < len(p.Integer); i++ {
		if !p.Integer[i] {
			continue
		}
		f := relaxed.X[i] - math.Floor(relaxed.X[i])
		d := math.Min(f, 1-f)
		if d > intTol && d > fracDist {
			fracDist = d
			frac = i
		}
	}
	if frac < 0 {
		// Integral: round and record.
		if relaxed.Objective > best.Objective {
			x := append([]float64(nil), relaxed.X...)
			for i := range x {
				if i < len(p.Integer) && p.Integer[i] {
					x[i] = math.Round(x[i])
				}
			}
			*best = Solution{Status: Optimal, X: x, Objective: relaxed.Objective}
		}
		return nil
	}

	floorV := math.Floor(relaxed.X[frac])
	for _, bound := range []LinConstraint{
		{Coeffs: map[int]float64{frac: 1}, Op: LE, RHS: floorV},     // x ≤ ⌊v⌋
		{Coeffs: map[int]float64{frac: 1}, Op: GE, RHS: floorV + 1}, // x ≥ ⌊v⌋+1
	} {
		sub := *p
		sub.Constraints = append(slices.Clip(p.Constraints), bound)
		rel, err := SolveLP(&sub)
		if err != nil {
			return err
		}
		if err := branch(&sub, rel, best, depth+1, nodes); err != nil {
			return err
		}
	}
	return nil
}
