package core

import (
	"context"
	"fmt"

	"logicblox/internal/solver"
)

// Solve runs prescriptive analytics (paper §2.3.1): if the workspace's
// logic declares free second-order predicate variables
// (lang:solve:variable) and an objective (lang:solve:max/min), the
// program is grounded into an LP — or a MIP when the free predicate is
// integer-typed — solved, and the free predicates populated with the
// optimal values ("turning unknown values into known ones"). Derived
// views over the free predicates are re-materialized.
//
// The returned workspace satisfies the solver-facing constraints by
// construction (up to floating-point tolerance), so they are not
// re-checked here.
func (ws *Workspace) Solve() (*Workspace, *solver.Solution, error) {
	if ws.prog.Solve == nil || len(ws.prog.Solve.Variables) == 0 {
		return nil, nil, fmt.Errorf("solve: no lang:solve:variable declarations in workspace logic")
	}
	g, err := solver.Ground(ws.prog, ws.relations())
	if err != nil {
		return nil, nil, err
	}
	rels, sol, err := g.Solve()
	if err != nil {
		return nil, sol, err
	}
	out := ws.clone()
	dirty := map[string]bool{}
	for pred, rel := range rels {
		out.base = out.base.Set(pred, rel)
		dirty[pred] = true
	}
	res, _, err := out.settle(context.Background(), ws, ws.prog, dirty, nil, nil, false)
	return res, sol, err
}
