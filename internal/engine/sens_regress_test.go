package engine_test

import (
	"testing"

	"logicblox/internal/compiler"
	"logicblox/internal/engine"
	"logicblox/internal/ivm"
	"logicblox/internal/lftj"
	"logicblox/internal/parser"
	"logicblox/internal/relation"
	"logicblox/internal/tuple"
)

// TestSensitivityPermutedIndexRegression is the distilled failing input
// the differential harness found once its delta generator was made
// deterministic (generate(34)): rule d0 joins p1 with itself, and under
// the variable order of the time one p1 atom went through a permuted
// secondary index. Sensitivity intervals for that atom were recorded with
// prefixes in plan-column order but probed with stored-order tuples, so
// deleting p1 facts was reported as unaffected (a sensitivity-guided
// maintainer kept two stale tuples alive at the third batch below). The
// fix maps intervals back to stored columns via lftj.Atom.Cols /
// Interval.Cols. Transaction repair (paper §3.4) probes the same
// intervals, so d0's trace over the state before the third batch must
// report its p1 deletions as affected, and so must a trace through an atom
// today's planner does permute.
func TestSensitivityPermutedIndexRegression(t *testing.T) {
	p := generate(34)
	prog := compileGen(t, p)
	cur := p.base
	for _, d := range []map[string]ivm.Delta{
		{"p0": {Ins: []tuple.Tuple{{tuple.Int(1)}}, Del: []tuple.Tuple{{tuple.Int(2)}}},
			"p2": {Ins: []tuple.Tuple{{tuple.Int(0)}}, Del: []tuple.Tuple{{tuple.Int(4)}}}},
		{"p2": {Ins: []tuple.Tuple{{tuple.Int(2)}, {tuple.Int(0)}, {tuple.Int(3)}}, Del: []tuple.Tuple{{tuple.Int(3)}}}},
	} {
		cur = applyToBase(cur, d)
	}
	deleted := []tuple.Tuple{{tuple.Int(6), tuple.Int(5)}, {tuple.Int(3), tuple.Int(4)}}

	ctx := engine.NewContext(prog, cur, engine.Options{})
	if err := ctx.EvalAll(); err != nil {
		t.Fatal(err)
	}
	var d0 []*compiler.RulePlan
	for _, stratum := range prog.Strata {
		if stratum[0].HeadName == "d0" {
			d0 = stratum
		}
	}
	if d0 == nil {
		t.Fatalf("no d0 stratum in\n%s", p.source())
	}
	idx := lftj.NewSensitivityIndex()
	ctx.SetSensitivityIndex(idx)
	if err := ctx.ReevalStratum(nil, d0); err != nil {
		t.Fatal(err)
	}
	for _, tup := range deleted {
		if !cur["p1"].Contains(tup) {
			t.Fatalf("p1%v is not a fact before the third batch", tup)
		}
		if !idx.Affected("p1", tup) {
			t.Errorf("deleting p1%v reported unaffected by d0's trace\n%s", tup, p.source())
		}
	}

	// s(y, x) is read in the order (x, y) that r fixes: through a permuted
	// index whose intervals must still cover s's stored tuples.
	parsed, err := parser.Parse(`q(x, y) <- r(x, y), s(y, x).`)
	if err != nil {
		t.Fatal(err)
	}
	q, err := compiler.Compile(parsed)
	if err != nil {
		t.Fatal(err)
	}
	if perm := q.Rules[0].Atoms[1].Perm; len(perm) == 0 {
		t.Fatalf("s(y, x) is not read through a permuted index: %+v", q.Rules[0].Atoms)
	}
	qctx := engine.NewContext(q, map[string]relation.Relation{
		"r": relation.FromTuples(2, []tuple.Tuple{tuple.Ints(1, 2), tuple.Ints(3, 4)}),
		"s": relation.FromTuples(2, []tuple.Tuple{tuple.Ints(2, 1), tuple.Ints(4, 3), tuple.Ints(9, 8)}),
	}, engine.Options{})
	idx = lftj.NewSensitivityIndex()
	qctx.SetSensitivityIndex(idx)
	if err := qctx.EvalAll(); err != nil {
		t.Fatal(err)
	}
	for _, tup := range []tuple.Tuple{tuple.Ints(2, 1), tuple.Ints(4, 3)} {
		if !idx.Affected("s", tup) {
			t.Errorf("deleting s%v reported unaffected by q's trace", tup)
		}
	}
}
