package main

import (
	"fmt"
	"time"

	"logicblox/internal/engine"
	"logicblox/internal/obs"
	"logicblox/internal/optimizer"
	"logicblox/internal/relation"
	"logicblox/internal/tuple"
)

// runAdaptive measures what the sampling optimizer (paper §3.2) buys one
// evaluation: a three-atom join whose sampled order differs from the
// compiler's (the tiny t makes starting at c far cheaper) is evaluated in
// a fresh engine context — as every transaction builds one — once in the
// compiler's order and once in ChooseOrder's. Each row reports the
// sampling time, the evaluation time, the permuted indices the order
// needed, and the time of a second evaluation in the same context, whose
// indices are already built; the two derived relations must be equal.
func runAdaptive(quick bool) {
	n := int64(20000)
	if quick {
		n = 5000
	}
	prog := mustCompile(`q(a, b, c) <- r(a, b), s(b, c), t(c).`)
	rule := prog.Rules[0]
	var rs, ss []tuple.Tuple
	for i := int64(0); i < n; i++ {
		rs = append(rs, tuple.Ints(i%800, i%1100))
		ss = append(ss, tuple.Ints(i%1100, i%1400))
	}
	base := map[string]relation.Relation{
		"r": relation.FromTuples(2, rs),
		"s": relation.FromTuples(2, ss),
		"t": relation.FromTuples(1, []tuple.Tuple{tuple.Ints(17)}),
	}

	fmt.Printf("%-10s %-8s %-10s %-12s %-12s %-9s %-12s\n", "order", "|r|=|s|", "q tuples", "sampling", "evaluation", "permutes", "re-eval")
	var want relation.Relation
	for _, sampled := range []bool{false, true} {
		reg := obs.NewRegistry()
		ctx := engine.NewContext(prog, base, engine.Options{Obs: reg})
		plan, name := rule, "compiler"
		var dSample time.Duration
		if sampled {
			t0 := time.Now()
			res, err := optimizer.ChooseOrder(rule, ctx.Relation, optimizer.Options{})
			if err != nil {
				panic(err)
			}
			dSample = time.Since(t0)
			plan, name = res.Plan, "sampled"
		}
		t0 := time.Now()
		got, err := ctx.EvalRule(plan, nil)
		if err != nil {
			panic(err)
		}
		dEval := time.Since(t0)
		if !sampled {
			want = got
		} else if !got.Equal(want) {
			panic(fmt.Sprintf("sampled order derived %d tuples, compiler's order %d", got.Len(), want.Len()))
		}
		permutes := reg.Snapshot().Counters["engine.index.permutes"]
		t0 = time.Now()
		if _, err := ctx.EvalRule(plan, nil); err != nil {
			panic(err)
		}
		dWarm := time.Since(t0)
		fmt.Printf("%-10s %-8d %-10d %-12v %-12v %-9d %-12v\n", name, n, got.Len(),
			dSample.Round(time.Microsecond), dEval.Round(time.Microsecond), permutes, dWarm.Round(time.Microsecond))
	}
	fmt.Println("claim check: both orders derive the same q. The sampled order's join is cheaper once its")
	fmt.Println("indices exist (re-eval), but a fresh context rebuilds the permuted r and s it reads.")
}
