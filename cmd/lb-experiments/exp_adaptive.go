package main

import (
	"fmt"
	"time"

	"logicblox/internal/core"
	"logicblox/internal/obs"
	"logicblox/internal/tuple"
)

// runAdaptive measures the feedback-driven optimizer loop: repeated exec
// transactions over the same logic run the compiler's static join order
// without a plan store, while the adaptive plan store samples once and
// reuses the cached order until observed costs or input cardinalities
// drift. The table reports, per variant, the number of ChooseOrder
// sampling runs and the total transaction time for the same workload.
func runAdaptive(quick bool) {
	txCount := 200
	if quick {
		txCount = 40
	}
	type variant struct {
		name  string
		setup func(ws *core.Workspace) *core.Workspace
	}
	variants := []variant{
		{"static", func(ws *core.Workspace) *core.Workspace { return ws }},
		{"plan-cache", func(ws *core.Workspace) *core.Workspace { return ws.WithAdaptiveOptimizer(true) }},
	}
	fmt.Printf("%-18s %-10s %-14s %-14s %-12s\n", "variant", "txs", "sampling runs", "cache hits", "total time")
	for _, v := range variants {
		reg := obs.NewRegistry()
		ws := adaptiveWorkload(v.setup(core.NewWorkspace().WithObserver(reg)))
		t0 := time.Now()
		for i := 0; i < txCount; i++ {
			res, err := ws.Exec(fmt.Sprintf("+r(%d, %d).", 100000+i, i%50))
			if err != nil {
				panic(err)
			}
			ws = res.Workspace
		}
		d := time.Since(t0)
		snap := reg.Snapshot()
		fmt.Printf("%-18s %-10d %-14d %-14d %-12s\n", v.name, txCount,
			snap.Counters["optimizer.choose_order.calls"], snap.Counters["optimizer.plan.hits"], d.Round(time.Microsecond))
	}
	fmt.Println("claim check: the plan cache pays a handful of cold sampling runs, then every transaction reuses")
	fmt.Println("the sampled order; its sampling runs stay constant as transactions grow. Total time also")
	fmt.Println("counts the permuted indices a non-stored order rebuilds in every transaction.")
}

// adaptiveWorkload installs a three-atom join whose best order differs
// from the static heuristic (tiny t makes starting at c far cheaper) and
// loads enough data that sampling is measurable.
func adaptiveWorkload(ws *core.Workspace) *core.Workspace {
	ws, err := ws.AddBlock("q", `q(a, b, c) <- r(a, b), s(b, c), t(c).`)
	if err != nil {
		panic(err)
	}
	var rs, ss []tuple.Tuple
	for i := int64(0); i < 20000; i++ {
		rs = append(rs, tuple.Ints(i%800, i%1100))
		ss = append(ss, tuple.Ints(i%1100, i%1400))
	}
	if ws, err = ws.Load("r", rs); err != nil {
		panic(err)
	}
	if ws, err = ws.Load("s", ss); err != nil {
		panic(err)
	}
	if ws, err = ws.Load("t", []tuple.Tuple{tuple.Ints(17)}); err != nil {
		panic(err)
	}
	return ws
}
