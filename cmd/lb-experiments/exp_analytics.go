package main

import (
	"fmt"
	"time"

	"logicblox/internal/engine"
	"logicblox/internal/ml"
	"logicblox/internal/relation"
	"logicblox/internal/solver"
	"logicblox/internal/tuple"
	"logicblox/internal/workload"
)

// runSolve measures prescriptive analytics (paper §2.3.1): grounding the
// Figure 2 assortment LP at growing product counts and solving it.
func runSolve(quick bool) {
	sizes := []int{10, 100, 1000}
	if quick {
		sizes = []int{10, 100}
	}
	src := `
		spacePerProd[p] = v -> Product(p), float(v).
		profitPerProd[p] = v -> Product(p), float(v).
		minStock[p] = v -> Product(p), float(v).
		maxStock[p] = v -> Product(p), float(v).
		maxShelf[] = v -> float(v).
		Stock[p] = v -> Product(p), float(v).
		totalShelf[] = u <- agg<<u = sum(z)>> Stock[p] = x, spacePerProd[p] = y, z = x * y.
		totalProfit[] = u <- agg<<u = sum(z)>> Stock[p] = x, profitPerProd[p] = y, z = x * y.
		Product(p) -> Stock[p] >= minStock[p].
		Product(p) -> Stock[p] <= maxStock[p].
		totalShelf[] = u, maxShelf[] = v -> u <= v.
		lang:solve:variable(` + "`Stock" + `).
		lang:solve:max(` + "`totalProfit" + `).`
	prog := mustCompile(src)
	fmt.Printf("%-10s %-8s %-12s %s\n", "products", "vars", "ground", "solve")
	for _, n := range sizes {
		retail := workload.Generate(workload.Config{Products: n, Stores: 1, Weeks: 1, Seed: 5})
		rels := retail.Relations()
		rels["maxShelf"] = relation.FromTuples(1, []tuple.Tuple{{tuple.Float(float64(n) * 10)}})
		t0 := time.Now()
		g, err := solver.Ground(prog, rels)
		if err != nil {
			panic(err)
		}
		dGround := time.Since(t0)
		t0 = time.Now()
		_, sol, err := g.Solve()
		if err != nil {
			panic(err)
		}
		dSolve := time.Since(t0)

		fmt.Printf("%-10d %-8d %-12v %-12v  (obj %.0f)\n",
			n, g.NumVars(), dGround.Round(time.Microsecond), dSolve.Round(time.Microsecond), sol.Objective)
	}
}

// runPredict measures predictive analytics (paper §2.3.2): learning one
// logistic model per store with predict rules and evaluating accuracy.
func runPredict(quick bool) {
	stores, customers := 100, 40
	if quick {
		stores, customers = 30, 20
	}
	buy, feat := workload.ClassificationSet(stores, customers, 0.1, 13)
	src := `
		SM[s] = m <- predict<<m = logist(v|f)>> Buy[s, c] = v, Feature[s, n] = f.
		Pred[s] = v <- predict<<v = eval(m|f)>> SM[s] = m, Feature[s, n] = f.`
	prog := mustCompile(src)
	models := ml.NewRegistry()
	ctx := engine.NewContext(prog, map[string]relation.Relation{
		"Buy": buy, "Feature": feat,
	}, engine.Options{Models: models})
	t0 := time.Now()
	if err := ctx.EvalAll(); err != nil {
		panic(err)
	}
	d := time.Since(t0)

	// Accuracy: per-store majority label vs thresholded prediction.
	majority := map[string]float64{}
	counts := map[string]int{}
	buy.ForEach(func(t tuple.Tuple) bool {
		majority[t[0].AsString()] += t[2].AsFloat()
		counts[t[0].AsString()]++
		return true
	})
	correct, total := 0, 0
	ctx.Relation("Pred").ForEach(func(t tuple.Tuple) bool {
		s := t[0].AsString()
		pred := t[1].AsFloat() > 0.5
		actual := majority[s]/float64(counts[s]) > 0.5
		if pred == actual {
			correct++
		}
		total++
		return true
	})
	fmt.Printf("stores: %d, examples: %d, models trained: %d, wall time: %v\n",
		stores, buy.Len(), models.Len(), d.Round(time.Millisecond))
	fmt.Printf("per-store majority-label agreement: %d/%d (%.0f%%)\n",
		correct, total, 100*float64(correct)/float64(total))
	if float64(correct)/float64(total) < 0.8 {
		panic("predictive accuracy collapsed")
	}
}
