package main

import (
	"fmt"
	"math/rand"
	"time"

	"logicblox/internal/compiler"
	"logicblox/internal/core"
	"logicblox/internal/graphgen"
	"logicblox/internal/ivm"
	"logicblox/internal/parser"
	"logicblox/internal/relation"
	"logicblox/internal/treap"
	"logicblox/internal/tuple"
)

// runBranch validates the paper's T4 claim: branching a workspace is O(1)
// (the paper measures 80,000 branches per core per second); branch cost
// must not grow with database size.
func runBranch(quick bool) {
	sizes := []int{1_000, 10_000, 100_000}
	if !quick {
		sizes = append(sizes, 1_000_000)
	}
	fmt.Printf("%-12s %-16s %-14s\n", "facts", "branches/sec", "ns/branch")
	for _, n := range sizes {
		ws := core.NewWorkspace()
		ws, err := ws.AddBlock("s", `fact(x, y) -> int(x), int(y).`)
		if err != nil {
			panic(err)
		}
		var ts []tuple.Tuple
		for i := 0; i < n; i++ {
			ts = append(ts, tuple.Ints(int64(i), int64(i%97)))
		}
		ws, err = ws.Load("fact", ts)
		if err != nil {
			panic(err)
		}
		db := core.NewDatabase()
		if err := db.Commit(core.DefaultBranch, ws); err != nil {
			panic(err)
		}
		iters := 200_000
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			name := fmt.Sprintf("b%d", i)
			if err := db.Branch(core.DefaultBranch, name); err != nil {
				panic(err)
			}
			if err := db.DeleteBranch(name); err != nil {
				panic(err)
			}
		}
		d := time.Since(t0)
		perSec := float64(iters) / d.Seconds()
		fmt.Printf("%-12d %-16.0f %-14.0f\n", n, perSec, float64(d.Nanoseconds())/float64(iters))
	}
	fmt.Println("claim check: rate is independent of database size (O(1) branch); the paper cites 80k/core/s.")
}

// runIVM compares the maintenance strategies on a triangle view under
// delta batches of growing size (paper T3/§3.2: maintenance work should
// track the size of the change, not the database size).
func runIVM(quick bool) {
	nEdges := 30000
	if quick {
		nEdges = 6000
	}
	edges := graphgen.Canonical(graphgen.PreferentialAttachment(nEdges/3, 3, 7))
	base := map[string]relation.Relation{"e": graphgen.ToRelation(edges)}
	// The triangle view over the changing edges plus several views over
	// predicates that never change in this experiment: a maintenance pass
	// that re-derives them is doing wasted work.
	src := `tri(x, y, z) <- e(x, y), e(y, z), e(x, z).`
	otherViews := 8
	for i := 0; i < otherViews; i++ {
		src += fmt.Sprintf("\nv%d(a, b) <- u%d(a, b), w%d(b, a).", i, i, i)
	}
	prog := mustCompile(src)
	for i := 0; i < otherViews; i++ {
		other := relation.New(2)
		for j := int64(0); j < 2000; j++ {
			other = other.Insert(tuple.Ints(j, j+int64(i)+1))
		}
		base[fmt.Sprintf("u%d", i)] = other
		base[fmt.Sprintf("w%d", i)] = other.Permuted([]int{1, 0})
	}

	deltaSizes := []int{1, 10, 100, 1000}
	modes := []ivm.Mode{ivm.Recompute, ivm.Counting, ivm.DRed}
	fmt.Printf("%-8s", "Δ size")
	for _, m := range modes {
		fmt.Printf(" %-18s", m)
	}
	fmt.Println()
	rng := rand.New(rand.NewSource(3))
	for _, ds := range deltaSizes {
		fmt.Printf("%-8d", ds)
		for _, mode := range modes {
			m, err := ivm.NewMaintainer(prog, cloneRels(base), mode)
			if err != nil {
				panic(err)
			}
			// Build one delta batch: half inserts, half deletes.
			var d ivm.Delta
			for i := 0; i < ds; i++ {
				if i%2 == 0 {
					d.Ins = append(d.Ins, tuple.Ints(rng.Int63n(5000)+10_000, rng.Int63n(5000)+10_000))
				} else {
					e := edges[rng.Intn(len(edges))]
					d.Del = append(d.Del, tuple.Ints(e.U, e.V))
				}
			}
			t0 := time.Now()
			if _, err := m.Apply(map[string]ivm.Delta{"e": d}); err != nil {
				panic(err)
			}
			fmt.Printf(" %-11v sk=%-4d", time.Since(t0).Round(time.Microsecond), m.Stats.RulesSkipped)
		}
		fmt.Println()
	}
	fmt.Println("shape check: incremental modes scale with Δ (not |e|); every mode skips")
	fmt.Println("the untouched views (sk column), and recompute re-derives the touched one whole.")

	// Part 2: a selective view. sel joins e against a tiny hot set, so
	// changes outside the hot region derive nothing: the delta rules find
	// no binding, while recompute still re-derives the whole view.
	fmt.Println("\nselective view sel(x,y) <- hot(x), e(x,y); deltas outside the hot region:")
	selProg := mustCompile(`sel(x, y) <- hot(x), e(x, y).`)
	hot := relation.New(1)
	for i := int64(0); i < 20; i++ {
		hot = hot.Insert(tuple.Ints(i))
	}
	selBase := map[string]relation.Relation{"e": base["e"], "hot": hot}
	fmt.Printf("%-8s", "Δ size")
	for _, m := range modes {
		fmt.Printf(" %-18s", m)
	}
	fmt.Println()
	for _, ds := range deltaSizes {
		fmt.Printf("%-8d", ds)
		for _, mode := range modes {
			m, err := ivm.NewMaintainer(selProg, cloneRels(selBase), mode)
			if err != nil {
				panic(err)
			}
			var d ivm.Delta
			for i := 0; i < ds; i++ {
				// All changes land far outside the hot region.
				d.Ins = append(d.Ins, tuple.Ints(rng.Int63n(5000)+50_000, rng.Int63n(5000)))
			}
			t0 := time.Now()
			if _, err := m.Apply(map[string]ivm.Delta{"e": d}); err != nil {
				panic(err)
			}
			fmt.Printf(" %-11v sk=%-4d", time.Since(t0).Round(time.Microsecond), m.Stats.RulesSkipped)
		}
		fmt.Println()
	}
	fmt.Println("shape check: counting and DRed run delta joins that scale with Δ;")
	fmt.Println("recompute re-derives the whole view.")
}

// runLive measures live programming (paper §3.3): installing one view in
// a workspace with many unrelated views must cost only that view's
// derivation, not a full re-evaluation.
func runLive(quick bool) {
	counts := []int{10, 50, 200}
	if quick {
		counts = []int{10, 50}
	}
	fmt.Printf("%-12s %-18s %-18s\n", "views", "addblock (incr)", "rebuild (full)")
	for _, n := range counts {
		ws := core.NewWorkspace()
		var err error
		ws, err = ws.AddBlock("schema", `src(x, y) -> int(x), int(y).`)
		if err != nil {
			panic(err)
		}
		var ts []tuple.Tuple
		for i := 0; i < 3000; i++ {
			ts = append(ts, tuple.Ints(int64(i%300), int64(i)))
		}
		ws, err = ws.Load("src", ts)
		if err != nil {
			panic(err)
		}
		blocks := map[string]string{}
		for i := 0; i < n; i++ {
			name := fmt.Sprintf("view%03d", i)
			srcB := fmt.Sprintf("v%03d(x) <- src(x, y), y > %d.", i, i)
			blocks[name] = srcB
			ws, err = ws.AddBlock(name, srcB)
			if err != nil {
				panic(err)
			}
		}
		// Incremental: add one more view.
		t0 := time.Now()
		ws2, err := ws.AddBlock("extra", `extra(x) <- src(x, y), y > 1500.`)
		if err != nil {
			panic(err)
		}
		dIncr := time.Since(t0)
		_ = ws2

		// Full rebuild: reinstall everything from scratch.
		t0 = time.Now()
		fresh := core.NewWorkspace()
		fresh, _ = fresh.AddBlock("schema", `src(x, y) -> int(x), int(y).`)
		fresh, _ = fresh.Load("src", ts)
		for name, srcB := range blocks {
			fresh, err = fresh.AddBlock(name, srcB)
			if err != nil {
				panic(err)
			}
		}
		fresh, _ = fresh.AddBlock("extra", `extra(x) <- src(x, y), y > 1500.`)
		dFull := time.Since(t0)
		fmt.Printf("%-12d %-18v %-18v\n", n, dIncr.Round(time.Microsecond), dFull.Round(time.Microsecond))
	}
	fmt.Println("shape check: addblock cost is flat in the number of installed views; rebuild grows linearly.")
}

// runTreap measures the persistent treap substrate (paper §3.1): set
// operations in O(m log(n/m)) and sharing-pruned equality.
func runTreap(quick bool) {
	sizes := []int{10_000, 100_000}
	if !quick {
		sizes = append(sizes, 1_000_000)
	}
	ops := &treap.Ops[int, int]{
		Compare: func(a, b int) int { return a - b },
		Hash: func(k int) uint64 {
			h := uint64(k) * 0x9e3779b97f4a7c15
			h ^= h >> 32
			h *= 0xbf58476d1ce4e5b9
			return h ^ h>>29
		},
	}
	fmt.Printf("%-10s %-14s %-16s %-18s %-20s\n", "n", "union(n,n/10)", "diff-after-1-ins", "equal (shared)", "equal (rebuilt)")
	for _, n := range sizes {
		big := treap.New[int, int](ops)
		for i := 0; i < n; i++ {
			big = big.Insert(i*2, i)
		}
		small := treap.New[int, int](ops)
		for i := 0; i < n/10; i++ {
			small = small.Insert(i*20+1, i)
		}
		t0 := time.Now()
		_ = big.Union(small)
		dUnion := time.Since(t0)

		mod := big.Insert(-1, 0)
		t0 = time.Now()
		count := 0
		big.DiffWith(mod, nil, func(int, int) { count++ }, func(int, int) { count++ }, nil)
		dDiff := time.Since(t0)

		branch := big // O(1) branch
		t0 = time.Now()
		_ = big.Equal(branch)
		dEqShared := time.Since(t0)

		rebuilt := treap.New[int, int](ops)
		for i := n - 1; i >= 0; i-- {
			rebuilt = rebuilt.Insert(i*2, i)
		}
		t0 = time.Now()
		eq := big.Equal(rebuilt)
		dEqRebuilt := time.Since(t0)
		if !eq || count != 1 {
			panic("treap invariants broken")
		}
		fmt.Printf("%-10d %-14v %-16v %-18v %-20v\n", n,
			dUnion.Round(time.Microsecond), dDiff.Round(time.Microsecond),
			dEqShared.Round(time.Nanosecond), dEqRebuilt.Round(time.Microsecond))
	}
	fmt.Println("shape check: shared-structure equality is O(1); diff cost tracks the number of changes.")
}

func mustCompile(src string) *compiler.Program {
	prog, err := parser.Parse(src)
	if err != nil {
		panic(err)
	}
	c, err := compiler.Compile(prog)
	if err != nil {
		panic(err)
	}
	return c
}

func cloneRels(m map[string]relation.Relation) map[string]relation.Relation {
	out := make(map[string]relation.Relation, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}
