package core

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"logicblox/internal/obs"
	"logicblox/internal/relation"
	"logicblox/internal/tuple"
)

// The workbook what-if cycle: a 20-fact upsert batch of sales on a
// branch, the rollup view installed over it, and the view read back.
const (
	rollupText = `salesByWeek[wk] = u <- agg<<u = sum(n)>> sales[p, s, wk] = n.`
	rollupRead = `_(wk, u) <- salesByWeek[wk] = u.`
)

// whatIfCycle runs one what-if cycle on a branch of main (a branch is
// main's value): a batch of 20 distinct ^sales upserts over the given
// number of products, the rollup block, and a read of it. It returns the
// branch after the addblock.
func whatIfCycle(tb testing.TB, main *Workspace, rng *rand.Rand, products int) *Workspace {
	tb.Helper()
	var src strings.Builder
	seen := map[[3]int]bool{}
	for len(seen) < 20 {
		k := [3]int{rng.Intn(products), rng.Intn(4), rng.Intn(5)}
		if !seen[k] {
			seen[k] = true
			fmt.Fprintf(&src, "^sales[%d, %d, %d] = %d.\n", k[0], k[1], k[2], rng.Intn(10))
		}
	}
	res, err := main.Exec(src.String())
	if err != nil {
		tb.Fatal(err)
	}
	br, err := res.Workspace.AddBlock("rollup", rollupText)
	if err != nil {
		tb.Fatal(err)
	}
	if got, err := br.Query(rollupRead); err != nil || len(got) != 5 {
		tb.Fatalf("rollup read = %v, %v; want 5 weeks", got, err)
	}
	return br
}

// BenchmarkWhatIfCycle is the live-programming probe: the workbook
// workload's what-if cycle — branch, 20-fact exec, addblock of the
// rollup, query it, drop the branch — over 20k retail sales facts, one
// cycle per iteration. From the second cycle on, the rollup's stratum is
// the memo's, maintained by the diff between this branch's sales and the
// last one's.
func BenchmarkWhatIfCycle(b *testing.B) {
	main := retailWorkspace(b, 1000)
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		whatIfCycle(b, main, rng, 1000)
	}
}

// memoCounts is what the memo counters and the walk's work counters read.
type memoCounts struct {
	hits, misses, fallbacks, evictions  int64
	evaluated, reevaluated, signed, ref int64
}

func readMemoCounts(reg *obs.Registry) memoCounts {
	c := reg.Snapshot().Counters
	return memoCounts{
		hits: c["core.memo.hits"], misses: c["core.memo.misses"],
		fallbacks: c["core.memo.fallbacks"], evictions: c["core.memo.evictions"],
		evaluated: c["core.rederive.rules_evaluated"], reevaluated: c["core.rederive.strata_reevaluated"],
		signed: c["core.rederive.groups_signed"], ref: c["core.rederive.groups_refolded"],
	}
}

func (c memoCounts) minus(o memoCounts) memoCounts {
	return memoCounts{
		c.hits - o.hits, c.misses - o.misses, c.fallbacks - o.fallbacks, c.evictions - o.evictions,
		c.evaluated - o.evaluated, c.reevaluated - o.reevaluated, c.signed - o.signed, c.ref - o.ref,
	}
}

// TestWhatIfAddBlockMaintained: from the second what-if cycle on, the
// rollup's addblock re-evaluates no stratum whole — its one stratum is a
// memo hit, maintained by the signed delta of the sales two branches
// disagree on — and the view equals a full evaluation.
func TestWhatIfAddBlockMaintained(t *testing.T) {
	reg := obs.NewRegistry()
	main := retailWorkspace(t, 100).WithObserver(reg)
	rng := rand.New(rand.NewSource(7))
	for cycle := 1; cycle <= 4; cycle++ {
		before := readMemoCounts(reg)
		br := whatIfCycle(t, main, rng, 100)
		d := readMemoCounts(reg).minus(before)
		checkFullEval(t, br)
		if cycle == 1 {
			if d.misses != 1 || d.hits != 0 {
				t.Fatalf("cycle 1: memo %+v, want one miss", d)
			}
			continue
		}
		if d.hits != 1 || d.misses+d.fallbacks != 0 || d.reevaluated != 0 || d.signed == 0 {
			t.Fatalf("cycle %d: %+v, want one memo hit, signed groups, no stratum re-evaluated", cycle, d)
		}
	}
}

// TestRepeatedAuxQueryReused: the analytic workload's agg query, run
// twice on one version, evaluates its auxiliary rule once: the second
// run installs the memo's byStore as it is.
func TestRepeatedAuxQueryReused(t *testing.T) {
	reg := obs.NewRegistry()
	ws := analyticWorkspace(t).WithObserver(reg)
	evals := func() int64 {
		for _, r := range reg.Snapshot().Rules {
			if strings.HasPrefix(r.Source, "byStore[") {
				return r.Evals + r.DeltaEvals
			}
		}
		return 0
	}
	first, err := ws.Query(aggText)
	if err != nil {
		t.Fatal(err)
	}
	if evals() != 1 {
		t.Fatalf("the first run evaluated byStore %d times, want 1", evals())
	}
	before := readMemoCounts(reg)
	second, err := ws.Query(aggText)
	if err != nil {
		t.Fatal(err)
	}
	if d := readMemoCounts(reg).minus(before); d.hits != 1 || d.misses+d.fallbacks != 0 {
		t.Fatalf("second run: memo %+v, want one hit", d)
	}
	if evals() != 1 {
		t.Fatalf("the second run evaluated byStore again (%d evaluations)", evals())
	}
	if len(first) != 10 || !sameTuples(first, second) {
		t.Fatalf("answers %v then %v", first, second)
	}
}

// memoBlocks are the blocks the memo oracle installs, removes and
// re-adds over e, a, b and w: a recursive view, a mutually recursive
// clique, negation, a two-rule stratum, every aggregate (a count, an int
// sum through a join, a max, a min and a float avg) and views over views.
var memoBlocks = map[string]string{
	"path":   "path(x, y) <- e(x, y).\npath(x, z) <- path(x, y), e(y, z).",
	"clique": "odd(y) <- a(x), e(x, y).\nodd(y) <- even(x), e(x, y).\neven(y) <- odd(x), e(x, y).",
	"lonely": `lonely(x) <- a(x), !b(x).`,
	"either": "either(x) <- a(x).\neither(x) <- b(x).",
	"deg":    `deg[x] = n <- agg<<n = count()>> e(x, y).`,
	"tot":    `tot[x] = n <- agg<<n = sum(v)>> e(x, y), w[y] = v.`,
	"top":    `top[x] = y <- agg<<y = max(z)>> e(x, z).`,
	"low":    `low[x] = y <- agg<<y = min(z)>> e(x, z).`,
	"mean":   `mean[x] = m <- agg<<m = avg(v)>> e(x, y), w[y] = v, v > 0.`,
	"hub":    `hub(x) <- deg[x] = n, n > 3, !lonely(x).`,
	"far":    `far[x] = n <- agg<<n = count()>> path(x, y).`,
}

// memoDecl declares the base predicates; every lineage of the oracle
// keeps it installed.
const memoDecl = `e(x, y) -> int(x), int(y).
w[x] = v -> int(x), int(v).
a(x) -> int(x).
b(x) -> int(x).`

// memoQueries are queries with auxiliary rules of every shape, and one
// answer that reads an installed view.
var memoQueries = []string{
	"qd[x] = n <- agg<<n = count()>> e(x, y).\n_(x, n) <- qd[x] = n.",
	"qp(x, y) <- e(x, y).\nqp(x, z) <- qp(x, y), e(y, z).\n_(x, y) <- qp(x, y).",
	"qn(x) <- a(x), !b(x).\n_(x) <- qn(x).",
	"qm[x] = y <- agg<<y = max(z)>> e(x, z).\n_(x, y) <- qm[x] = y.",
	"qs[x] = n <- agg<<n = sum(v)>> e(x, y), w[y] = v.\n_(x, n) <- qs[x] = n.",
	`_(x, n) <- deg[x] = n.`,
}

// memoNodes is the node domain of the oracle's data.
const memoNodes = 15

// memoSeed is a workspace holding memoDecl and seeded data: 60 edges
// drawn over memoNodes nodes, a and b about 6 nodes each, and w a value
// in [0, 10) for every node.
func memoSeed(t *testing.T, rng *rand.Rand, reg *obs.Registry) *Workspace {
	t.Helper()
	ws, err := NewWorkspace().WithObserver(reg).AddBlock("decl", memoDecl)
	if err != nil {
		t.Fatal(err)
	}
	var src strings.Builder
	for i := 0; i < 60; i++ {
		fmt.Fprintf(&src, "+e(%d, %d).\n", rng.Intn(memoNodes), rng.Intn(memoNodes))
	}
	for x := 0; x < memoNodes; x++ {
		fmt.Fprintf(&src, "+w[%d] = %d.\n", x, rng.Intn(10))
		if rng.Intn(5) < 2 {
			fmt.Fprintf(&src, "+a(%d).\n", x)
		}
		if rng.Intn(5) < 2 {
			fmt.Fprintf(&src, "+b(%d).\n", x)
		}
	}
	return mustExec(t, ws, src.String())
}

// smallBatch is an exec of one to four changes to e, a, b or w: an edge
// inserted or an existing one deleted, a node added to or dropped from a
// or b, a value upserted.
func smallBatch(rng *rand.Rand, ws *Workspace) string {
	var src strings.Builder
	for n := 1 + rng.Intn(4); n > 0; n-- {
		x, y := rng.Intn(memoNodes), rng.Intn(memoNodes)
		switch rng.Intn(5) {
		case 0:
			fmt.Fprintf(&src, "+e(%d, %d).\n", x, y)
		case 1:
			if edges := ws.Relation("e").Slice(); len(edges) > 0 {
				fmt.Fprintf(&src, "-e%v.\n", edges[rng.Intn(len(edges))])
			}
		case 2:
			fmt.Fprintf(&src, "%sa(%d).\n", []string{"+", "-"}[rng.Intn(2)], x)
		case 3:
			fmt.Fprintf(&src, "%sb(%d).\n", []string{"+", "-"}[rng.Intn(2)], x)
		default:
			fmt.Fprintf(&src, "^w[%d] = %d.\n", x, rng.Intn(10))
		}
	}
	return src.String()
}

// halveEdges is an exec deleting every other edge: a change past the
// memo's crossover.
func halveEdges(ws *Workspace) string {
	var src strings.Builder
	for i, t := range ws.Relation("e").Slice() {
		if i%2 == 0 {
			fmt.Fprintf(&src, "-e%v.\n", t)
		}
	}
	return src.String()
}

// freshLineage restores ws's blocks, plus extra, over its base data in a
// lineage of its own, whose memo starts empty: every stratum is
// evaluated whole.
func freshLineage(t *testing.T, ws *Workspace, extra map[string]string) *Workspace {
	t.Helper()
	blocks := map[string]string{}
	ws.blocks.Range(func(name, src string) bool { blocks[name] = src; return true })
	for name, src := range extra {
		blocks[name] = src
	}
	base := map[string]relation.Relation{}
	ws.base.Range(func(name string, r relation.Relation) bool { base[name] = r; return true })
	fresh, err := restoreWorkspace(nil, blocks, base)
	if err != nil {
		t.Fatalf("restore %v: %v", sortedNames(blocks), err)
	}
	return fresh
}

// newEdges is an exec inserting n edges e does not hold.
func newEdges(ws *Workspace, n int) string {
	var src strings.Builder
	e := ws.Relation("e")
	for x := 0; x < memoNodes && n > 0; x++ {
		for y := memoNodes - 1; y >= 0 && n > 0; y-- {
			if !e.Contains(tuple.Ints(int64(x), int64(y))) {
				fmt.Fprintf(&src, "+e(%d, %d).\n", x, y)
				n--
			}
		}
	}
	return src.String()
}

// sameAsFresh checks every derived predicate of ws against a fresh
// lineage's evaluation of the same blocks and base data.
func sameAsFresh(t *testing.T, ws *Workspace, label string) {
	t.Helper()
	fresh := freshLineage(t, ws, nil)
	for _, name := range ws.prog.IDBPreds {
		if got, want := ws.Relation(name), fresh.Relation(name); !got.Equal(want) {
			t.Fatalf("%s: %s = %v, a fresh evaluation gives %v", label, name, got.Slice(), want.Slice())
		}
	}
}

// queryAsFresh checks a query's answer on ws against the answer a fresh
// lineage holding the query as a block gives.
func queryAsFresh(t *testing.T, ws *Workspace, q, label string) {
	t.Helper()
	got, err := ws.Query(q)
	if err != nil {
		t.Fatalf("%s: Query(%q): %v", label, q, err)
	}
	if want := freshLineage(t, ws, map[string]string{"~query": q}).Relation("_").Slice(); !sameTuples(got, want) {
		t.Fatalf("%s: Query(%q) = %v, a fresh evaluation answers %v", label, q, got, want)
	}
}

// memoHistory runs steps generated transactions over two branches of one
// lineage — execs small and past the crossover, addblocks (a removed
// block re-added among them), removeblocks, queries, a switch between
// the branches and a re-branch — and checks the acting branch against a
// fresh lineage after every step.
func memoHistory(t *testing.T, reg *obs.Registry, seed int64, steps int) {
	rng := rand.New(rand.NewSource(seed))
	heads := [2]*Workspace{memoSeed(t, rng, reg)}
	heads[1] = heads[0]
	names := sortedNames(memoBlocks)
	cur := 0
	for step := 0; step < steps; step++ {
		ws := heads[cur]
		label := fmt.Sprintf("seed %d step %d", seed, step)
		var next *Workspace
		var err error
		switch k := rng.Intn(13); {
		case k < 4:
			var res *ExecResult
			if res, err = ws.Exec(smallBatch(rng, ws)); err == nil {
				next = res.Workspace
			}
		case k == 4:
			var res *ExecResult
			if res, err = ws.Exec(halveEdges(ws) + smallBatch(rng, ws)); err == nil {
				next = res.Workspace
			}
		case k < 7:
			name := names[rng.Intn(len(names))]
			if !ws.blocks.Contains(name) {
				next, err = ws.AddBlock(name, memoBlocks[name])
			}
		case k < 9:
			name := names[rng.Intn(len(names))]
			if ws.blocks.Contains(name) {
				next, err = ws.RemoveBlock(name)
			}
		case k < 11:
			queryAsFresh(t, ws, memoQueries[rng.Intn(len(memoQueries))], label)
		case k == 11:
			cur = 1 - cur
		default:
			heads[1-cur] = ws
		}
		if err != nil {
			t.Logf("%s: %v", label, err) // a functional conflict in a batch
			continue
		}
		if next != nil {
			heads[cur] = next
			sameAsFresh(t, next, label)
		}
	}
}

// TestMemoMatchesFreshEvaluation is the memo's oracle. A scripted history
// reaches every arm of the memo lookup, each asserted through the
// counters; generated histories over two branches then check that every
// derived relation and every query answer equals a fresh lineage's
// evaluation of the same blocks and base data after every step.
func TestMemoMatchesFreshEvaluation(t *testing.T) {
	reg := obs.NewRegistry()
	rng := rand.New(rand.NewSource(1))
	ws := memoSeed(t, rng, reg)
	step := func(label string, next *Workspace, want func(d memoCounts) bool, before memoCounts) *Workspace {
		t.Helper()
		d := readMemoCounts(reg).minus(before)
		if !want(d) {
			t.Fatalf("%s: counters moved by %+v", label, d)
		}
		sameAsFresh(t, next, label)
		return next
	}
	readd := func(name, change string) *Workspace {
		t.Helper()
		out := mustAddBlock(t, ws, name, memoBlocks[name])
		out, err := out.RemoveBlock(name)
		if err != nil {
			t.Fatal(err)
		}
		if change != "" {
			out = mustExec(t, out, change)
		}
		return out
	}
	var c memoCounts

	c = readMemoCounts(reg)
	ws = step("first addblock: miss", mustAddBlock(t, ws, "deg", memoBlocks["deg"]),
		func(d memoCounts) bool { return d.misses == 1 && d.hits == 0 && d.reevaluated == 1 }, c)

	// An edge and the value it joins move in one diff: the delta rules
	// must read each atom's before-image in the entry.
	w14, _ := ws.Relation("w").FuncGet(tuple.Ints(14))
	ws = readd("tot", newEdges(ws, 2)+fmt.Sprintf("^w[14] = %d.", (w14.AsInt()+1)%10))
	c = readMemoCounts(reg)
	ws = step("re-added sum: signed hit", mustAddBlock(t, ws, "tot", memoBlocks["tot"]),
		func(d memoCounts) bool { return d.hits == 1 && d.signed > 0 && d.ref == 0 && d.reevaluated == 0 }, c)

	ws = readd("top", newEdges(ws, 2))
	c = readMemoCounts(reg)
	ws = step("re-added max: refold hit", mustAddBlock(t, ws, "top", memoBlocks["top"]),
		func(d memoCounts) bool { return d.hits == 1 && d.ref > 0 && d.reevaluated == 0 }, c)

	ws = readd("path", "-e"+ws.Relation("e").Slice()[3].String()+".")
	c = readMemoCounts(reg)
	ws = step("re-added recursion: DRed hit", mustAddBlock(t, ws, "path", memoBlocks["path"]),
		func(d memoCounts) bool {
			return d.hits == 1 && d.evaluated > 0 && d.signed+d.ref == 0 && d.reevaluated == 0
		}, c)

	ws, _ = ws.RemoveBlock("path")
	c = readMemoCounts(reg)
	ws = step("re-added unchanged: zero-delta hit", mustAddBlock(t, ws, "path", memoBlocks["path"]),
		func(d memoCounts) bool { return d.hits == 1 && d.evaluated == 0 && d.reevaluated == 0 }, c)

	ws = readd("lonely", "+b(0). +b(1). +b(2). -b(3).")
	c = readMemoCounts(reg)
	ws = step("re-added negation, negated input moved: fallback", mustAddBlock(t, ws, "lonely", memoBlocks["lonely"]),
		func(d memoCounts) bool { return d.fallbacks == 1 && d.hits == 0 && d.reevaluated == 1 }, c)

	ws, _ = ws.RemoveBlock("deg")
	ws = mustExec(t, ws, halveEdges(ws))
	c = readMemoCounts(reg)
	ws = step("re-added past the crossover: fallback", mustAddBlock(t, ws, "deg", memoBlocks["deg"]),
		func(d memoCounts) bool { return d.fallbacks == 1 && d.hits == 0 && d.reevaluated >= 1 }, c)

	queryAsFresh(t, ws, memoQueries[1], "query")
	c = readMemoCounts(reg)
	queryAsFresh(t, ws, memoQueries[1], "repeated query")
	if d := readMemoCounts(reg).minus(c); d.hits != 1 || d.misses+d.fallbacks != 0 {
		t.Fatalf("repeated query: counters moved by %+v, want one hit", d)
	}

	// An input held at another arity than the entry's misses, and the
	// whole evaluation it falls to rejects the atom. No transaction makes
	// such a context — a rule's text fixes its atoms' arities, and
	// checkArities rejects data of another — so the walk runs here over one
	// that holds e at arity 3.
	c = readMemoCounts(reg)
	ctx := ws.newContext(context.Background(), ws.prog)
	ctx.Set("e", relation.New(3))
	if _, _, err := ws.rederive(ctx, ws, map[string]bool{"deg": true}, nil, nil); err == nil {
		t.Fatal("deg evaluated over e at arity 3")
	}
	if d := readMemoCounts(reg).minus(c); d.misses != 1 || d.hits+d.fallbacks != 0 {
		t.Fatalf("input of another arity: counters moved by %+v, want one miss", d)
	}

	// More distinct strata than the memo holds evict the least recently
	// used: deg's entry goes, so deg misses again.
	c = readMemoCounts(reg)
	for i := 0; i < 70; i++ {
		if _, err := ws.Query(fmt.Sprintf("q(x) <- a(x), x > %d.\n_(x) <- q(x).", i)); err != nil {
			t.Fatal(err)
		}
	}
	if d := readMemoCounts(reg).minus(c); d.evictions == 0 || d.misses != 70 {
		t.Fatalf("70 distinct queries: counters moved by %+v, want 70 misses and evictions", d)
	}
	ws, _ = ws.RemoveBlock("deg")
	c = readMemoCounts(reg)
	step("re-added after eviction: miss", mustAddBlock(t, ws, "deg", memoBlocks["deg"]),
		func(d memoCounts) bool { return d.misses == 1 && d.hits == 0 }, c)

	hist := obs.NewRegistry()
	for seed := int64(1); seed <= 6; seed++ {
		memoHistory(t, hist, seed, 80)
	}
	if h := readMemoCounts(hist); h.hits == 0 || h.misses == 0 {
		t.Fatalf("the generated histories came to %+v: no memo hit or no miss", h)
	} else {
		t.Logf("generated histories: %+v", h)
	}
}

// FuzzMemoMatchesFreshEvaluation is TestMemoMatchesFreshEvaluation's
// generated histories from a fuzzed seed and length.
func FuzzMemoMatchesFreshEvaluation(f *testing.F) {
	for _, seed := range []int64{5, 6, 7} {
		f.Add(seed, uint8(40))
	}
	f.Fuzz(func(t *testing.T, seed int64, steps uint8) {
		memoHistory(t, obs.NewRegistry(), seed, int(steps%80))
	})
}

// TestMemoSharedAcrossBranches: a Database's branches share their
// lineage's memo, and so does a loaded database's every head.
func TestMemoSharedAcrossBranches(t *testing.T) {
	ws := mustExec(t, mustAddBlock(t, NewWorkspace(), "d", memoDecl), "+a(1). +a(2).")
	db := NewDatabaseWith(ws)
	if err := db.Branch(DefaultBranch, "what-if"); err != nil {
		t.Fatal(err)
	}
	br, err := db.Workspace("what-if")
	if err != nil {
		t.Fatal(err)
	}
	if br.memo != ws.memo || ws.WithObserver(obs.NewRegistry()).memo != ws.memo {
		t.Fatal("a branch or an observed version has a memo of its own")
	}
	var snap strings.Builder
	if err := db.Save(&snap); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadDatabase(strings.NewReader(snap.String()))
	if err != nil {
		t.Fatal(err)
	}
	a, _ := loaded.Workspace(DefaultBranch)
	b, _ := loaded.Workspace("what-if")
	if a.memo == nil || a.memo != b.memo || a.memo == ws.memo {
		t.Fatal("a loaded database's heads do not share one memo of their own")
	}
	if got := fmt.Sprint(a.Relation("a").Slice()); got != fmt.Sprint([]tuple.Tuple{tuple.Ints(1), tuple.Ints(2)}) {
		t.Fatalf("loaded a = %s", got)
	}
}

// TestMemoConcurrentBranches: the walks of several branches of one
// lineage look up and store the shared memo at once — each installs the
// same block over its own change and runs the same query — and each
// answers what a fresh evaluation of its own state does.
func TestMemoConcurrentBranches(t *testing.T) {
	main := memoSeed(t, rand.New(rand.NewSource(3)), obs.NewRegistry())
	want := make([]*Workspace, 4)
	for i := range want {
		want[i] = mustExec(t, main, fmt.Sprintf("+e(%d, %d). ^w[%d] = %d.", i, memoNodes-1-i, i, 9-i))
	}
	var wg sync.WaitGroup
	errs := make([]error, len(want))
	for i := range want {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for round := 0; round < 10 && errs[i] == nil; round++ {
				var ws *Workspace
				if ws, errs[i] = want[i].AddBlock("tot", memoBlocks["tot"]); errs[i] != nil {
					return
				}
				if _, errs[i] = ws.Query(memoQueries[0]); errs[i] != nil {
					return
				}
				if round == 9 {
					want[i] = ws
				}
			}
		}(i)
	}
	wg.Wait()
	for i, ws := range want {
		if errs[i] != nil {
			t.Fatalf("branch %d: %v", i, errs[i])
		}
		sameAsFresh(t, ws, fmt.Sprintf("branch %d", i))
		queryAsFresh(t, ws, memoQueries[0], fmt.Sprintf("branch %d", i))
	}
}

// TestQueryPublishesRederive: a query's stratum walk publishes its work
// as a transaction's rederive does. The analytic agg query evaluates its
// auxiliary byStore on its first run; a repeat is a memo hit and
// evaluates no rule.
func TestQueryPublishesRederive(t *testing.T) {
	reg := obs.NewRegistry()
	ws := analyticWorkspace(t).WithObserver(reg)
	run := func() memoCounts {
		t.Helper()
		before := readMemoCounts(reg)
		if _, err := ws.Query(aggText); err != nil {
			t.Fatal(err)
		}
		return readMemoCounts(reg).minus(before)
	}
	if first := run(); first.evaluated == 0 || first.misses != 1 {
		t.Fatalf("first agg query: %+v, want rules evaluated and one memo miss", first)
	}
	if again := run(); again.evaluated != 0 || again.hits != 1 {
		t.Fatalf("repeated agg query: %+v, want no rule evaluated and one memo hit", again)
	}
}
