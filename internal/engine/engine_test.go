package engine

import (
	"math"
	"strings"
	"testing"

	"logicblox/internal/compiler"
	"logicblox/internal/lftj"
	"logicblox/internal/ml"
	"logicblox/internal/parser"
	"logicblox/internal/relation"
	"logicblox/internal/tuple"
)

func mustCompile(t testing.TB, src string) *compiler.Program {
	t.Helper()
	p, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	c, err := compiler.Compile(p)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return c
}

func relOf(arity int, ts ...tuple.Tuple) relation.Relation {
	return relation.FromTuples(arity, ts)
}

func TestEvalSimpleJoinRule(t *testing.T) {
	prog := mustCompile(t, `grandparent(x, z) <- parent(x, y), parent(y, z).`)
	ctx := NewContext(prog, map[string]relation.Relation{
		"parent": relOf(2,
			tuple.Strings("ann", "bob"),
			tuple.Strings("bob", "cat"),
			tuple.Strings("cat", "dan")),
	}, Options{})
	if err := ctx.EvalAll(); err != nil {
		t.Fatal(err)
	}
	gp := ctx.Relation("grandparent")
	if gp.Len() != 2 || !gp.Contains(tuple.Strings("ann", "cat")) || !gp.Contains(tuple.Strings("bob", "dan")) {
		t.Fatalf("grandparent = %v", gp.Slice())
	}
}

func TestEvalTransitiveClosure(t *testing.T) {
	prog := mustCompile(t, `
		path(x, y) <- edge(x, y).
		path(x, z) <- path(x, y), edge(y, z).`)
	edges := relation.New(2)
	// A chain 0→1→…→20 plus a cycle 5→3.
	for i := int64(0); i < 20; i++ {
		edges = edges.Insert(tuple.Ints(i, i+1))
	}
	edges = edges.Insert(tuple.Ints(5, 3))
	ctx := NewContext(prog, map[string]relation.Relation{"edge": edges}, Options{})
	if err := ctx.EvalAll(); err != nil {
		t.Fatal(err)
	}
	path := ctx.Relation("path")
	if !path.Contains(tuple.Ints(0, 20)) {
		t.Fatalf("missing transitive path 0→20")
	}
	if !path.Contains(tuple.Ints(5, 4)) { // via the cycle 5→3→4
		t.Fatalf("missing path through cycle")
	}
	// Model check: count reachable pairs with a simple BFS.
	adj := map[int64][]int64{}
	edges.ForEach(func(e tuple.Tuple) bool {
		adj[e[0].AsInt()] = append(adj[e[0].AsInt()], e[1].AsInt())
		return true
	})
	want := 0
	for src := range adj {
		seen := map[int64]bool{}
		stack := append([]int64(nil), adj[src]...)
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if seen[n] {
				continue
			}
			seen[n] = true
			stack = append(stack, adj[n]...)
		}
		want += len(seen)
	}
	if path.Len() != want {
		t.Fatalf("path count = %d, want %d", path.Len(), want)
	}
}

func TestEvalMutualRecursion(t *testing.T) {
	prog := mustCompile(t, `
		even(x) <- zero(x).
		even(y) <- odd(x), succ(x, y).
		odd(y) <- even(x), succ(x, y).`)
	succ := relation.New(2)
	for i := int64(0); i < 10; i++ {
		succ = succ.Insert(tuple.Ints(i, i+1))
	}
	ctx := NewContext(prog, map[string]relation.Relation{
		"zero": relOf(1, tuple.Ints(0)),
		"succ": succ,
	}, Options{})
	if err := ctx.EvalAll(); err != nil {
		t.Fatal(err)
	}
	even, odd := ctx.Relation("even"), ctx.Relation("odd")
	for i := int64(0); i <= 10; i++ {
		if even.Contains(tuple.Ints(i)) != (i%2 == 0) {
			t.Errorf("even(%d) = %v", i, even.Contains(tuple.Ints(i)))
		}
		if odd.Contains(tuple.Ints(i)) != (i%2 == 1) {
			t.Errorf("odd(%d) = %v", i, odd.Contains(tuple.Ints(i)))
		}
	}
}

func TestEvalNegation(t *testing.T) {
	prog := mustCompile(t, `
		lang_edb(n) <- lang_predname(n), !lang_idb(n).`)
	ctx := NewContext(prog, map[string]relation.Relation{
		"lang_predname": relOf(1, tuple.Strings("a"), tuple.Strings("b"), tuple.Strings("c")),
		"lang_idb":      relOf(1, tuple.Strings("b")),
	}, Options{})
	if err := ctx.EvalAll(); err != nil {
		t.Fatal(err)
	}
	edb := ctx.Relation("lang_edb")
	if edb.Len() != 2 || edb.Contains(tuple.Strings("b")) {
		t.Fatalf("lang_edb = %v", edb.Slice())
	}
}

func TestEvalArithmeticAndFilters(t *testing.T) {
	prog := mustCompile(t, `
		profit[sku] = z <- sellingPrice[sku] = x, buyingPrice[sku] = y, z = x - y.
		cheap(sku) <- profit[sku] = z, z < 3.`)
	ctx := NewContext(prog, map[string]relation.Relation{
		"sellingPrice": relOf(2,
			tuple.Of(tuple.String("a"), tuple.Int(10)),
			tuple.Of(tuple.String("b"), tuple.Int(5))),
		"buyingPrice": relOf(2,
			tuple.Of(tuple.String("a"), tuple.Int(4)),
			tuple.Of(tuple.String("b"), tuple.Int(3))),
	}, Options{})
	if err := ctx.EvalAll(); err != nil {
		t.Fatal(err)
	}
	profit := ctx.Relation("profit")
	if v, ok := profit.FuncGet(tuple.Strings("a")); !ok || v.AsInt() != 6 {
		t.Fatalf("profit[a] = %v, %v", v, ok)
	}
	cheap := ctx.Relation("cheap")
	if cheap.Len() != 1 || !cheap.Contains(tuple.Strings("b")) {
		t.Fatalf("cheap = %v", cheap.Slice())
	}
}

func TestEvalAggregationSum(t *testing.T) {
	// The paper's Figure 2 total-shelf-space rule.
	prog := mustCompile(t, `
		totalShelf[] = u <- agg<<u = sum(z)>> Stock[p] = x, spacePerProd[p] = y, z = x * y.`)
	ctx := NewContext(prog, map[string]relation.Relation{
		"Stock": relOf(2,
			tuple.Of(tuple.String("p1"), tuple.Float(2)),
			tuple.Of(tuple.String("p2"), tuple.Float(3))),
		"spacePerProd": relOf(2,
			tuple.Of(tuple.String("p1"), tuple.Float(1.5)),
			tuple.Of(tuple.String("p2"), tuple.Float(2))),
	}, Options{})
	if err := ctx.EvalAll(); err != nil {
		t.Fatal(err)
	}
	total := ctx.Relation("totalShelf")
	if total.Len() != 1 {
		t.Fatalf("totalShelf = %v", total.Slice())
	}
	v := total.Slice()[0][0]
	if v.AsFloat() != 2*1.5+3*2 {
		t.Fatalf("totalShelf = %v, want 9", v)
	}
}

func TestEvalGroupedAggregates(t *testing.T) {
	prog := mustCompile(t, `
		salesByStore[s] = u <- agg<<u = sum(v)>> sales(s, p, v).
		itemsByStore[s] = u <- agg<<u = count()>> sales(s, p, v).
		maxSale[s] = u <- agg<<u = max(v)>> sales(s, p, v).
		minSale[s] = u <- agg<<u = min(v)>> sales(s, p, v).
		avgSale[s] = u <- agg<<u = avg(v)>> sales(s, p, v).`)
	ctx := NewContext(prog, map[string]relation.Relation{
		"sales": relOf(3,
			tuple.Of(tuple.String("s1"), tuple.String("a"), tuple.Int(10)),
			tuple.Of(tuple.String("s1"), tuple.String("b"), tuple.Int(20)),
			tuple.Of(tuple.String("s2"), tuple.String("a"), tuple.Int(5)),
			// Int sums are exact past 2^53 and do not overflow at a single
			// value; summed in a float64 they read 2^53 and MinInt64.
			tuple.Of(tuple.String("s3"), tuple.String("a"), tuple.Int(1<<53+1)),
			tuple.Of(tuple.String("s3"), tuple.String("b"), tuple.Int(1)),
			tuple.Of(tuple.String("s4"), tuple.String("a"), tuple.Int(math.MaxInt64))),
	}, Options{})
	if err := ctx.EvalAll(); err != nil {
		t.Fatal(err)
	}
	check := func(pred, store string, want tuple.Value) {
		t.Helper()
		v, ok := ctx.Relation(pred).FuncGet(tuple.Strings(store))
		if !ok || !tuple.Equal(v, want) {
			got, _ := ctx.Relation(pred).FuncGet(tuple.Strings(store))
			t.Errorf("%s[%s] = %v, want %v", pred, store, got, want)
		}
	}
	check("salesByStore", "s1", tuple.Int(30))
	check("salesByStore", "s2", tuple.Int(5))
	check("salesByStore", "s3", tuple.Int(1<<53+2))
	check("salesByStore", "s4", tuple.Int(math.MaxInt64))
	check("itemsByStore", "s1", tuple.Int(2))
	check("maxSale", "s1", tuple.Int(20))
	check("minSale", "s1", tuple.Int(10))
	check("avgSale", "s1", tuple.Float(15))
}

// TestAggregateGroupsByValue: aggregate groups are told apart as
// tuple.Compare tells keys apart — Int(1) and Float(1) are two groups,
// although both render as "1", and -0.0 and 0.0 are one.
func TestAggregateGroupsByValue(t *testing.T) {
	prog := mustCompile(t, `
		a(k, v) -> int(v).
		g[k] = u <- agg<<u = sum(v)>> a(k, v).`)
	negZero := tuple.Float(math.Copysign(0, -1))
	ctx := NewContext(prog, map[string]relation.Relation{
		"a": relOf(2,
			tuple.Of(tuple.Int(1), tuple.Int(10)),
			tuple.Of(tuple.Float(1), tuple.Int(20)),
			tuple.Of(tuple.Float(0), tuple.Int(5)),
			tuple.Of(negZero, tuple.Int(7))),
	}, Options{})
	if err := ctx.EvalAll(); err != nil {
		t.Fatal(err)
	}
	want := relOf(2,
		tuple.Of(tuple.Int(1), tuple.Int(10)),
		tuple.Of(tuple.Float(1), tuple.Int(20)),
		tuple.Of(tuple.Float(0), tuple.Int(12)))
	if got := ctx.Relation("g"); !got.Equal(want) {
		t.Fatalf("g = %v, want %v", got.Slice(), want.Slice())
	}
}

func TestFunctionalDependencyViolation(t *testing.T) {
	prog := mustCompile(t, `out[x] = y <- in(x, y).`)
	ctx := NewContext(prog, map[string]relation.Relation{
		"in": relOf(2, tuple.Ints(1, 10), tuple.Ints(1, 20)),
	}, Options{})
	err := ctx.EvalAll()
	if err == nil || !strings.Contains(err.Error(), "functional dependency") {
		t.Fatalf("expected FD violation, got %v", err)
	}
}

// TestFig2Constraints runs the paper's Figure 2 program: stock bounds and
// the shelf-space constraint.
func TestFig2Constraints(t *testing.T) {
	src := `
		spacePerProd[p] = v -> Product(p), float(v).
		minStock[p] = v -> Product(p), float(v).
		maxStock[p] = v -> Product(p), float(v).
		maxShelf[] = v -> float[64](v).
		Stock[p] = v -> Product(p), float(v).
		totalShelf[] = u <- agg<<u = sum(z)>> Stock[p] = x, spacePerProd[p] = y, z = x * y.
		Product(p) -> Stock[p] >= minStock[p].
		Product(p) -> Stock[p] <= maxStock[p].
		totalShelf[] = u, maxShelf[] = v -> u <= v.`
	prog := mustCompile(t, src)
	base := func(stockP1 float64) map[string]relation.Relation {
		return map[string]relation.Relation{
			"Product":      relOf(1, tuple.Strings("p1"), tuple.Strings("p2")),
			"spacePerProd": relOf(2, tuple.Of(tuple.String("p1"), tuple.Float(2)), tuple.Of(tuple.String("p2"), tuple.Float(1))),
			"minStock":     relOf(2, tuple.Of(tuple.String("p1"), tuple.Float(1)), tuple.Of(tuple.String("p2"), tuple.Float(1))),
			"maxStock":     relOf(2, tuple.Of(tuple.String("p1"), tuple.Float(10)), tuple.Of(tuple.String("p2"), tuple.Float(10))),
			"maxShelf":     relOf(1, tuple.Of(tuple.Float(20))),
			"Stock":        relOf(2, tuple.Of(tuple.String("p1"), tuple.Float(stockP1)), tuple.Of(tuple.String("p2"), tuple.Float(2))),
		}
	}

	// Legal state.
	ctx := NewContext(prog, base(3), Options{})
	if err := ctx.EvalAll(); err != nil {
		t.Fatal(err)
	}
	vs, err := ctx.CheckConstraints()
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 0 {
		t.Fatalf("legal state reported violations: %v", vs)
	}

	// Shelf capacity exceeded: Stock[p1]=12 → totalShelf = 26 > 20, and
	// also maxStock violated (12 > 10).
	ctx = NewContext(prog, base(12), Options{})
	if err := ctx.EvalAll(); err != nil {
		t.Fatal(err)
	}
	vs, err = ctx.CheckConstraints()
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) < 2 {
		t.Fatalf("expected shelf and stock violations, got %v", vs)
	}
}

func TestConstraintMissingRequiredFact(t *testing.T) {
	prog := mustCompile(t, `
		Product(p) -> Stock[p] = _.`)
	ctx := NewContext(prog, map[string]relation.Relation{
		"Product": relOf(1, tuple.Strings("p1"), tuple.Strings("p2")),
		"Stock":   relOf(2, tuple.Of(tuple.String("p1"), tuple.Float(1))),
	}, Options{})
	if err := ctx.EvalAll(); err != nil {
		t.Fatal(err)
	}
	vs, err := ctx.CheckConstraints()
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 1 || !strings.Contains(vs[0].Reason, "missing") {
		t.Fatalf("violations = %v", vs)
	}
}

func TestConstraintTypeCheck(t *testing.T) {
	prog := mustCompile(t, `Stock[p] = v -> string(p), float(v).`)
	ctx := NewContext(prog, map[string]relation.Relation{
		"Stock": relOf(2, tuple.Of(tuple.String("ok"), tuple.Float(1)), tuple.Of(tuple.Int(3), tuple.Float(1))),
	}, Options{})
	if err := ctx.EvalAll(); err != nil {
		t.Fatal(err)
	}
	vs, err := ctx.CheckConstraints()
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 1 {
		t.Fatalf("violations = %v", vs)
	}
}

func TestEvalWithConstantsInAtoms(t *testing.T) {
	prog := mustCompile(t, `hot(p) <- sales(p, "2015-01", v), v > 100.`)
	ctx := NewContext(prog, map[string]relation.Relation{
		"sales": relOf(3,
			tuple.Of(tuple.String("a"), tuple.String("2015-01"), tuple.Int(150)),
			tuple.Of(tuple.String("b"), tuple.String("2015-01"), tuple.Int(50)),
			tuple.Of(tuple.String("c"), tuple.String("2015-02"), tuple.Int(999))),
	}, Options{})
	if err := ctx.EvalAll(); err != nil {
		t.Fatal(err)
	}
	hot := ctx.Relation("hot")
	if hot.Len() != 1 || !hot.Contains(tuple.Strings("a")) {
		t.Fatalf("hot = %v", hot.Slice())
	}
}

func TestEvalFactRules(t *testing.T) {
	prog := mustCompile(t, `
		answer[] = 42.
		greeting("hello").`)
	ctx := NewContext(prog, nil, Options{})
	if err := ctx.EvalAll(); err != nil {
		t.Fatal(err)
	}
	if v, ok := ctx.Relation("answer").FuncGet(tuple.Tuple{}); !ok || v.AsInt() != 42 {
		t.Fatalf("answer = %v, %v", v, ok)
	}
	if !ctx.Relation("greeting").Contains(tuple.Strings("hello")) {
		t.Fatalf("greeting missing")
	}
}

func TestPredictLearnAndEval(t *testing.T) {
	prog := mustCompile(t, `
		SM[s] = m <- predict<<m = logist(v|f)>> Buy[s, c] = v, Feature[s, n] = f.
		Pred[s] = v <- predict<<v = eval(m|f)>> SM[s] = m, Feature[s, n] = f.`)
	// Store s1: feature x=1 → buys (all targets 1); store s2: x=1 → never buys.
	buy := relation.New(3)
	feat := relation.New(3)
	for c := int64(0); c < 6; c++ {
		buy = buy.Insert(tuple.Of(tuple.String("s1"), tuple.Int(c), tuple.Float(1)))
		buy = buy.Insert(tuple.Of(tuple.String("s2"), tuple.Int(c), tuple.Float(0)))
	}
	feat = feat.Insert(tuple.Of(tuple.String("s1"), tuple.String("x"), tuple.Float(1)))
	feat = feat.Insert(tuple.Of(tuple.String("s2"), tuple.String("x"), tuple.Float(1)))
	models := ml.NewRegistry()
	ctx := NewContext(prog, map[string]relation.Relation{
		"Buy": buy, "Feature": feat,
	}, Options{Models: models})
	if err := ctx.EvalAll(); err != nil {
		t.Fatal(err)
	}
	if models.Len() != 2 {
		t.Fatalf("expected 2 models, got %d", models.Len())
	}
	p1, ok1 := ctx.Relation("Pred").FuncGet(tuple.Strings("s1"))
	p2, ok2 := ctx.Relation("Pred").FuncGet(tuple.Strings("s2"))
	if !ok1 || !ok2 {
		t.Fatalf("missing predictions")
	}
	if p1.AsFloat() < 0.7 || p2.AsFloat() > 0.3 {
		t.Fatalf("predictions not separated: s1=%v s2=%v", p1, p2)
	}
}

func TestSensitivityRecordingDuringEval(t *testing.T) {
	prog := mustCompile(t, `t(x, y, z) <- e(x, y), e(y, z), e(x, z).`)
	idx := lftj.NewSensitivityIndex()
	ctx := NewContext(prog, map[string]relation.Relation{
		"e": relOf(2, tuple.Ints(1, 2), tuple.Ints(2, 3), tuple.Ints(1, 3)),
	}, Options{})
	ctx.SetSensitivityIndex(idx)
	if err := ctx.EvalAll(); err != nil {
		t.Fatal(err)
	}
	if ctx.Relation("t").Len() != 1 {
		t.Fatalf("triangles = %v", ctx.Relation("t").Slice())
	}
	if idx.Len() == 0 {
		t.Fatalf("no sensitivity intervals recorded")
	}
	// The triangle's own edges must be sensitive.
	for _, e := range [][2]int64{{1, 2}, {2, 3}, {1, 3}} {
		if !idx.Affected("e", tuple.Ints(e[0], e[1])) {
			t.Errorf("edge %v should be sensitive", e)
		}
	}
}

func TestRulesShareSecondaryIndex(t *testing.T) {
	// Several rules needing the same permuted index of the same relation
	// version build it once: they share one entry of the context's cache.
	src := `
		a1(x, y) <- e(y, x), f(x).
		a2(x, y) <- e(y, x), g(x).
		a3(x, y) <- e(y, x), h(x).`
	e := relation.New(2)
	uf := relation.New(1)
	want := relation.New(2)
	for i := int64(0); i < 300; i++ {
		e = e.Insert(tuple.Ints(i%30, i%17))
		uf = uf.Insert(tuple.Ints(i % 13))
		if i%17 < 13 {
			want = want.Insert(tuple.Ints(i%17, i%30))
		}
	}
	base := map[string]relation.Relation{"e": e, "f": uf, "g": uf, "h": uf}
	ctx := NewContext(mustCompile(t, src), base, Options{})
	if err := ctx.EvalAll(); err != nil {
		t.Fatal(err)
	}
	for _, n := range []string{"a1", "a2", "a3"} {
		if !ctx.Relation(n).Equal(want) {
			t.Fatalf("%s = %d tuples, want %d", n, ctx.Relation(n).Len(), want.Len())
		}
	}
	if len(ctx.perms) != 1 {
		t.Fatalf("context built %d permuted indices, want 1 shared by the three rules", len(ctx.perms))
	}
}
