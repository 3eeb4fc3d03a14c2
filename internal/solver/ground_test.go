package solver

import (
	"math"
	"reflect"
	"testing"

	"logicblox/internal/compiler"
	"logicblox/internal/parser"
	"logicblox/internal/relation"
	"logicblox/internal/tuple"
)

// fig2Program is the paper's Figure 2 assortment-planning program plus
// the §2.3.1 solve directives: compute stock amounts maximizing profit
// subject to stock bounds and shelf capacity.
const fig2Program = `
	spacePerProd[p] = v -> Product(p), float(v).
	profitPerProd[p] = v -> Product(p), float(v).
	minStock[p] = v -> Product(p), float(v).
	maxStock[p] = v -> Product(p), float(v).
	maxShelf[] = v -> float[64](v).
	Stock[p] = v -> Product(p), float(v).
	totalShelf[] = u <- agg<<u = sum(z)>> Stock[p] = x, spacePerProd[p] = y, z = x * y.
	totalProfit[] = u <- agg<<u = sum(z)>> Stock[p] = x, profitPerProd[p] = y, z = x * y.
	Product(p) -> Stock[p] >= minStock[p].
	Product(p) -> Stock[p] <= maxStock[p].
	totalShelf[] = u, maxShelf[] = v -> u <= v.
	lang:solve:variable(` + "`Stock" + `).
	lang:solve:max(` + "`totalProfit" + `).
`

func fig2Data() map[string]relation.Relation {
	f := func(p string, v float64) tuple.Tuple { return tuple.Of(tuple.String(p), tuple.Float(v)) }
	return map[string]relation.Relation{
		"Product":       relation.FromTuples(1, []tuple.Tuple{tuple.Strings("a"), tuple.Strings("b")}),
		"spacePerProd":  relation.FromTuples(2, []tuple.Tuple{f("a", 2), f("b", 1)}),
		"profitPerProd": relation.FromTuples(2, []tuple.Tuple{f("a", 5), f("b", 2)}),
		"minStock":      relation.FromTuples(2, []tuple.Tuple{f("a", 0), f("b", 0)}),
		"maxStock":      relation.FromTuples(2, []tuple.Tuple{f("a", 8), f("b", 8)}),
		"maxShelf":      relation.FromTuples(1, []tuple.Tuple{{tuple.Float(10)}}),
	}
}

func compileSrc(t *testing.T, src string) *compiler.Program {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	c, err := compiler.Compile(prog)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return c
}

func TestGroundFig2LP(t *testing.T) {
	prog := compileSrc(t, fig2Program)
	g, err := Ground(prog, fig2Data())
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVars() != 2 {
		t.Fatalf("vars = %d (%v)", g.NumVars(), g.Vars())
	}
	rels, sol, err := g.Solve()
	if err != nil {
		t.Fatal(err)
	}
	// LP: max 5a + 2b s.t. 2a + b ≤ 10, 0 ≤ a,b ≤ 8.
	// Optimum: a = 5? a ≤ 8, 2a ≤ 10 → a = 5, b = 0? obj 25. Or a=1,b=8:
	// 2+8=10, obj 5+16=21. Or a=4,b=2: 10, obj 24. Best is a=5,b=0 → 25.
	if math.Abs(sol.Objective-25) > 1e-6 {
		t.Fatalf("objective = %v, want 25", sol.Objective)
	}
	stock := rels["Stock"]
	if va, ok := stock.FuncGet(tuple.Strings("a")); !ok || math.Abs(va.AsFloat()-5) > 1e-6 {
		t.Fatalf("Stock[a] = %v", va)
	}
	if vb, ok := stock.FuncGet(tuple.Strings("b")); !ok || math.Abs(vb.AsFloat()) > 1e-6 {
		t.Fatalf("Stock[b] = %v", vb)
	}
}

func TestGroundRespectsMinStock(t *testing.T) {
	prog := compileSrc(t, fig2Program)
	data := fig2Data()
	// Force b's stock to at least 4.
	data["minStock"] = relation.FromTuples(2, []tuple.Tuple{
		tuple.Of(tuple.String("a"), tuple.Float(0)),
		tuple.Of(tuple.String("b"), tuple.Float(4)),
	})
	g, err := Ground(prog, data)
	if err != nil {
		t.Fatal(err)
	}
	rels, sol, err := g.Solve()
	if err != nil {
		t.Fatal(err)
	}
	// 2a + b ≤ 10, b ≥ 4 → a ≤ 3, best a=3,b=4 → 15+8=23.
	if math.Abs(sol.Objective-23) > 1e-6 {
		t.Fatalf("objective = %v, want 23", sol.Objective)
	}
	if vb, _ := rels["Stock"].FuncGet(tuple.Strings("b")); math.Abs(vb.AsFloat()-4) > 1e-6 {
		t.Fatalf("Stock[b] = %v", vb)
	}
}

func TestGroundMIPWhenIntegerDeclared(t *testing.T) {
	// Re-declare Stock as int: the paper says the system detects this and
	// reformulates as a MIP (§2.3.1).
	src := fig2Program + "\nlang:solve:integer(`Stock).\n"
	prog := compileSrc(t, src)
	data := fig2Data()
	// Fractional LP optimum: shelf 2a + b ≤ 9 → a = 4.5; MIP must pick
	// integers.
	data["maxShelf"] = relation.FromTuples(1, []tuple.Tuple{{tuple.Float(9)}})
	g, err := Ground(prog, data)
	if err != nil {
		t.Fatal(err)
	}
	if !g.HasInteger() {
		t.Fatalf("integer declaration not detected")
	}
	rels, sol, err := g.Solve()
	if err != nil {
		t.Fatal(err)
	}
	// Integer optimum: a=4,b=1 → 20+2=22.
	if math.Abs(sol.Objective-22) > 1e-6 {
		t.Fatalf("objective = %v, want 22", sol.Objective)
	}
	va, _ := rels["Stock"].FuncGet(tuple.Strings("a"))
	if va.Kind() != tuple.KindInt || va.AsInt() != 4 {
		t.Fatalf("Stock[a] = %v (kind %v)", va, va.Kind())
	}
}

func TestGroundMinimization(t *testing.T) {
	src := `
		cost[p] = v -> Product(p), float(v).
		Buy[p] = v -> Product(p), float(v).
		demand[] = v -> float(v).
		totalBuy[] = u <- agg<<u = sum(x)>> Buy[p] = x.
		totalCost[] = u <- agg<<u = sum(z)>> Buy[p] = x, cost[p] = y, z = x * y.
		Product(p) -> Buy[p] >= 0.0.
		totalBuy[] = u, demand[] = d -> u >= d.
		lang:solve:variable(` + "`Buy" + `).
		lang:solve:min(` + "`totalCost" + `).`
	prog := compileSrc(t, src)
	data := map[string]relation.Relation{
		"Product": relation.FromTuples(1, []tuple.Tuple{tuple.Strings("x"), tuple.Strings("y")}),
		"cost": relation.FromTuples(2, []tuple.Tuple{
			tuple.Of(tuple.String("x"), tuple.Float(3)),
			tuple.Of(tuple.String("y"), tuple.Float(1)),
		}),
		"demand": relation.FromTuples(1, []tuple.Tuple{{tuple.Float(7)}}),
	}
	g, err := Ground(prog, data)
	if err != nil {
		t.Fatal(err)
	}
	rels, sol, err := g.Solve()
	if err != nil {
		t.Fatal(err)
	}
	// Buy 7 units of the cheap product: cost 7.
	if math.Abs(sol.Objective-7) > 1e-6 {
		t.Fatalf("objective = %v, want 7", sol.Objective)
	}
	if vy, _ := rels["Buy"].FuncGet(tuple.Strings("y")); math.Abs(vy.AsFloat()-7) > 1e-6 {
		t.Fatalf("Buy[y] = %v", vy)
	}
}

// TestProblemRowsInConstraintOrder: Problem lists each solver-facing
// constraint's rows in the order the constraints are declared, not in the
// order of the names they read.
func TestProblemRowsInConstraintOrder(t *testing.T) {
	src := `
		zMax[p] = v -> Product(p), float(v).
		aMin[p] = v -> Product(p), float(v).
		mMax[p] = v -> Product(p), float(v).
		X[p] = v -> Product(p), float(v).
		total[] = u <- agg<<u = sum(x)>> X[p] = x.
		Product(p) -> X[p] <= zMax[p].
		Product(p) -> X[p] >= aMin[p].
		Product(p) -> X[p] <= mMax[p].
		lang:solve:variable(` + "`X" + `).
		lang:solve:max(` + "`total" + `).`
	prog := compileSrc(t, src)
	f := func(v float64) relation.Relation {
		return relation.FromTuples(2, []tuple.Tuple{tuple.Of(tuple.String("p"), tuple.Float(v))})
	}
	data := map[string]relation.Relation{
		"Product": relation.FromTuples(1, []tuple.Tuple{tuple.Strings("p")}),
		"zMax":    f(9),
		"aMin":    f(1),
		"mMax":    f(5),
	}
	g, err := Ground(prog, data)
	if err != nil {
		t.Fatal(err)
	}
	want := []LinConstraint{
		{Coeffs: map[int]float64{0: 1}, Op: LE, RHS: 9},
		{Coeffs: map[int]float64{0: 1}, Op: GE, RHS: 1},
		{Coeffs: map[int]float64{0: 1}, Op: LE, RHS: 5},
	}
	if got := g.Problem().Constraints; !reflect.DeepEqual(got, want) {
		t.Fatalf("rows = %v, want %v", got, want)
	}
}

func TestGroundErrorsWithoutDomain(t *testing.T) {
	src := "X[p] = v -> float(v).\nlang:solve:variable(`X).\n"
	prog := compileSrc(t, src)
	if _, err := Ground(prog, map[string]relation.Relation{}); err == nil {
		t.Fatal("expected missing-domain error")
	}
}

func TestGroundRejectsNonlinear(t *testing.T) {
	src := `
		A[p] = v -> P(p), float(v).
		sq[] = u <- agg<<u = sum(z)>> A[p] = x, z = x * x.
		P(p) -> A[p] >= 0.0.
		lang:solve:variable(` + "`A" + `).
		lang:solve:max(` + "`sq" + `).`
	prog := compileSrc(t, src)
	data := map[string]relation.Relation{
		"P": relation.FromTuples(1, []tuple.Tuple{tuple.Strings("p")}),
	}
	if _, err := Ground(prog, data); err == nil {
		t.Fatal("expected nonlinearity error")
	}
}

// TestGroundKeysIntAndFloatApart: Int(1) and Float(1) are different keys
// (they compare unequal), so each gets its own decision variable, row and
// objective term, though both render as "1".
func TestGroundKeysIntAndFloatApart(t *testing.T) {
	src := `
		maxStock[p] = v -> Product(p), float(v).
		Stock[p] = v -> Product(p), float(v).
		totalStock[] = u <- agg<<u = sum(x)>> Stock[p] = x.
		Product(p) -> Stock[p] >= 0.0.
		Product(p) -> Stock[p] <= maxStock[p].
		lang:solve:variable(` + "`Stock" + `).
		lang:solve:max(` + "`totalStock" + `).`
	prog := compileSrc(t, src)
	i, f := tuple.Int(1), tuple.Float(1)
	data := map[string]relation.Relation{
		"Product": relation.FromTuples(1, []tuple.Tuple{{i}, {f}}),
		"maxStock": relation.FromTuples(2, []tuple.Tuple{
			tuple.Of(i, tuple.Float(3)),
			tuple.Of(f, tuple.Float(5)),
		}),
	}
	g, err := Ground(prog, data)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVars() != 2 {
		t.Fatalf("vars = %d (%v), want 2", g.NumVars(), g.Vars())
	}
	rels, sol, err := g.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.Objective-8) > 1e-6 {
		t.Fatalf("objective = %v, want 8", sol.Objective)
	}
	for _, want := range []tuple.Tuple{tuple.Of(i, tuple.Float(3)), tuple.Of(f, tuple.Float(5))} {
		if v, ok := rels["Stock"].FuncGet(want[:1]); !ok || math.Abs(v.AsFloat()-want[1].AsFloat()) > 1e-6 {
			t.Fatalf("Stock[%v] = %v, %v; want %v", want[0], v, ok, want[1])
		}
	}
}
