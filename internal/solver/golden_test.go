package solver

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"logicblox/internal/engine"
	"logicblox/internal/relation"
	"logicblox/internal/tuple"
	"logicblox/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/lp.golden from the current grounding")

// fig2Base is Figure 2 without its objective rule and directive, as
// examples/assortment installs it; the golden programs add objectives.
const fig2Base = `
	spacePerProd[p] = v -> Product(p), float(v).
	profitPerProd[p] = v -> Product(p), float(v).
	minStock[p] = v -> Product(p), float(v).
	maxStock[p] = v -> Product(p), float(v).
	maxShelf[] = v -> float[64](v).
	Stock[p] = v -> Product(p), float(v).
	totalShelf[] = u <- agg<<u = sum(z)>> Stock[p] = x, spacePerProd[p] = y, z = x * y.
	Product(p) -> Stock[p] >= minStock[p].
	Product(p) -> Stock[p] <= maxStock[p].
	totalShelf[] = u, maxShelf[] = v -> u <= v.
	lang:solve:variable(` + "`Stock" + `).
`

// assortmentData is examples/assortment's instance: workload.Generate's
// 20 products and a shelf of 60.
func assortmentData() map[string]relation.Relation {
	data := map[string]relation.Relation{}
	for name, rel := range workload.Generate(workload.Config{Products: 20, Stores: 1, Weeks: 1, Seed: 8}).Relations() {
		switch name {
		case "Product", "spacePerProd", "profitPerProd", "minStock", "maxStock":
			data[name] = rel
		}
	}
	data["maxShelf"] = relation.FromTuples(1, []tuple.Tuple{{tuple.Float(60)}})
	return data
}

// goldenPrograms are every solver program the repository runs: the
// solver tests', the public API test's, the REPL test's, Figure 2 over
// the assortment example's data (LP and MIP), and objectives that reach
// the objective's linear form other ways than a nullary head reading the
// free predicate: keyed by product, reading Stock through a functional
// lookup, and reading it only through a keyed linear head.
func goldenPrograms() []struct {
	name string
	src  string
	data map[string]relation.Relation
} {
	f := func(p string, v float64) tuple.Tuple { return tuple.Of(tuple.String(p), tuple.Float(v)) }
	minStockB := fig2Data()
	minStockB["minStock"] = relation.FromTuples(2, []tuple.Tuple{f("a", 0), f("b", 4)})
	mip := fig2Data()
	mip["maxShelf"] = relation.FromTuples(1, []tuple.Tuple{{tuple.Float(9)}})
	i, fl := tuple.Int(1), tuple.Float(1)
	return []struct {
		name string
		src  string
		data map[string]relation.Relation
	}{
		{"fig2", fig2Program, fig2Data()},
		{"fig2 minStock", fig2Program, minStockB},
		{"fig2 mip", fig2Program + "\nlang:solve:integer(`Stock).\n", mip},
		{"minimization", `
			cost[p] = v -> Product(p), float(v).
			Buy[p] = v -> Product(p), float(v).
			demand[] = v -> float(v).
			totalBuy[] = u <- agg<<u = sum(x)>> Buy[p] = x.
			totalCost[] = u <- agg<<u = sum(z)>> Buy[p] = x, cost[p] = y, z = x * y.
			Product(p) -> Buy[p] >= 0.0.
			totalBuy[] = u, demand[] = d -> u >= d.
			lang:solve:variable(` + "`Buy" + `).
			lang:solve:min(` + "`totalCost" + `).`, map[string]relation.Relation{
			"Product": relation.FromTuples(1, []tuple.Tuple{tuple.Strings("x"), tuple.Strings("y")}),
			"cost":    relation.FromTuples(2, []tuple.Tuple{f("x", 3), f("y", 1)}),
			"demand":  relation.FromTuples(1, []tuple.Tuple{{tuple.Float(7)}}),
		}},
		{"rows in constraint order", `
			zMax[p] = v -> Product(p), float(v).
			aMin[p] = v -> Product(p), float(v).
			mMax[p] = v -> Product(p), float(v).
			X[p] = v -> Product(p), float(v).
			total[] = u <- agg<<u = sum(x)>> X[p] = x.
			Product(p) -> X[p] <= zMax[p].
			Product(p) -> X[p] >= aMin[p].
			Product(p) -> X[p] <= mMax[p].
			lang:solve:variable(` + "`X" + `).
			lang:solve:max(` + "`total" + `).`, map[string]relation.Relation{
			"Product": relation.FromTuples(1, []tuple.Tuple{tuple.Strings("p")}),
			"zMax":    relation.FromTuples(2, []tuple.Tuple{f("p", 9)}),
			"aMin":    relation.FromTuples(2, []tuple.Tuple{f("p", 1)}),
			"mMax":    relation.FromTuples(2, []tuple.Tuple{f("p", 5)}),
		}},
		{"no domain", "X[p] = v -> float(v).\nlang:solve:variable(`X).\n", map[string]relation.Relation{}},
		{"nonlinear", `
			A[p] = v -> P(p), float(v).
			sq[] = u <- agg<<u = sum(z)>> A[p] = x, z = x * x.
			P(p) -> A[p] >= 0.0.
			lang:solve:variable(` + "`A" + `).
			lang:solve:max(` + "`sq" + `).`, map[string]relation.Relation{
			"P": relation.FromTuples(1, []tuple.Tuple{tuple.Strings("p")}),
		}},
		{"int and float keys", `
			maxStock[p] = v -> Product(p), float(v).
			Stock[p] = v -> Product(p), float(v).
			totalStock[] = u <- agg<<u = sum(x)>> Stock[p] = x.
			Product(p) -> Stock[p] >= 0.0.
			Product(p) -> Stock[p] <= maxStock[p].
			lang:solve:variable(` + "`Stock" + `).
			lang:solve:max(` + "`totalStock" + `).`, map[string]relation.Relation{
			"Product":  relation.FromTuples(1, []tuple.Tuple{{i}, {fl}}),
			"maxStock": relation.FromTuples(2, []tuple.Tuple{tuple.Of(i, tuple.Float(3)), tuple.Of(fl, tuple.Float(5))}),
		}},
		{"public api", `
			spacePerProd[p] = v -> Product(p), float(v).
			profitPerProd[p] = v -> Product(p), float(v).
			maxShelf[] = v -> float(v).
			Stock[p] = v -> Product(p), float(v).
			totalShelf[] = u <- agg<<u = sum(z)>> Stock[p] = x, spacePerProd[p] = y, z = x * y.
			totalProfit[] = u <- agg<<u = sum(z)>> Stock[p] = x, profitPerProd[p] = y, z = x * y.
			Product(p) -> Stock[p] >= 0.0.
			totalShelf[] = u, maxShelf[] = v -> u <= v.
			lang:solve:variable(` + "`Stock" + `).
			lang:solve:max(` + "`totalProfit" + `).`, map[string]relation.Relation{
			"Product":       relation.FromTuples(1, []tuple.Tuple{tuple.Strings("a"), tuple.Strings("b")}),
			"spacePerProd":  relation.FromTuples(2, []tuple.Tuple{f("a", 1), f("b", 2)}),
			"profitPerProd": relation.FromTuples(2, []tuple.Tuple{f("a", 3), f("b", 4)}),
			"maxShelf":      relation.FromTuples(1, []tuple.Tuple{{tuple.Float(10)}}),
		}},
		{"repl", `
			profitPer[p] = v -> Item(p), float(v).
			Buy[p] = v -> Item(p), float(v).
			cap[] = v -> float(v).
			totalBuy[] = u <- agg<<u = sum(x)>> Buy[p] = x.
			totalProfit[] = u <- agg<<u = sum(z)>> Buy[p] = x, profitPer[p] = y, z = x * y.
			Item(p) -> Buy[p] >= 0.0.
			totalBuy[] = u, cap[] = v -> u <= v.
			lang:solve:variable(` + "`Buy" + `).
			lang:solve:max(` + "`totalProfit" + `).`, map[string]relation.Relation{
			"Item":      relation.FromTuples(1, []tuple.Tuple{tuple.Strings("x")}),
			"profitPer": relation.FromTuples(2, []tuple.Tuple{f("x", 2)}),
			"cap":       relation.FromTuples(1, []tuple.Tuple{{tuple.Float(5)}}),
		}},
		{"assortment", fig2Base + `
			totalProfit[] = u <- agg<<u = sum(z)>> Stock[p] = x, profitPerProd[p] = y, z = x * y.
			lang:solve:max(` + "`totalProfit" + `).`, assortmentData()},
		{"assortment mip", fig2Base + `
			totalProfit[] = u <- agg<<u = sum(z)>> Stock[p] = x, profitPerProd[p] = y, z = x * y.
			lang:solve:max(` + "`totalProfit" + `).
			lang:solve:integer(` + "`Stock" + `).`, assortmentData()},
		{"assortment keyed objective", fig2Base + `
			profitOf[p] = u <- agg<<u = sum(z)>> Stock[p] = x, profitPerProd[p] = y, z = x * y.
			lang:solve:max(` + "`profitOf" + `).`, assortmentData()},
		{"assortment objective by lookup", fig2Base + `
			totalProfit[] = u <- agg<<u = sum(z)>> Product(p), profitPerProd[p] = y, z = Stock[p] * y.
			lang:solve:max(` + "`totalProfit" + `).`, assortmentData()},
		{"assortment objective over a linear head", fig2Base + `
			profitOf[p] = u <- agg<<u = sum(z)>> Stock[p] = x, profitPerProd[p] = y, z = x * y.
			totalProfit[] = u <- agg<<u = sum(z)>> profitOf[p] = z.
			lang:solve:max(` + "`totalProfit" + `).`, assortmentData()},
	}
}

// TestLPGolden pins every LP the repository grounds and every solution
// it reads: per program, the decision variables in order, the objective
// and its constant, the rows in order, and the solution's status,
// objective and values, each float in its shortest exact form. The
// relations are the workspace's before a solve: the data and every
// derived predicate evaluated over it. A program that does not ground
// prints "ground: error". go test -run TestLPGolden -update rewrites
// testdata/lp.golden.
func TestLPGolden(t *testing.T) {
	var b strings.Builder
	for _, p := range goldenPrograms() {
		fmt.Fprintf(&b, "== %s\n", p.name)
		prog := compileSrc(t, p.src)
		ctx := engine.NewContext(prog, p.data, engine.Options{})
		if err := ctx.EvalAll(); err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		g, err := Ground(prog, ctx.Relations())
		if err != nil {
			b.WriteString("ground: error\n")
			continue
		}
		dumpLP(&b, g)
		_, sol, err := g.Solve()
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		fmt.Fprintf(&b, "solution: %s %s x=%s\n", sol.Status, num(sol.Objective), nums(sol.X))
	}
	path := filepath.Join("testdata", "lp.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range min(len(gl), len(wl)) {
			if gl[i] != wl[i] {
				t.Fatalf("lp.golden differs at line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("lp.golden differs in length: got %d lines, want %d", len(gl), len(wl))
	}
}

func dumpLP(b *strings.Builder, g *Grounding) {
	p := g.Problem()
	b.WriteString("vars:")
	for i, v := range g.Vars() {
		kind := "real"
		if p.Integer[i] {
			kind = "int"
		}
		fmt.Fprintf(b, " %s%s:%s", v.Pred, v.Key, kind)
	}
	fmt.Fprintf(b, "\nobjective: %s constant %s\n", nums(p.Objective), num(g.objConst))
	for _, r := range p.Constraints {
		vars := make([]int, 0, len(r.Coeffs))
		for v := range r.Coeffs {
			vars = append(vars, v)
		}
		slices.Sort(vars)
		b.WriteString("row:")
		for _, v := range vars {
			fmt.Fprintf(b, " %s*x%d", num(r.Coeffs[v]), v)
		}
		fmt.Fprintf(b, " %c= %s\n", r.Op, num(r.RHS))
	}
}

func num(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

func nums(fs []float64) string {
	out := make([]string, len(fs))
	for i, f := range fs {
		out[i] = num(f)
	}
	return "[" + strings.Join(out, " ") + "]"
}
