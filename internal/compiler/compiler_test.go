package compiler

import (
	"strings"
	"testing"

	"logicblox/internal/parser"
	"logicblox/internal/tuple"
)

func compile(t *testing.T, src string) *Program {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	c, err := Compile(prog)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return c
}

func TestEDBIDBInference(t *testing.T) {
	p := compile(t, `
		path(x, y) <- edge(x, y).
		path(x, z) <- path(x, y), edge(y, z).`)
	if !p.Preds["edge"].EDB {
		t.Errorf("edge should be EDB")
	}
	if p.Preds["path"].EDB {
		t.Errorf("path should be IDB")
	}
}

func TestLangEDBInference(t *testing.T) {
	// The paper's lang_edb meta-rule: a predicate no plain rule derives is
	// a base predicate. The head of a reactive rule is written by the
	// transaction pipeline, so it stays extensional too.
	p := compile(t, `
		path(x, y) <- edge(x, y).
		path(x, z) <- path(x, y), edge(y, z).
		+audit(x) <- +edge(x, y).`)
	for name, edb := range map[string]bool{"edge": true, "path": false, "audit": true} {
		info := p.Preds[name]
		if info == nil {
			t.Fatalf("%s missing from the catalog", name)
		}
		if info.EDB != edb {
			t.Errorf("%s: EDB = %v, want %v", name, info.EDB, edb)
		}
	}
}

func TestDecoratedNames(t *testing.T) {
	if DecoratedName("R", 1, false) != "+R" || DecoratedName("R", 2, true) != "-R@start" {
		t.Fatalf("decoration wrong")
	}
	for _, n := range []string{"R", "+R", "-R", "^R", "R@start", "+R@start"} {
		if BaseName(n) != "R" {
			t.Errorf("BaseName(%s) = %s", n, BaseName(n))
		}
	}
}

func TestReactiveRuleClassification(t *testing.T) {
	p := compile(t, `
		out(x) <- in(x).
		+audit(x) <- +in(x).
		cur[k] = v <- snap@start[k] = v.`)
	if len(p.Rules) != 1 {
		t.Fatalf("static rules = %d", len(p.Rules))
	}
	if len(p.Reactive) != 2 {
		t.Fatalf("reactive rules = %d", len(p.Reactive))
	}
}

func TestTypeHarvesting(t *testing.T) {
	p := compile(t, `
		spacePerProd[p] = v -> Product(p), float(v).`)
	info := p.Preds["spacePerProd"]
	if info == nil || !info.Functional || info.Arity != 2 {
		t.Fatalf("catalog info = %+v", info)
	}
	if info.ColumnKinds[1] != tuple.KindFloat {
		t.Fatalf("value column kind = %v", info.ColumnKinds[1])
	}
}

func TestArityMismatchRejected(t *testing.T) {
	src := `a(x) <- b(x). a(x, y) <- b(x), b(y).`
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(prog); err == nil || !strings.Contains(err.Error(), "arity") {
		t.Fatalf("expected arity error, got %v", err)
	}
}

func TestUnsafeRuleRejected(t *testing.T) {
	for _, src := range []string{
		`a(x) <- b(y), x < y.`,     // head var never bound
		`a(x) <- !b(x).`,           // negation cannot bind
		`a(x) <- b(y), z = w + 1.`, // unbound assignment source
	} {
		prog, err := parser.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Compile(prog); err == nil {
			t.Errorf("Compile(%q) should fail", src)
		}
	}
}

// TestTypeCheckArity: a type check in a constraint head takes one
// argument; int() would probe a unary type with an empty pattern.
func TestTypeCheckArity(t *testing.T) {
	for _, src := range []string{`e(x, y) -> int().`, `e(x, y) -> int(x, y).`} {
		prog, err := parser.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Compile(prog); err == nil || !strings.Contains(err.Error(), "takes one argument") {
			t.Errorf("Compile(%q) = %v, want a type-check arity error", src, err)
		}
	}
}

func TestStratificationRejectsNegativeCycle(t *testing.T) {
	src := `a(x) <- c(x), !b(x). b(x) <- a(x).`
	prog, _ := parser.Parse(src)
	if _, err := Compile(prog); err == nil || !strings.Contains(err.Error(), "stratified") {
		t.Fatalf("expected stratification error, got %v", err)
	}
}

func TestStratificationRejectsRecursiveAggregation(t *testing.T) {
	src := `total[] = u <- agg<<u = sum(x)>> f(x). f(x) <- total[] = x.`
	prog, _ := parser.Parse(src)
	if _, err := Compile(prog); err == nil || !strings.Contains(err.Error(), "stratified") {
		t.Fatalf("expected stratification error, got %v", err)
	}
}

func TestStrataOrderRespectsDependencies(t *testing.T) {
	p := compile(t, `
		c(x) <- b(x), !excl(x).
		b(x) <- a(x).
		d(x) <- c(x).`)
	pos := map[string]int{}
	for i, stratum := range p.Strata {
		for _, r := range stratum {
			pos[r.HeadName] = i
		}
	}
	if !(pos["b"] <= pos["c"] && pos["c"] <= pos["d"]) {
		t.Fatalf("strata order wrong: %v", pos)
	}
}

func TestRecursiveSCCSharesStratum(t *testing.T) {
	p := compile(t, `
		even(x) <- zero(x).
		even(y) <- odd(x), succ(x, y).
		odd(y) <- even(x), succ(x, y).`)
	pos := map[string]int{}
	for i, stratum := range p.Strata {
		for _, r := range stratum {
			if prev, seen := pos[r.HeadName]; seen && prev != i {
				t.Fatalf("rules for %s split across strata %d and %d", r.HeadName, prev, i)
			}
			pos[r.HeadName] = i
		}
	}
	if pos["even"] != pos["odd"] {
		t.Fatalf("mutually recursive predicates in different strata: %v", pos)
	}
}

func TestSecondaryIndexPlanned(t *testing.T) {
	// T(a,c) in the triangle query under variable order [a,b,c] is fine;
	// force an inconsistent atom: R(b,a) when order must start at a (a is
	// in two atoms).
	p := compile(t, `out(a, b) <- r(b, a), s(a, b), t(a).`)
	r := p.Rules[0]
	foundPerm := false
	for _, a := range r.Atoms {
		if a.Perm != nil {
			foundPerm = true
			// Permuted vars must be strictly increasing.
			for i := 1; i < len(a.Vars); i++ {
				if a.Vars[i-1] >= a.Vars[i] {
					t.Fatalf("atom %s vars not increasing: %v", a.Name, a.Vars)
				}
			}
		}
	}
	if !foundPerm {
		t.Fatalf("expected at least one secondary index, plans: %+v", r.Atoms)
	}
}

func TestConstantsBecomeConstBinds(t *testing.T) {
	p := compile(t, `out(x) <- r(x, 2).`)
	r := p.Rules[0]
	if len(r.Consts) != 1 || !tuple.Equal(r.Consts[0].Val, tuple.Int(2)) {
		t.Fatalf("consts = %+v", r.Consts)
	}
}

func TestRepeatedVariableRewrite(t *testing.T) {
	p := compile(t, `diag(x) <- r(x, x).`)
	r := p.Rules[0]
	if len(r.Filters) != 1 || r.Filters[0].Op != "=" {
		t.Fatalf("expected equality filter for repeated variable, got %+v", r.Filters)
	}
}

func TestDesugaredFunctionalApplication(t *testing.T) {
	p := compile(t, `profit[s] = sellingPrice[s] - buyingPrice[s] <- Product(s).`)
	r := p.Rules[0]
	names := map[string]bool{}
	for _, b := range r.BodyNames {
		names[b] = true
	}
	if !names["sellingPrice"] || !names["buyingPrice"] || !names["Product"] {
		t.Fatalf("desugaring missed atoms: %v", r.BodyNames)
	}
}

func TestSolveDirectives(t *testing.T) {
	p := compile(t, "lang:solve:variable(`Stock).\nlang:solve:max(`totalProfit).\nlang:solve:integer(`Stock).")
	if p.Solve == nil || len(p.Solve.Variables) != 1 || p.Solve.Variables[0] != "Stock" {
		t.Fatalf("solve spec = %+v", p.Solve)
	}
	if p.Solve.Maximize != "totalProfit" || len(p.Solve.Integral) != 1 {
		t.Fatalf("solve spec = %+v", p.Solve)
	}
}

func TestVariableOrderHeuristicMostConstrainedFirst(t *testing.T) {
	// b appears in three atoms, a in one: b should come before a.
	p := compile(t, `out(a, b) <- r(a, b), s(b), t(b).`)
	r := p.Rules[0]
	slotOf := map[string]int{}
	for i, n := range r.VarNames {
		slotOf[n] = i
	}
	if slotOf["b"] > slotOf["a"] {
		t.Fatalf("variable order %v does not put most-constrained first", r.VarNames)
	}
}

func TestCompareValues(t *testing.T) {
	cases := []struct {
		op   string
		l, r tuple.Value
		want bool
	}{
		{"=", tuple.Int(2), tuple.Float(2.0), true},
		{"<", tuple.Int(1), tuple.Float(1.5), true},
		{"!=", tuple.String("a"), tuple.Int(1), true},
		{">=", tuple.Float(2.5), tuple.Int(2), true},
		{"=", tuple.String("x"), tuple.String("x"), true},
		{"<", tuple.String("a"), tuple.String("b"), true},
	}
	for _, c := range cases {
		got, err := CompareValues(c.op, c.l, c.r)
		if err != nil || got != c.want {
			t.Errorf("CompareValues(%s, %v, %v) = %v, %v", c.op, c.l, c.r, got, err)
		}
	}
	if _, err := CompareValues("<", tuple.String("a"), tuple.Int(1)); err == nil {
		t.Errorf("ordering across kinds should error")
	}
}

func TestArithExprEval(t *testing.T) {
	e := ArithExpr{Op: '*', L: VarExpr{0}, R: ConstExpr{tuple.Float(2.5)}}
	v, err := e.Eval(tuple.Tuple{tuple.Int(4)}, nil)
	if err != nil || v.AsFloat() != 10 {
		t.Fatalf("eval = %v, %v", v, err)
	}
	intDiv := ArithExpr{Op: '/', L: ConstExpr{tuple.Int(7)}, R: ConstExpr{tuple.Int(2)}}
	v, _ = intDiv.Eval(nil, nil)
	if v.AsInt() != 3 {
		t.Fatalf("integer division = %v", v)
	}
	if _, err := (ArithExpr{Op: '/', L: ConstExpr{tuple.Int(1)}, R: ConstExpr{tuple.Int(0)}}).Eval(nil, nil); err == nil {
		t.Fatalf("division by zero should error")
	}
	if _, err := (ArithExpr{Op: '+', L: ConstExpr{tuple.String("a")}, R: ConstExpr{tuple.Int(1)}}).Eval(nil, nil); err == nil {
		t.Fatalf("string arithmetic should error")
	}
}

// A stratum is one SCC of the predicate graph, so one that is not
// recursive has a single head predicate — and holds every rule of it.
func TestNonRecursiveStratumHasOneHead(t *testing.T) {
	for _, src := range []string{
		// union views, chained
		`v(x) <- a(x). v(x) <- b(x). w(x) <- v(x), c(x). w(x) <- a(x), !v(x).`,
		// an aggregate sharing its head with a plain rule
		`h[k] = u <- agg<<u = sum(n)>> s[k, j] = n. h[k] = v <- extra[k] = v. top(k) <- h[k] = v, v > 3.`,
		// mutual recursion next to independent views
		`even(x) <- zero(x). even(y) <- odd(x), succ(x, y). odd(y) <- even(x), succ(x, y).
		 small(x) <- even(x), x < 4. small(x) <- odd(x), x < 3.`,
		// self-recursion with a second, non-recursive rule
		`path(x, y) <- edge(x, y). path(x, z) <- path(x, y), edge(y, z). far(x) <- path(x, y), !edge(x, y).`,
	} {
		p := compile(t, src)
		rulesOf := map[string]int{}
		for _, r := range p.Rules {
			rulesOf[r.HeadName]++
		}
		for _, stratum := range p.Strata {
			heads := map[string]int{}
			for _, r := range stratum {
				heads[r.HeadName]++
			}
			if len(heads) > 1 && !StratumRecursive(stratum) {
				t.Errorf("non-recursive stratum with heads %v in\n%s", heads, src)
			}
			for h, n := range heads {
				if n != rulesOf[h] {
					t.Errorf("stratum holds %d of %s's %d rules in\n%s", n, h, rulesOf[h], src)
				}
			}
		}
	}
}
