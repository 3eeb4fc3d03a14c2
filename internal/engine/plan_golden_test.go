package engine_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"logicblox/internal/compiler"
	"logicblox/internal/parser"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/plans.golden from the current compiler")

// goldenSchema is the benchmark's installed retail program and the view
// its workbook cycle adds on a branch.
const goldenSchema = `sales[p, s, wk] = n -> int(p), int(s), int(wk), int(n).
price[p] = v -> int(p), int(v).
edge(a, b) -> int(a), int(b).
salesByProduct[p] = u <- agg<<u = sum(n)>> sales[p, s, wk] = n.
salesByStore[s] = u <- agg<<u = sum(n)>> sales[p, s, wk] = n.
revenue[p] = r <- salesByProduct[p] = u, price[p] = v, r = u * v.
hot(p) <- salesByProduct[p] = u, u > 5500.
sales[p, s, wk] = n -> n >= 0.
salesByProduct[p] = u -> price[p] = _.
salesByWeek[wk] = u <- agg<<u = sum(n)>> sales[p, s, wk] = n.
`

// goldenQueries are the benchmark's request shapes over goldenSchema:
// point, prefix, scan, triangle, aggregate and range reads.
var goldenQueries = []string{
	`_(u) <- salesByProduct[7] = u.`,
	`_(u) <- revenue[7] = u.`,
	`_(s, wk, n) <- sales[7, s, wk] = n.`,
	`_(p, s, wk, n) <- sales[p, s, wk] = n.`,
	`_(a, b, c) <- edge(a, b), edge(b, c), edge(a, c).`,
	"byStore[s] = u <- agg<<u = sum(n)>> sales[p, s, wk] = n.\n_(s, u) <- byStore[s] = u.",
	`_(p, s, wk, n) <- sales[p, s, wk] = n, n > 95, p < 120.`,
	`_(wk, u) <- salesByWeek[wk] = u.`,
}

// TestPlanGolden pins the compiler's plans: the variable layout, every
// atom's columns, constants, range binds, assignments and aggregate/predict slots of
// each rule and constraint body of the differential suite, the retail
// schema and the benchmark's queries, and the order each rule would be
// streamed in (compiler.StreamOrder). A change to any of them is a planning change, which must show
// here (go test -run TestPlanGolden -update rewrites the file).
func TestPlanGolden(t *testing.T) {
	var b strings.Builder
	for seed := int64(0); seed < suitePrograms; seed++ {
		fmt.Fprintf(&b, "== suite %d\n", seed)
		dumpProgram(&b, compileGen(t, suiteProgram(seed)), 0, 0)
	}
	schema := compileSrc(t, &compiler.Program{}, goldenSchema)
	b.WriteString("== retail schema\n")
	dumpProgram(&b, schema, 0, 0)
	for _, q := range goldenQueries {
		fmt.Fprintf(&b, "== query %q\n", q)
		dumpProgram(&b, compileSrc(t, schema, q), len(schema.Rules), len(schema.Constraints))
	}
	path := filepath.Join("testdata", "plans.golden")
	if *updateGolden {
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
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("plans drifted from %s at line %d:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("plans drifted from %s: %d lines, want %d", path, len(gl), len(wl))
	}
}

func compileSrc(t *testing.T, base *compiler.Program, src string) *compiler.Program {
	t.Helper()
	ast, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	prog, err := compiler.Extend(base, ast)
	if err != nil {
		t.Fatalf("compile %q: %v", src, err)
	}
	return prog
}

// dumpProgram writes the plans of prog's rules and constraints from the
// given indices on.
func dumpProgram(b *strings.Builder, prog *compiler.Program, rules, constraints int) {
	for _, r := range prog.Rules[rules:] {
		fmt.Fprintf(b, "rule %s\n", r.Source)
		dumpLayout(b, "  ", r)
		b.WriteString("  streamed:\n")
		dumpLayout(b, "    ", compiler.StreamOrder(r))
	}
	for _, k := range prog.Constraints[constraints:] {
		fmt.Fprintf(b, "constraint %s\n", k.Source)
		dumpLayout(b, "  ", k.Body)
	}
}

func dumpLayout(b *strings.Builder, indent string, r *compiler.RulePlan) {
	fmt.Fprintf(b, "%svars %v join %d\n", indent, r.VarNames, r.NumJoinVars)
	for _, a := range r.Atoms {
		fmt.Fprintf(b, "%satom %s vars %v perm %v\n", indent, a.Name, a.Vars, a.Perm)
	}
	for _, c := range r.Consts {
		fmt.Fprintf(b, "%sconst %d = %s %s\n", indent, c.Var, c.Val.Kind(), c.Val)
	}
	for _, rb := range r.Ranges {
		fmt.Fprintf(b, "%srange %d %s %s %s\n", indent, rb.Var, rb.Op, rb.Val.Kind(), rb.Val)
	}
	for _, a := range r.NegAtoms {
		fmt.Fprintf(b, "%snot %s %v\n", indent, a.Name, a.Args)
	}
	for _, f := range r.Filters {
		fmt.Fprintf(b, "%sfilter %v %s %v\n", indent, f.L, f.Op, f.R)
	}
	for _, a := range r.Assigns {
		fmt.Fprintf(b, "%sassign %d = %v\n", indent, a.Slot, a.E)
	}
	fmt.Fprintf(b, "%shead %v\n", indent, r.HeadExprs)
	if r.Agg != nil {
		fmt.Fprintf(b, "%sagg %+v\n", indent, *r.Agg)
	}
	if r.Predict != nil {
		fmt.Fprintf(b, "%spredict %+v\n", indent, *r.Predict)
	}
}
