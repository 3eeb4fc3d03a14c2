package compiler

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"logicblox/internal/parser"
)

// retailSchema is the benchmark's installed block: functional base
// predicates, aggregate views, a view over a view, and constraints.
const retailSchema = `sales[p, s, wk] = n -> int(p), int(s), int(wk), int(n).
price[p] = v -> int(p), int(v).
edge(a, b) -> int(a), int(b).
salesByProduct[p] = u <- agg<<u = sum(n)>> sales[p, s, wk] = n.
salesByStore[s] = u <- agg<<u = sum(n)>> sales[p, s, wk] = n.
revenue[p] = r <- salesByProduct[p] = u, price[p] = v, r = u * v.
hot(p) <- salesByProduct[p] = u, u > 5500.
sales[p, s, wk] = n -> n >= 0.
salesByProduct[p] = u -> price[p] = _.`

// Request shapes of the benchmark: a one-fact exec and a point read.
const (
	execRequest  = `^sales[7, 3, 11] = 42.`
	pointRequest = `_(u) <- salesByProduct[7] = u.`
)

// FuzzExtendMatchesCompile is Extend's oracle: extending the compiled
// installed program a with a request b yields exactly the program that
// compiling a and b together does, or both fail, and the installed
// program is left as a fresh compile of a.
func FuzzExtendMatchesCompile(f *testing.F) {
	for _, seed := range [][2]string{
		{retailSchema, execRequest},
		{retailSchema, `+sales[1, 2, 11] = 7. -sales[1, 2, 3] = 4.`},
		{retailSchema, pointRequest},
		{retailSchema, `_(s, wk, n) <- sales[7, s, wk] = n.`},
		{retailSchema, "byStore[s] = u <- agg<<u = sum(n)>> sales[p, s, wk] = n.\n_(s, u) <- byStore[s] = u."},
		{retailSchema, `_(p, s, wk, n) <- sales[p, s, wk] = n, n > 50, p < 20.`},
		{retailSchema, `^sales[p, s, 11] = m <- sales@start[p, s, 3] = n, m = n + 1.`},
		// An installed reactive rule, fed by the request's delta.
		{`edge(x, y) -> int(x), int(y). +audit(x) <- +edge(x, y).`, `+edge(1, 2).`},
		// A request rule whose head is an installed predicate.
		{retailSchema, `hot(p) <- price[p] = v, v > 50. _(p) <- hot(p).`},
		{`path(x, y) <- edge(x, y).`, `path(x, z) <- path(x, y), edge(y, z). _(x, y) <- path(x, y).`},
		// A request that types an installed predicate, or uses it
		// functionally.
		{`r(x, y) <- q(x, y).`, `q(x, y) -> int(x), float(y).`},
		{`r(x, y) <- q(x, y).`, `_(x) <- q[x] = y.`},
		{`r(x, y) -> int(x), int(y).`, `r(x, y) -> string(x).`},
		// Constants minting fresh variables in both the installed
		// constraints and the request's rules.
		{`r(x, 3) -> s(x). s(x) -> t(x, x).`, `_(x) <- r(x, 5), r(x, _).`},
		// Arity clash between the two.
		{`r(x, y) -> int(x), int(y).`, `_(x) <- r(x).`},
		// lang:solve directives on both sides.
		{"lang:solve:variable(`Stock).\nStock[p] = v -> int(p), float(v).", "lang:solve:variable(`Price).\nlang:solve:max(`profit).\nlang:solve:integer(`Stock)."},
		{"lang:solve:variable(`Stock).", "lang:solve:bogus(`Stock)."},
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		pa, err := parser.Parse(a)
		if err != nil {
			return
		}
		pb, err := parser.Parse(b)
		if err != nil {
			return
		}
		base, err := Compile(pa)
		if err != nil {
			return // nothing installed to extend
		}
		want, werr := Compile(pa, pb)
		got, gerr := Extend(base, pb)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("Compile(a, b) err = %v, Extend(Compile(a), b) err = %v", werr, gerr)
		}
		if werr == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("Extend(Compile(a), b) differs from Compile(a, b)\na: %q\nb: %q", a, b)
		}
		if gerr == nil {
			for _, strata := range [][][]*RulePlan{got.Strata, got.ReactiveStrata} {
				if err := strataOrderErr(strata); err != nil {
					t.Fatalf("%v\na: %q\nb: %q", err, a, b)
				}
			}
		}
		if again, _ := Compile(pa); !reflect.DeepEqual(base, again) {
			t.Fatalf("Extend modified its base program\na: %q\nb: %q", a, b)
		}
	})
}

// strataOrderErr reports why strata are not an evaluation order: a
// predicate a stratum reads, positively or negated, must be derived only
// in earlier strata or, for a recursive clique, in that same stratum, and
// a negated or aggregated read never in that same stratum.
func strataOrderErr(strata [][]*RulePlan) error {
	last := map[string]int{} // head → the last stratum deriving it
	for i, stratum := range strata {
		for _, r := range stratum {
			last[r.HeadName] = i
		}
	}
	for i, stratum := range strata {
		for _, r := range stratum {
			blocked := r.NegNames
			if r.Agg != nil || r.Predict != nil {
				blocked = append(slices.Clip(r.BodyNames), r.NegNames...)
			}
			for _, b := range append(slices.Clip(r.BodyNames), r.NegNames...) {
				if j, ok := last[b]; ok && j > i {
					return fmt.Errorf("stratum %d (%s) reads %s, derived in the later stratum %d", i, r.Source, b, j)
				}
			}
			for _, b := range blocked {
				if j, ok := last[b]; ok && j == i {
					return fmt.Errorf("stratum %d (%s) negates or aggregates %s, derived in that same stratum", i, r.Source, b)
				}
			}
		}
	}
	return nil
}

// TestExtendConcurrent: requests extend one installed program from many
// goroutines at once, as a workspace's concurrent transactions do; under
// -race this pins that Extend only reads its base.
func TestExtendConcurrent(t *testing.T) {
	installed, err := parser.Parse(retailSchema)
	if err != nil {
		t.Fatal(err)
	}
	base, err := Compile(installed)
	if err != nil {
		t.Fatal(err)
	}
	reqs := []string{execRequest, pointRequest, `hot(p) <- price[p] = v, v > 50.`, `price[p] = v -> int(p), float(v).`}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		req, err := parser.Parse(reqs[i%len(reqs)])
		if err != nil {
			t.Fatal(err)
		}
		want, err := Compile(installed, req)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				got, err := Extend(base, req)
				if err != nil || !reflect.DeepEqual(got, want) {
					t.Errorf("concurrent Extend of %q: err = %v or result differs from Compile", reqs[i%len(reqs)], err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// BenchmarkCompileRequest times compiling one request against the
// installed retail schema: recompiling the installed program with it
// (Compile) against extending the compiled installed program (Extend).
func BenchmarkCompileRequest(b *testing.B) {
	installed, err := parser.Parse(retailSchema)
	if err != nil {
		b.Fatal(err)
	}
	prog, err := Compile(installed)
	if err != nil {
		b.Fatal(err)
	}
	for _, req := range []struct{ name, src string }{{"exec", execRequest}, {"point", pointRequest}} {
		r, err := parser.Parse(req.src)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(req.name+"/compile", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Compile(installed, r); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(req.name+"/extend", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Extend(prog, r); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
