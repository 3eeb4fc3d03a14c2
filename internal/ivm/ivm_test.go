package ivm

import (
	"fmt"
	"math/rand"
	"testing"

	"logicblox/internal/compiler"
	"logicblox/internal/engine"
	"logicblox/internal/obs"
	"logicblox/internal/parser"
	"logicblox/internal/relation"
	"logicblox/internal/tuple"
)

var allModes = []Mode{Recompute, Counting, DRed, Sensitivity}

func mustProgram(t *testing.T, src string) *compiler.Program {
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

// oracle recomputes the program from scratch on the given base state.
func oracle(t *testing.T, prog *compiler.Program, base map[string]relation.Relation) *engine.Context {
	t.Helper()
	ctx := engine.NewContext(prog, base, engine.Options{})
	if err := ctx.EvalAll(); err != nil {
		t.Fatalf("oracle eval: %v", err)
	}
	return ctx
}

func cloneBase(base map[string]relation.Relation) map[string]relation.Relation {
	out := make(map[string]relation.Relation, len(base))
	for k, v := range base {
		out[k] = v
	}
	return out
}

func applyToBase(base map[string]relation.Relation, deltas map[string]Delta, arities map[string]int) {
	for name, d := range deltas {
		r, ok := base[name]
		if !ok {
			r = relation.New(arities[name])
		}
		for _, t := range d.Del {
			r = r.Delete(t)
		}
		for _, t := range d.Ins {
			r = r.Insert(t)
		}
		base[name] = r
	}
}

// checkAgainstOracle verifies every derived predicate matches a from-
// scratch evaluation.
func checkAgainstOracle(t *testing.T, m *Maintainer, prog *compiler.Program, base map[string]relation.Relation, label string) {
	t.Helper()
	ctx := oracle(t, prog, base)
	for _, name := range prog.IDBPreds {
		got, want := m.Relation(name), ctx.Relation(name)
		if !got.Equal(want) {
			t.Fatalf("%s: %s maintained %v, oracle %v", label, name, got.Slice(), want.Slice())
		}
	}
}

func TestMaintainTriangleViewAllModes(t *testing.T) {
	src := `tri(x, y, z) <- e(x, y), e(y, z), e(x, z).`
	for _, mode := range allModes {
		t.Run(mode.String(), func(t *testing.T) {
			prog := mustProgram(t, src)
			base := map[string]relation.Relation{
				"e": relation.FromTuples(2, []tuple.Tuple{
					tuple.Ints(1, 2), tuple.Ints(2, 3), tuple.Ints(1, 3), tuple.Ints(3, 4),
				}),
			}
			m, err := NewMaintainer(prog, cloneBase(base), mode)
			if err != nil {
				t.Fatal(err)
			}
			if m.Relation("tri").Len() != 1 {
				t.Fatalf("initial tri = %v", m.Relation("tri").Slice())
			}

			// Insert the edge closing triangle (2,3,4).
			d1 := map[string]Delta{"e": {Ins: []tuple.Tuple{tuple.Ints(2, 4)}}}
			if _, err := m.Apply(d1); err != nil {
				t.Fatal(err)
			}
			applyToBase(base, d1, map[string]int{"e": 2})
			checkAgainstOracle(t, m, prog, base, "after insert")
			if !m.Relation("tri").Contains(tuple.Ints(2, 3, 4)) {
				t.Fatalf("missing new triangle: %v", m.Relation("tri").Slice())
			}

			// Delete an edge of the original triangle.
			d2 := map[string]Delta{"e": {Del: []tuple.Tuple{tuple.Ints(1, 2)}}}
			if _, err := m.Apply(d2); err != nil {
				t.Fatal(err)
			}
			applyToBase(base, d2, map[string]int{"e": 2})
			checkAgainstOracle(t, m, prog, base, "after delete")
			if m.Relation("tri").Contains(tuple.Ints(1, 2, 3)) {
				t.Fatalf("stale triangle survives: %v", m.Relation("tri").Slice())
			}
		})
	}
}

func TestMaintainRecursiveClosureAllModes(t *testing.T) {
	src := `
		path(x, y) <- edge(x, y).
		path(x, z) <- path(x, y), edge(y, z).`
	for _, mode := range allModes {
		t.Run(mode.String(), func(t *testing.T) {
			prog := mustProgram(t, src)
			e := relation.New(2)
			for i := int64(0); i < 6; i++ {
				e = e.Insert(tuple.Ints(i, i+1))
			}
			base := map[string]relation.Relation{"edge": e}
			m, err := NewMaintainer(prog, cloneBase(base), mode)
			if err != nil {
				t.Fatal(err)
			}
			// Insert a shortcut edge, then delete a bridge.
			for step, d := range []map[string]Delta{
				{"edge": {Ins: []tuple.Tuple{tuple.Ints(0, 5)}}},
				{"edge": {Del: []tuple.Tuple{tuple.Ints(2, 3)}}},
				{"edge": {Ins: []tuple.Tuple{tuple.Ints(2, 3)}, Del: []tuple.Tuple{tuple.Ints(0, 1)}}},
			} {
				if _, err := m.Apply(d); err != nil {
					t.Fatal(err)
				}
				applyToBase(base, d, map[string]int{"edge": 2})
				checkAgainstOracle(t, m, prog, base, fmt.Sprintf("step %d", step))
			}
		})
	}
}

func TestMaintainAggregation(t *testing.T) {
	src := `total[s] = u <- agg<<u = sum(v)>> sales(s, p, v).`
	for _, mode := range allModes {
		t.Run(mode.String(), func(t *testing.T) {
			prog := mustProgram(t, src)
			base := map[string]relation.Relation{
				"sales": relation.FromTuples(3, []tuple.Tuple{
					tuple.Of(tuple.String("s1"), tuple.String("a"), tuple.Int(10)),
					tuple.Of(tuple.String("s1"), tuple.String("b"), tuple.Int(5)),
				}),
			}
			m, err := NewMaintainer(prog, cloneBase(base), mode)
			if err != nil {
				t.Fatal(err)
			}
			d := map[string]Delta{"sales": {
				Ins: []tuple.Tuple{tuple.Of(tuple.String("s2"), tuple.String("c"), tuple.Int(7))},
				Del: []tuple.Tuple{tuple.Of(tuple.String("s1"), tuple.String("b"), tuple.Int(5))},
			}}
			if _, err := m.Apply(d); err != nil {
				t.Fatal(err)
			}
			applyToBase(base, d, map[string]int{"sales": 3})
			checkAgainstOracle(t, m, prog, base, "after batch")
			if v, _ := m.Relation("total").FuncGet(tuple.Strings("s1")); v.AsInt() != 10 {
				t.Fatalf("total[s1] = %v", v)
			}
		})
	}
}

func TestMaintainNegation(t *testing.T) {
	src := `only_a(x) <- a(x), !b(x).`
	for _, mode := range allModes {
		t.Run(mode.String(), func(t *testing.T) {
			prog := mustProgram(t, src)
			base := map[string]relation.Relation{
				"a": relation.FromTuples(1, []tuple.Tuple{tuple.Ints(1), tuple.Ints(2), tuple.Ints(3)}),
				"b": relation.FromTuples(1, []tuple.Tuple{tuple.Ints(2)}),
			}
			m, err := NewMaintainer(prog, cloneBase(base), mode)
			if err != nil {
				t.Fatal(err)
			}
			// Insert into the negated predicate: only_a(3) must disappear.
			d := map[string]Delta{"b": {Ins: []tuple.Tuple{tuple.Ints(3)}}}
			if _, err := m.Apply(d); err != nil {
				t.Fatal(err)
			}
			applyToBase(base, d, map[string]int{"b": 1})
			checkAgainstOracle(t, m, prog, base, "neg insert")
			// Delete from the negated predicate: only_a(2) comes back.
			d = map[string]Delta{"b": {Del: []tuple.Tuple{tuple.Ints(2)}}}
			if _, err := m.Apply(d); err != nil {
				t.Fatal(err)
			}
			applyToBase(base, d, map[string]int{"b": 1})
			checkAgainstOracle(t, m, prog, base, "neg delete")
		})
	}
}

// TestMaintainRecursiveNegation: a batch that only inserts, but into a
// predicate the recursive stratum negates, retracts derivations — the
// semi-naive insert path (Counting's and DRed's) must not take it.
func TestMaintainRecursiveNegation(t *testing.T) {
	src := `
		reach(x, y) <- edge(x, y), !blocked(x, y).
		reach(x, z) <- reach(x, y), edge(y, z), !blocked(y, z).`
	for _, mode := range allModes {
		t.Run(mode.String(), func(t *testing.T) {
			prog := mustProgram(t, src)
			base := map[string]relation.Relation{
				"edge":    relation.FromTuples(2, []tuple.Tuple{tuple.Ints(1, 2), tuple.Ints(2, 3), tuple.Ints(3, 4)}),
				"blocked": relation.New(2),
			}
			m, err := NewMaintainer(prog, cloneBase(base), mode)
			if err != nil {
				t.Fatal(err)
			}
			if m.Relation("reach").Len() != 6 {
				t.Fatalf("initial reach = %v", m.Relation("reach").Slice())
			}
			for step, d := range []map[string]Delta{
				{"blocked": {Ins: []tuple.Tuple{tuple.Ints(2, 3)}}},
				{"blocked": {Del: []tuple.Tuple{tuple.Ints(2, 3)}}},
				{"blocked": {Ins: []tuple.Tuple{tuple.Ints(1, 2)}}, "edge": {Ins: []tuple.Tuple{tuple.Ints(4, 5)}}},
			} {
				if _, err := m.Apply(d); err != nil {
					t.Fatal(err)
				}
				applyToBase(base, d, map[string]int{"edge": 2, "blocked": 2})
				checkAgainstOracle(t, m, prog, base, fmt.Sprintf("step %d", step))
			}
			if got := m.Relation("reach"); got.Contains(tuple.Ints(1, 2)) || !got.Contains(tuple.Ints(2, 5)) {
				t.Fatalf("reach = %v", got.Slice())
			}
		})
	}
}

func TestMaintainMultiRuleHead(t *testing.T) {
	src := `
		reachable(x) <- source(x).
		reachable(x) <- direct(x).`
	for _, mode := range allModes {
		t.Run(mode.String(), func(t *testing.T) {
			prog := mustProgram(t, src)
			base := map[string]relation.Relation{
				"source": relation.FromTuples(1, []tuple.Tuple{tuple.Ints(1)}),
				"direct": relation.FromTuples(1, []tuple.Tuple{tuple.Ints(1), tuple.Ints(2)}),
			}
			m, err := NewMaintainer(prog, cloneBase(base), mode)
			if err != nil {
				t.Fatal(err)
			}
			// Deleting direct(1) must NOT delete reachable(1): source still
			// supports it.
			d := map[string]Delta{"direct": {Del: []tuple.Tuple{tuple.Ints(1)}}}
			if _, err := m.Apply(d); err != nil {
				t.Fatal(err)
			}
			applyToBase(base, d, map[string]int{"direct": 1})
			checkAgainstOracle(t, m, prog, base, "shared support")
			if !m.Relation("reachable").Contains(tuple.Ints(1)) {
				t.Fatalf("reachable(1) lost despite remaining support")
			}
		})
	}
}

// An aggregation rule and a plain rule deriving the same head are one
// stratum: a mode that cannot maintain the aggregate incrementally must
// recompute the whole predicate, not overwrite it with the aggregate's
// result alone.
func TestMaintainAggregateSharingHead(t *testing.T) {
	src := `
		h[k] = u <- agg<<u = sum(n)>> s[k, j] = n.
		h[k] = v <- extra[k] = v.`
	arities := map[string]int{"s": 3, "extra": 2}
	batches := []struct {
		label string
		d     map[string]Delta
	}{
		{"insert into s", map[string]Delta{"s": {Ins: []tuple.Tuple{tuple.Ints(1, 3, 5), tuple.Ints(3, 1, 2)}}}},
		{"delete from s", map[string]Delta{"s": {Del: []tuple.Tuple{tuple.Ints(1, 1, 10), tuple.Ints(2, 1, 7)}}}},
		{"mixed on s", map[string]Delta{"s": {Ins: []tuple.Tuple{tuple.Ints(2, 2, 4)}, Del: []tuple.Tuple{tuple.Ints(1, 2, 20)}}}},
		{"insert into extra", map[string]Delta{"extra": {Ins: []tuple.Tuple{tuple.Ints(12, 3)}}}},
		{"delete from extra", map[string]Delta{"extra": {Del: []tuple.Tuple{tuple.Ints(10, 1)}}}},
		{"mixed on extra", map[string]Delta{"extra": {Ins: []tuple.Tuple{tuple.Ints(13, 4)}, Del: []tuple.Tuple{tuple.Ints(11, 2)}}}},
		{"both", map[string]Delta{
			"s":     {Ins: []tuple.Tuple{tuple.Ints(4, 1, 1)}, Del: []tuple.Tuple{tuple.Ints(3, 1, 2)}},
			"extra": {Ins: []tuple.Tuple{tuple.Ints(10, 9)}, Del: []tuple.Tuple{tuple.Ints(12, 3)}},
		}},
	}
	// Groups 20-29 of s and keys 30-39 of extra are never touched: with
	// them h holds enough tuples for no batch to reach RefoldStratum's
	// half-the-head fallback, so Counting and DRed re-fold every batch.
	s := []tuple.Tuple{tuple.Ints(1, 1, 10), tuple.Ints(1, 2, 20), tuple.Ints(2, 1, 7)}
	extra := []tuple.Tuple{tuple.Ints(10, 1), tuple.Ints(11, 2)}
	for k := int64(0); k < 10; k++ {
		s = append(s, tuple.Ints(20+k, 1, k))
		extra = append(extra, tuple.Ints(30+k, k))
	}
	for _, mode := range allModes {
		t.Run(mode.String(), func(t *testing.T) {
			prog := mustProgram(t, src)
			base := map[string]relation.Relation{"s": relation.FromTuples(3, s), "extra": relation.FromTuples(2, extra)}
			m, err := NewMaintainer(prog, cloneBase(base), mode)
			if err != nil {
				t.Fatal(err)
			}
			reg := obs.NewRegistry()
			m.SetObserver(reg)
			checkAgainstOracle(t, m, prog, base, "initial")
			for _, b := range batches {
				if _, err := m.Apply(b.d); err != nil {
					t.Fatalf("%s: %v", b.label, err)
				}
				applyToBase(base, b.d, arities)
				checkAgainstOracle(t, m, prog, base, b.label)
				want := "reeval"
				if mode == Counting || mode == DRed {
					want = "refold"
				}
				if by := maintainedBy(t, reg); len(by) != 1 || by[0] != want {
					t.Fatalf("%s: strata maintained by %v, want [%s]", b.label, by, want)
				}
			}
		})
	}
}

// An aggregate rule in a recursive clique: h's aggregate groups feed h
// itself through link, so a group the change re-folds must carry on to
// the keys linked to it. The stratum is re-evaluated whole in every mode.
func TestMaintainRecursiveAggregate(t *testing.T) {
	src := `
		h[k] = u <- agg<<u = sum(n)>> s(k, n).
		h[k] = v <- link(k, j), h[j] = v.`
	arities := map[string]int{"s": 2, "link": 2}
	batches := []struct {
		label string
		d     map[string]Delta
	}{
		{"insert into a linked group", map[string]Delta{"s": {Ins: []tuple.Tuple{tuple.Ints(1, 5)}}}},
		{"delete from a linked group", map[string]Delta{"s": {Del: []tuple.Tuple{tuple.Ints(1, 3)}}}},
		{"empty a linked group", map[string]Delta{"s": {Del: []tuple.Tuple{tuple.Ints(1, 5)}}}},
		{"refill it", map[string]Delta{"s": {Ins: []tuple.Tuple{tuple.Ints(1, 2)}}}},
		{"insert a link", map[string]Delta{"link": {Ins: []tuple.Tuple{tuple.Ints(3, 2)}}}},
	}
	// Keys 10-19 are never touched: with them h holds enough tuples for no
	// batch to reach RefoldStratum's half-the-head fallback.
	s := []tuple.Tuple{tuple.Ints(1, 3)}
	for k := int64(10); k < 20; k++ {
		s = append(s, tuple.Ints(k, k))
	}
	for _, mode := range allModes {
		t.Run(mode.String(), func(t *testing.T) {
			prog := mustProgram(t, src)
			base := map[string]relation.Relation{
				"s":    relation.FromTuples(2, s),
				"link": relation.FromTuples(2, []tuple.Tuple{tuple.Ints(2, 1)}),
			}
			m, err := NewMaintainer(prog, cloneBase(base), mode)
			if err != nil {
				t.Fatal(err)
			}
			reg := obs.NewRegistry()
			m.SetObserver(reg)
			checkAgainstOracle(t, m, prog, base, "initial")
			for _, b := range batches {
				if _, err := m.Apply(b.d); err != nil {
					t.Fatalf("%s: %v", b.label, err)
				}
				applyToBase(base, b.d, arities)
				checkAgainstOracle(t, m, prog, base, b.label)
				if by := maintainedBy(t, reg); len(by) != 1 || by[0] != "reeval" {
					t.Fatalf("%s: strata maintained by %v, want [reeval]", b.label, by)
				}
			}
		})
	}
}

// maintainedBy returns the maintained_by label of every stratum span of
// the last maintenance pass traced into reg, in walk order.
func maintainedBy(t *testing.T, reg *obs.Registry) []string {
	t.Helper()
	tr, ok := reg.LastTrace()
	if !ok {
		t.Fatal("no maintenance pass traced")
	}
	var by []string
	for _, sp := range tr.Children {
		for _, l := range sp.Labels {
			if sp.Name == "stratum" && l.Key == "maintained_by" {
				by = append(by, l.Val)
			}
		}
	}
	return by
}

func TestMaintainChainedViews(t *testing.T) {
	src := `
		b(x) <- a(x).
		c(x) <- b(x), big(x).`
	for _, mode := range allModes {
		t.Run(mode.String(), func(t *testing.T) {
			prog := mustProgram(t, src)
			base := map[string]relation.Relation{
				"a":   relation.FromTuples(1, []tuple.Tuple{tuple.Ints(1), tuple.Ints(5)}),
				"big": relation.FromTuples(1, []tuple.Tuple{tuple.Ints(5), tuple.Ints(9)}),
			}
			m, err := NewMaintainer(prog, cloneBase(base), mode)
			if err != nil {
				t.Fatal(err)
			}
			d := map[string]Delta{"a": {Ins: []tuple.Tuple{tuple.Ints(9)}, Del: []tuple.Tuple{tuple.Ints(5)}}}
			changed, err := m.Apply(d)
			if err != nil {
				t.Fatal(err)
			}
			applyToBase(base, d, map[string]int{"a": 1})
			checkAgainstOracle(t, m, prog, base, "chained")
			// The returned delta map must include the downstream change in c.
			if changed["c"].Empty() {
				t.Fatalf("derived delta for c not reported: %v", changed)
			}
		})
	}
}

func TestSensitivitySkipsUnaffectedRules(t *testing.T) {
	// Two independent views; a change to one must not evaluate the other.
	src := `
		v1(x, y) <- r1(x, y), s1(y, x).
		v2(x, y) <- r2(x, y), s2(y, x).`
	prog := mustProgram(t, src)
	mk := func(vals ...int64) relation.Relation {
		r := relation.New(2)
		for i := 0; i+1 < len(vals); i += 2 {
			r = r.Insert(tuple.Ints(vals[i], vals[i+1]))
		}
		return r
	}
	base := map[string]relation.Relation{
		"r1": mk(1, 2), "s1": mk(2, 1),
		"r2": mk(7, 8), "s2": mk(8, 7),
	}
	m, err := NewMaintainer(prog, base, Sensitivity)
	if err != nil {
		t.Fatal(err)
	}
	d := map[string]Delta{"r1": {Ins: []tuple.Tuple{tuple.Ints(3, 4)}}}
	if _, err := m.Apply(d); err != nil {
		t.Fatal(err)
	}
	if m.Stats.RulesSkipped != 1 {
		t.Fatalf("expected v2's rule skipped, stats = %+v", m.Stats)
	}
	if m.Stats.RulesEvaluated != 1 {
		t.Fatalf("expected only v1 re-evaluated, stats = %+v", m.Stats)
	}
}

func TestSensitivitySkipsChangesOutsideTrace(t *testing.T) {
	// Paper §3.2: inserting C(3) or deleting C(4) does not affect the
	// Figure 3 run, so the view must not be re-evaluated.
	src := `out(x) <- a(x), b(x), c(x).`
	prog := mustProgram(t, src)
	mk := func(vals ...int64) relation.Relation {
		r := relation.New(1)
		for _, v := range vals {
			r = r.Insert(tuple.Ints(v))
		}
		return r
	}
	base := map[string]relation.Relation{
		"a": mk(0, 1, 3, 4, 5, 6, 7, 8, 9, 11),
		"b": mk(0, 2, 6, 7, 8, 9),
		"c": mk(2, 4, 5, 8, 10),
	}
	m, err := NewMaintainer(prog, base, Sensitivity)
	if err != nil {
		t.Fatal(err)
	}
	d := map[string]Delta{"c": {Ins: []tuple.Tuple{tuple.Ints(3)}, Del: []tuple.Tuple{tuple.Ints(4)}}}
	if _, err := m.Apply(d); err != nil {
		t.Fatal(err)
	}
	if m.Stats.RulesEvaluated != 0 || m.Stats.RulesSkipped != 1 {
		t.Fatalf("change outside trace should skip the rule, stats = %+v", m.Stats)
	}
	if m.Relation("out").Len() != 1 {
		t.Fatalf("out = %v", m.Relation("out").Slice())
	}
}

func TestCountingSkipsUntouchedRules(t *testing.T) {
	src := `
		v1(x) <- r1(x).
		v2(x) <- r2(x).`
	prog := mustProgram(t, src)
	base := map[string]relation.Relation{
		"r1": relation.FromTuples(1, []tuple.Tuple{tuple.Ints(1)}),
		"r2": relation.FromTuples(1, []tuple.Tuple{tuple.Ints(2)}),
	}
	m, err := NewMaintainer(prog, base, Counting)
	if err != nil {
		t.Fatal(err)
	}
	d := map[string]Delta{"r1": {Ins: []tuple.Tuple{tuple.Ints(5)}}}
	if _, err := m.Apply(d); err != nil {
		t.Fatal(err)
	}
	if m.Stats.RulesSkipped != 1 {
		t.Fatalf("stats = %+v", m.Stats)
	}
}

func TestRandomizedMaintenanceAgainstOracle(t *testing.T) {
	src := `
		tri(x, y, z) <- e(x, y), e(y, z), e(x, z).
		deg2(x) <- e(x, y), e(y, z).
		path(x, y) <- e(x, y).
		path(x, z) <- path(x, y), e(y, z).`
	for _, mode := range allModes {
		t.Run(mode.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(99))
			prog := mustProgram(t, src)
			e := relation.New(2)
			for i := 0; i < 30; i++ {
				e = e.Insert(tuple.Ints(rng.Int63n(8), rng.Int63n(8)))
			}
			base := map[string]relation.Relation{"e": e}
			m, err := NewMaintainer(prog, cloneBase(base), mode)
			if err != nil {
				t.Fatal(err)
			}
			for step := 0; step < 15; step++ {
				var d Delta
				for i := 0; i < rng.Intn(3)+1; i++ {
					t1 := tuple.Ints(rng.Int63n(8), rng.Int63n(8))
					if rng.Intn(2) == 0 && base["e"].Contains(t1) {
						d.Del = append(d.Del, t1)
					} else if !base["e"].Contains(t1) {
						d.Ins = append(d.Ins, t1)
					}
				}
				if d.Empty() {
					continue
				}
				batch := map[string]Delta{"e": d}
				if _, err := m.Apply(batch); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				applyToBase(base, batch, map[string]int{"e": 2})
				checkAgainstOracle(t, m, prog, base, fmt.Sprintf("step %d", step))
			}
		})
	}
}

func TestEmptyDeltaIsNoop(t *testing.T) {
	prog := mustProgram(t, `v(x) <- r(x).`)
	m, err := NewMaintainer(prog, map[string]relation.Relation{
		"r": relation.FromTuples(1, []tuple.Tuple{tuple.Ints(1)}),
	}, Counting)
	if err != nil {
		t.Fatal(err)
	}
	changed, err := m.Apply(map[string]Delta{"r": {}})
	if err != nil {
		t.Fatal(err)
	}
	if len(changed) != 0 {
		t.Fatalf("no-op delta reported changes: %v", changed)
	}
}
