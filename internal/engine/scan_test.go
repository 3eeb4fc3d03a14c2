package engine

import (
	"testing"

	"logicblox/internal/compiler"
	"logicblox/internal/lftj"
	"logicblox/internal/obs"
	"logicblox/internal/relation"
	"logicblox/internal/tuple"
)

// rollupSrc is the retail schema's sales and the workbook's weekly rollup
// over it: an aggregate whose body is one atom binding every variable.
const rollupSrc = `
	sales[p, s, wk] = n -> int(p), int(s), int(wk), int(n).
	salesByWeek[wk] = u <- agg<<u = sum(n)>> sales[p, s, wk] = n.`

// retailFacts is sales[p, s, wk] = n over products × stores × weeks, with
// n a deterministic function of the key.
func retailFacts(products, stores, weeks int64) relation.Relation {
	ts := make([]tuple.Tuple, 0, products*stores*weeks)
	for p := int64(0); p < products; p++ {
		for s := int64(0); s < stores; s++ {
			for wk := int64(0); wk < weeks; wk++ {
				ts = append(ts, tuple.Ints(p, s, wk, (7*p+3*s+wk)%100))
			}
		}
	}
	return relation.FromTuples(4, ts)
}

// ruleProfile returns the profile of the rule with the given head.
func ruleProfile(t *testing.T, reg *obs.Registry, head string) obs.RuleSnapshot {
	t.Helper()
	for _, r := range reg.Snapshot().Rules {
		if r.Head == head {
			return r
		}
	}
	t.Fatalf("no profile for rule %s", head)
	return obs.RuleSnapshot{}
}

// TestOneAtomBodyScans: a rule body of one atom is evaluated as a scan of
// its relation — one next per tuple, no seek, and one sensitivity interval
// covering the whole relation — and a scan through a permuted index maps
// that interval back to stored columns.
func TestOneAtomBodyScans(t *testing.T) {
	prog := mustCompile(t, rollupSrc)
	sales := retailFacts(4, 3, 5)
	run := func(idx *lftj.SensitivityIndex) (*Context, obs.RuleSnapshot) {
		reg := obs.NewRegistry()
		ctx := NewContext(prog, map[string]relation.Relation{"sales": sales}, Options{Obs: reg})
		ctx.SetSensitivityIndex(idx)
		if err := ctx.EvalAll(); err != nil {
			t.Fatal(err)
		}
		return ctx, ruleProfile(t, reg, "salesByWeek")
	}

	ctx, prof := run(nil)
	if prof.Seeks != 0 || prof.Nexts != int64(sales.Len()) || prof.SensRecords != 0 {
		t.Errorf("salesByWeek profile: seeks %d, nexts %d, sens %d; want 0, %d, 0", prof.Seeks, prof.Nexts, prof.SensRecords, sales.Len())
	}
	want := map[int64]int64{}
	sales.ForEach(func(f tuple.Tuple) bool {
		want[f[2].AsInt()] += f[3].AsInt()
		return true
	})
	got := ctx.Relation("salesByWeek")
	if got.Len() != len(want) {
		t.Fatalf("salesByWeek has %d groups, want %d", got.Len(), len(want))
	}
	for wk, u := range want {
		if v, ok := got.FuncGet(tuple.Ints(wk)); !ok || v.AsInt() != u {
			t.Errorf("salesByWeek[%d] = %v, want %d", wk, v, u)
		}
	}

	idx := lftj.NewSensitivityIndex()
	if _, prof = run(idx); prof.SensRecords != 1 || idx.Len() != 1 {
		t.Errorf("recorded run: %d sensitivity records in the profile, %d in the index; want 1", prof.SensRecords, idx.Len())
	}
	for _, f := range []tuple.Tuple{sales.Slice()[0], tuple.Ints(99, 99, 99, 1)} {
		if !idx.Affected("sales", f) {
			t.Errorf("a change to sales%v reported unaffected by a full scan", f)
		}
	}

	// Reordered to (wk, p, s, n), the atom reads a permuted index of
	// sales: the scan yields its tuples in that order, and its one
	// interval covers stored-order tuples through Cols.
	r, err := compiler.ReorderRule(prog.Rules[0], []int{2, 0, 1, 3})
	if err != nil {
		t.Fatal(err)
	}
	perm := r.Atoms[0].Perm
	if perm == nil {
		t.Fatalf("reordered plan reads sales in stored order: %+v", r.Atoms)
	}
	reg := obs.NewRegistry()
	pctx := NewContext(prog, map[string]relation.Relation{"sales": sales}, Options{Obs: reg})
	idx = lftj.NewSensitivityIndex()
	pctx.SetSensitivityIndex(idx)
	b, err := pctx.Bindings(r, nil)
	if err != nil {
		t.Fatal(err)
	}
	var order []tuple.Tuple
	for full, ok := b.Next(); ok; full, ok = b.Next() {
		order = append(order, full[:4].Clone())
	}
	b.Close()
	if b.Err() != nil {
		t.Fatal(b.Err())
	}
	wantOrder := sales.Permuted(perm).Slice()
	if len(order) != len(wantOrder) {
		t.Fatalf("permuted scan yielded %d bindings, want %d", len(order), len(wantOrder))
	}
	for i := range order {
		if !order[i].Equal(wantOrder[i]) {
			t.Fatalf("binding %d = %v, want %v (the index's order)", i, order[i], wantOrder[i])
		}
	}
	if prof := ruleProfile(t, reg, "salesByWeek"); prof.Seeks != 0 || prof.Nexts != int64(sales.Len()) {
		t.Errorf("permuted scan: seeks %d, nexts %d; want 0, %d", prof.Seeks, prof.Nexts, sales.Len())
	}
	ivs := idx.Intervals("sales")
	if len(ivs) != 1 || len(ivs[0].Cols) != 1 || ivs[0].Cols[0] != perm[0] {
		t.Fatalf("permuted scan recorded %d intervals (first %v), want one on stored column %d", len(ivs), ivs[:min(len(ivs), 3)], perm[0])
	}
	for _, f := range sales.Slice() {
		if !ivs[0].Covers(f) || !idx.Affected("sales", f) {
			t.Fatalf("the permuted scan's interval does not cover sales%v", f)
		}
	}
}

// BenchmarkOneAtomSum measures the workbook's rollup, a one-atom sum view
// over 200 × 10 × 10 facts, through EvalStratum (rule) against its floor,
// a relation.ForEach with a map fold (floor).
func BenchmarkOneAtomSum(b *testing.B) {
	prog := mustCompile(b, rollupSrc)
	sales := retailFacts(200, 10, 10)
	b.Run("rule", func(b *testing.B) {
		ctx := NewContext(prog, map[string]relation.Relation{"sales": sales}, Options{})
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := ctx.EvalStratum(prog.Strata[0]); err != nil {
				b.Fatal(err)
			}
		}
		if ctx.Relation("salesByWeek").Len() != 10 {
			b.Fatalf("salesByWeek = %v", ctx.Relation("salesByWeek").Slice())
		}
	})
	b.Run("floor", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sums := map[int64]int64{}
			sales.ForEach(func(f tuple.Tuple) bool {
				sums[f[2].AsInt()] += f[3].AsInt()
				return true
			})
			if len(sums) != 10 {
				b.Fatal(sums)
			}
		}
	})
}
