package engine

import (
	"runtime"
	"testing"

	"logicblox/internal/lftj"
	"logicblox/internal/relation"
	"logicblox/internal/tuple"
)

// TestDuplicateHeadsBounded: a rule whose plan does not bind its head
// variables first derives each head many times, out of order. Its buffer
// of heads is compacted whenever it doubles, so 50k bindings of 100
// distinct heads allocate a bounded amount, and the answer is unchanged.
func TestDuplicateHeadsBounded(t *testing.T) {
	prog := mustCompile(t, `
		sales[p, s, wk] = n -> int(p), int(s), int(wk), int(n).
		dup(wk, s) <- sales[p, s, wk] = n.`)
	sales := retailFacts(500, 10, 10)
	var want []tuple.Tuple
	for s := int64(0); s < 10; s++ {
		for wk := int64(0); wk < 10; wk++ {
			want = append(want, tuple.Ints(wk, s))
		}
	}
	wantRel := relation.FromTuples(2, want)
	best := uint64(1 << 62)
	for range 3 {
		ctx := NewContext(prog, map[string]relation.Relation{"sales": sales}, Options{})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := ctx.EvalStratum(prog.Strata[0]); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
		if got := ctx.Relation("dup"); !got.Equal(wantRel) {
			t.Fatalf("dup = %v, want %v", got.Slice(), want)
		}
	}
	t.Logf("one evaluation allocates %d bytes", best)
	if best > 3<<20 {
		t.Errorf("one evaluation of dup over 50k facts allocates %d bytes, want ≤ 3 MB", best)
	}
}

// TestRangeRecordsKindEnds: a bound used as a range in a join skips every
// value outside it, but the filter compares numbers across kinds, so a
// float landing in an int column could pass it. The range is used only
// while the column holds one kind, and the recording covers the column's
// ends, where such a value would land: a change that moves the answer is
// reported as affecting the evaluation.
func TestRangeRecordsKindEnds(t *testing.T) {
	prog := mustCompile(t, `r(x, y) <- a(x), b(x, y), x < 5.`)
	a := relation.FromTuples(1, []tuple.Tuple{tuple.Ints(1), tuple.Ints(3), tuple.Ints(7), tuple.Ints(9)})
	b := relation.FromTuples(2, []tuple.Tuple{tuple.Ints(1, 1), tuple.Ints(3, 3), tuple.Ints(9, 9)})
	eval := func(a, b relation.Relation, idx *lftj.SensitivityIndex) relation.Relation {
		ctx := NewContext(prog, map[string]relation.Relation{"a": a, "b": b}, Options{})
		ctx.SetSensitivityIndex(idx)
		if err := ctx.EvalAll(); err != nil {
			t.Fatal(err)
		}
		return ctx.Relation("r")
	}
	idx := lftj.NewSensitivityIndex()
	if got := eval(a, b, idx); got.Len() != 2 {
		t.Fatalf("r = %v, want (1, 1) and (3, 3)", got.Slice())
	}
	// 2.5 sorts after every int, past the range's upper bound, yet 2.5 < 5.
	fa, fb := tuple.Of(tuple.Float(2.5)), tuple.Of(tuple.Float(2.5), tuple.Int(7))
	if moved := eval(a.Insert(fa), b.Insert(fb), nil); moved.Len() != 3 {
		t.Fatalf("inserting a%v and b%v: r = %v, want three tuples", fa, fb, moved.Slice())
	}
	if !idx.Affected("a", fa) && !idx.Affected("b", fb) {
		t.Errorf("inserting a%v and b%v is reported to affect nothing; intervals a %v, b %v", fa, fb, idx.Intervals("a"), idx.Intervals("b"))
	}
}
