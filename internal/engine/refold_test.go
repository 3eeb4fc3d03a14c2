package engine

import (
	"testing"

	"logicblox/internal/relation"
	"logicblox/internal/tuple"
)

// retailSales is sales(p, s, v) over 5 products × 6 stores, v = p + 2s:
// six groups per store-keyed view, so touching one or two of them stays
// under RefoldStratum's half-the-head fallback.
func retailSales() relation.Relation {
	var ts []tuple.Tuple
	for p := int64(0); p < 5; p++ {
		for s := int64(0); s < 6; s++ {
			ts = append(ts, tuple.Ints(p, s, p+2*s))
		}
	}
	return relation.FromTuples(3, ts)
}

// floatSales is retailSales with float values, where store 1's group sums
// to a different float depending on the order it is folded in: in p order
// 1e16 + 1 + -1e16 + 1 = 1, in value order -1e16 + 1 + 1 + 1e16 = 0.
func floatSales() relation.Relation {
	var ts []tuple.Tuple
	store1 := []float64{1e16, 1, -1e16, 1, 0.5}
	for p := int64(0); p < 5; p++ {
		for s := int64(0); s < 6; s++ {
			v := float64(p) + 0.1*float64(s)
			if s == 1 {
				v = store1[p]
			}
			ts = append(ts, tuple.Tuple{tuple.Int(p), tuple.Int(s), tuple.Float(v)})
		}
	}
	return relation.FromTuples(3, ts)
}

// TestRefoldStratumMatchesReeval re-folds an aggregate stratum after a
// change to sales and checks the head against a from-scratch evaluation
// of the changed data, and whether RefoldStratum kept to the touched
// groups or fell back to a whole re-evaluation.
func TestRefoldStratumMatchesReeval(t *testing.T) {
	cases := []struct {
		name, src string
		sales     relation.Relation
		ins, del  []tuple.Tuple
		groups    int // re-folded groups; -1 = re-evaluated whole
	}{
		{
			// The key is the second variable of sales' order: re-folding
			// store 3 seeks s = 3 under every p.
			name: "key not the first variable", src: `byStore[s] = u <- agg<<u = sum(v)>> sales(p, s, v).`,
			sales: retailSales(), ins: []tuple.Tuple{tuple.Ints(9, 3, 100)}, del: []tuple.Tuple{tuple.Ints(2, 3, 8)},
			groups: 1,
		},
		{
			name: "group emptied by a deletion", src: `byStore[s] = u <- agg<<u = sum(v)>> sales(p, s, v).`,
			sales:  retailSales(),
			del:    []tuple.Tuple{tuple.Ints(0, 4, 8), tuple.Ints(1, 4, 9), tuple.Ints(2, 4, 10), tuple.Ints(3, 4, 11), tuple.Ints(4, 4, 12)},
			groups: 1,
		},
		{
			name: "max after the maximum is deleted", src: `top[s] = u <- agg<<u = max(v)>> sales(p, s, v).`,
			sales: retailSales(), del: []tuple.Tuple{tuple.Ints(4, 2, 8)}, groups: 1,
		},
		{
			name: "min after the minimum is deleted", src: `low[s] = u <- agg<<u = min(v)>> sales(p, s, v).`,
			sales: retailSales(), del: []tuple.Tuple{tuple.Ints(0, 2, 4), tuple.Ints(0, 5, 10)}, groups: 2,
		},
		{
			name: "count", src: `n[s] = u <- agg<<u = count()>> sales(p, s, v).`,
			sales: retailSales(), ins: []tuple.Tuple{tuple.Ints(7, 0, 1), tuple.Ints(8, 0, 1)}, del: []tuple.Tuple{tuple.Ints(1, 0, 1)},
			groups: 1,
		},
		{
			// The re-fold must add store 1's values in p order, as the full
			// evaluation does, for the sum to come out bit-identical.
			name: "float sum", src: `byStore[s] = u <- agg<<u = sum(v)>> sales(p, s, v).`,
			sales: floatSales(), del: []tuple.Tuple{{tuple.Int(4), tuple.Int(1), tuple.Float(0.5)}}, groups: 1,
		},
		{
			// One group is the whole head: a re-fold would be a full pass.
			name: "zero-key aggregate", src: `total[] = u <- agg<<u = sum(v)>> sales(p, s, v).`,
			sales: retailSales(), ins: []tuple.Tuple{tuple.Ints(9, 9, 9)}, groups: -1,
		},
		{
			name: "touched keys reach half the head", src: `byStore[s] = u <- agg<<u = sum(v)>> sales(p, s, v).`,
			sales: retailSales(), ins: []tuple.Tuple{tuple.Ints(9, 0, 1), tuple.Ints(9, 1, 1), tuple.Ints(9, 2, 1)}, groups: -1,
		},
		{
			// A computed key cannot be pinned.
			name: "key not a join variable", src: `shifted[k] = u <- agg<<u = sum(v)>> sales(p, s, v), k = s + 1.`,
			sales: retailSales(), ins: []tuple.Tuple{tuple.Ints(9, 3, 100)}, groups: -1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prog := mustCompile(t, tc.src)
			ctx := NewContext(prog, map[string]relation.Relation{"sales": tc.sales}, Options{})
			if err := ctx.EvalAll(); err != nil {
				t.Fatal(err)
			}
			next := tc.sales
			for _, d := range tc.del {
				next = next.Delete(d)
			}
			for _, i := range tc.ins {
				next = next.Insert(i)
			}
			ctx.Set("sales", next)
			stratum := prog.Strata[0]
			groups, whole, err := ctx.RefoldStratum(nil, stratum,
				map[string]Delta{"sales": {Ins: tc.ins, Del: tc.del}},
				map[string]relation.Relation{"sales": tc.sales})
			if err != nil {
				t.Fatal(err)
			}
			if whole {
				groups = -1
			}
			if groups != tc.groups {
				t.Errorf("re-folded %d groups, want %d (-1: re-evaluated whole)", groups, tc.groups)
			}

			fresh := NewContext(prog, map[string]relation.Relation{"sales": next}, Options{})
			if err := fresh.ReevalStratum(nil, stratum); err != nil {
				t.Fatal(err)
			}
			head := stratum[0].HeadName
			if got, want := ctx.Relation(head), fresh.Relation(head); !got.Equal(want) {
				t.Fatalf("%s = %v, re-evaluation gives %v", head, got.Slice(), want.Slice())
			}
		})
	}
}
