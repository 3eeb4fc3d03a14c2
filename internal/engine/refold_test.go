package engine

import (
	"fmt"
	"math"
	"testing"

	"logicblox/internal/compiler"
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

// mixedKeySales is retailSales plus a store keyed Float(1) beside the
// store keyed Int(1): two groups, although both keys render as "1".
func mixedKeySales() relation.Relation {
	r := retailSales()
	for p := int64(0); p < 5; p++ {
		r = r.Insert(tuple.Tuple{tuple.Int(p), tuple.Float(1), tuple.Int(100 + p)})
	}
	return r
}

// TestRefoldStratumMatchesReeval maintains an aggregate stratum through
// a change and checks the head against a from-scratch evaluation of the
// changed data, and how RefoldStratum maintained it: each touched group by
// its signed delta or re-folded, or the stratum re-evaluated whole.
func TestRefoldStratumMatchesReeval(t *testing.T) {
	const byStore = `byStore[s] = u <- agg<<u = sum(v)>> sales(p, s, v).`
	const twoAtoms = `byStore[s] = u <- agg<<u = sum(v)>> sales(p, s, v), active(p).`
	sales := func(r relation.Relation) map[string]relation.Relation {
		return map[string]relation.Relation{"sales": r}
	}
	onSales := func(ins, del []tuple.Tuple) map[string]Delta {
		return map[string]Delta{"sales": {Ins: ins, Del: del}}
	}
	big := relation.FromTuples(3, []tuple.Tuple{tuple.Ints(0, 0, math.MaxInt64), tuple.Ints(1, 0, 5), tuple.Ints(0, 1, 1), tuple.Ints(0, 2, 1)})
	cases := []struct {
		name, src        string
		base             map[string]relation.Relation
		deltas           map[string]Delta
		signed, refolded int
		whole            bool
	}{
		{
			// The key is the second variable of sales' order: the probe
			// and a re-fold would seek s = 3 under every p.
			name: "key not the first variable", src: byStore, base: sales(retailSales()),
			deltas: onSales([]tuple.Tuple{tuple.Ints(9, 3, 100)}, []tuple.Tuple{tuple.Ints(2, 3, 8)}),
			signed: 1,
		},
		{
			// The sum lost every binding and gained none: only the pinned
			// probe tells that store 4 is gone.
			name: "group emptied by a deletion", src: byStore, base: sales(retailSales()),
			deltas: onSales(nil, []tuple.Tuple{tuple.Ints(0, 4, 8), tuple.Ints(1, 4, 9), tuple.Ints(2, 4, 10), tuple.Ints(3, 4, 11), tuple.Ints(4, 4, 12)}),
			signed: 1,
		},
		{
			name: "new group", src: byStore, base: sales(retailSales()),
			deltas: onSales([]tuple.Tuple{tuple.Ints(9, 7, 3), tuple.Ints(8, 7, 4)}, nil),
			signed: 1,
		},
		{
			// Store 0 overflows: the stored sum plus the delta wraps as the
			// full fold does.
			name: "int sum past int64", src: byStore, base: sales(big),
			deltas: onSales([]tuple.Tuple{tuple.Ints(9, 0, 10)}, []tuple.Tuple{tuple.Ints(1, 0, 5)}),
			signed: 1,
		},
		{
			// Both atoms move in one batch: bindings of active(4) with the
			// new sales(4, 3, 50) appear once, sales(1, 3, 70) joins an
			// active(1) that went and cancels out, and every store gains
			// p = 4 and loses p = 1 — all six groups, no fallback.
			name: "two moved atoms", src: twoAtoms,
			base: map[string]relation.Relation{
				"sales":  retailSales(),
				"active": relation.FromTuples(1, []tuple.Tuple{tuple.Ints(0), tuple.Ints(1), tuple.Ints(2), tuple.Ints(3)}),
			},
			deltas: map[string]Delta{
				"sales":  {Ins: []tuple.Tuple{tuple.Ints(4, 3, 50), tuple.Ints(1, 3, 70)}, Del: []tuple.Tuple{tuple.Ints(0, 3, 6), tuple.Ints(4, 2, 8)}},
				"active": {Ins: []tuple.Tuple{tuple.Ints(4)}, Del: []tuple.Tuple{tuple.Ints(1)}},
			},
			signed: 6,
		},
		{
			// sales(1, 7, 5) joins the old active(1) and not the new one:
			// a binding in neither state, gained and lost in store 7, which
			// is not in the head. Only the probe tells it stays out.
			name: "binding in neither state", src: twoAtoms,
			base: map[string]relation.Relation{
				"sales":  retailSales(),
				"active": relation.FromTuples(1, []tuple.Tuple{tuple.Ints(0), tuple.Ints(1), tuple.Ints(2), tuple.Ints(3)}),
			},
			deltas: map[string]Delta{
				"sales":  {Ins: []tuple.Tuple{tuple.Ints(1, 7, 5)}},
				"active": {Del: []tuple.Tuple{tuple.Ints(1)}},
			},
			signed: 7,
		},
		{
			// Every store loses its one real binding, p = 1, and store 3
			// also gains and loses sales(1, 3, 70): its delta sums to the
			// stored value, and the probe finds it empty.
			name: "group emptied beside a binding in neither state", src: twoAtoms,
			base: map[string]relation.Relation{
				"sales":  retailSales(),
				"active": relation.FromTuples(1, []tuple.Tuple{tuple.Ints(1)}),
			},
			deltas: map[string]Delta{
				"sales":  {Ins: []tuple.Tuple{tuple.Ints(1, 3, 70)}},
				"active": {Del: []tuple.Tuple{tuple.Ints(1)}},
			},
			signed: 6,
		},
		{
			name: "max after the maximum is deleted", src: `top[s] = u <- agg<<u = max(v)>> sales(p, s, v).`,
			base: sales(retailSales()), deltas: onSales(nil, []tuple.Tuple{tuple.Ints(4, 2, 8)}), refolded: 1,
		},
		{
			name: "min after the minimum is deleted", src: `low[s] = u <- agg<<u = min(v)>> sales(p, s, v).`,
			base: sales(retailSales()), deltas: onSales(nil, []tuple.Tuple{tuple.Ints(0, 2, 4), tuple.Ints(0, 5, 10)}), refolded: 2,
		},
		{
			// A min or max is re-folded even when it only gained bindings:
			// store 2 gains a new minimum, store 4's stored one stays.
			name: "min insert only", src: `low[s] = u <- agg<<u = min(v)>> sales(p, s, v).`,
			base: sales(retailSales()), deltas: onSales([]tuple.Tuple{tuple.Ints(9, 2, 0), tuple.Ints(9, 4, 100)}, nil), refolded: 2,
		},
		{
			name: "max insert only", src: `top[s] = u <- agg<<u = max(v)>> sales(p, s, v).`,
			base: sales(retailSales()), deltas: onSales([]tuple.Tuple{tuple.Ints(9, 2, 100), tuple.Ints(9, 4, 0)}, nil), refolded: 2,
		},
		{
			name: "count", src: `n[s] = u <- agg<<u = count()>> sales(p, s, v).`, base: sales(retailSales()),
			deltas: onSales([]tuple.Tuple{tuple.Ints(7, 0, 1), tuple.Ints(8, 0, 1)}, []tuple.Tuple{tuple.Ints(1, 0, 1)}),
			signed: 1,
		},
		{
			name: "count emptied", src: `n[s] = u <- agg<<u = count()>> sales(p, s, v).`, base: sales(retailSales()),
			deltas: onSales(nil, []tuple.Tuple{tuple.Ints(0, 4, 8), tuple.Ints(1, 4, 9), tuple.Ints(2, 4, 10), tuple.Ints(3, 4, 11), tuple.Ints(4, 4, 12)}),
			signed: 1,
		},
		{
			// Signed float deltas are not bit-identical: the group is
			// re-folded, adding store 1's values in p order, as the full
			// evaluation does.
			name: "float sum", src: byStore, base: sales(floatSales()),
			deltas: onSales(nil, []tuple.Tuple{{tuple.Int(4), tuple.Int(1), tuple.Float(0.5)}}), refolded: 1,
		},
		{
			name: "float key beside an equal-looking int key", src: byStore, base: sales(mixedKeySales()),
			deltas: onSales([]tuple.Tuple{{tuple.Int(9), tuple.Float(1), tuple.Int(50)}}, nil), signed: 1,
		},
		{
			name: "int and float keys both move", src: byStore, base: sales(mixedKeySales()),
			deltas: onSales([]tuple.Tuple{tuple.Ints(9, 1, 7), {tuple.Int(9), tuple.Float(1), tuple.Int(50)}}, nil), signed: 2,
		},
		{
			// A two-rule stratum is re-folded.
			name: "two rules", src: byStore + ` byStore[s] = u <- extra(s, u).`,
			base:   map[string]relation.Relation{"sales": retailSales(), "extra": relation.FromTuples(2, []tuple.Tuple{tuple.Ints(10, 1)})},
			deltas: onSales([]tuple.Tuple{tuple.Ints(9, 3, 100)}, nil), refolded: 1,
		},
		{
			// One group is the whole head, updated by its delta.
			name: "zero-key aggregate", src: `total[] = u <- agg<<u = sum(v)>> sales(p, s, v).`,
			base: sales(retailSales()), deltas: onSales([]tuple.Tuple{tuple.Ints(9, 9, 9)}, nil), signed: 1,
		},
		{
			name: "touched keys reach half the head", src: `mean[s] = u <- agg<<u = avg(v)>> sales(p, s, v).`,
			base: sales(retailSales()), deltas: onSales([]tuple.Tuple{tuple.Ints(9, 0, 1), tuple.Ints(9, 1, 1), tuple.Ints(9, 2, 1)}, nil),
			whole: true,
		},
		{
			// A computed key cannot be pinned.
			name: "key not a join variable", src: `shifted[k] = u <- agg<<u = sum(v)>> sales(p, s, v), k = s + 1.`,
			base: sales(retailSales()), deltas: onSales([]tuple.Tuple{tuple.Ints(9, 3, 100)}, nil), whole: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prog := mustCompile(t, tc.src)
			signed, refolded, whole, got, want := refoldAgainstReeval(t, prog, tc.base, tc.deltas)
			if whole != tc.whole || !whole && (signed != tc.signed || refolded != tc.refolded) {
				t.Errorf("signed %d, re-folded %d, whole %v; want %d, %d, %v", signed, refolded, whole, tc.signed, tc.refolded, tc.whole)
			}
			if !got.Equal(want) {
				t.Fatalf("head = %v, re-evaluation gives %v", got.Slice(), want.Slice())
			}
		})
	}
}

// refoldAgainstReeval evaluates the program's first stratum over base,
// applies the exact deltas and maintains the stratum by RefoldStratum,
// and returns what RefoldStratum reported, the maintained head and the
// head a from-scratch evaluation of the changed base gives.
func refoldAgainstReeval(t testing.TB, prog *compiler.Program, base map[string]relation.Relation, deltas map[string]Delta) (signed, refolded int, whole bool, got, want relation.Relation) {
	ctx := NewContext(prog, base, Options{})
	if err := ctx.EvalAll(); err != nil {
		t.Fatal(err)
	}
	next := map[string]relation.Relation{}
	old := map[string]relation.Relation{}
	for name, rel := range base {
		next[name] = rel
	}
	for name, d := range deltas {
		old[name] = next[name]
		for _, x := range d.Del {
			next[name] = next[name].Delete(x)
		}
		for _, x := range d.Ins {
			next[name] = next[name].Insert(x)
		}
		ctx.Set(name, next[name])
	}
	stratum := prog.Strata[0]
	signed, refolded, whole, err := ctx.RefoldStratum(nil, stratum, deltas, old)
	if err != nil {
		t.Fatal(err)
	}
	fresh := NewContext(prog, next, Options{})
	if err := fresh.ReevalStratum(nil, stratum); err != nil {
		t.Fatal(err)
	}
	head := stratum[0].HeadName
	return signed, refolded, whole, ctx.Relation(head), fresh.Relation(head)
}

// signedViews are the int sum and count views FuzzSignedRefold maintains:
// keyed by either column, by none, over a self-join, where both atoms
// move in one batch, and over a join with active, where two predicates
// do — so a binding can be in neither state.
var signedViews = []string{
	`h[s] = u <- agg<<u = sum(v)>> sales(p, s, v).`,
	`h[s] = u <- agg<<u = count()>> sales(p, s, v).`,
	`h[p] = u <- agg<<u = sum(v)>> sales(p, s, v).`,
	`h[] = u <- agg<<u = count()>> sales(p, s, v).`,
	`h[s] = u <- agg<<u = sum(v)>> sales(p, s, v), sales(q, s, w).`,
	`h[s] = u <- agg<<u = sum(v)>> sales(p, s, v), active(p).`,
	`h[s] = u <- agg<<u = count()>> sales(p, s, v), active(p).`,
}

// FuzzSignedRefold maintains a random int sum or count view over a small
// sales relation through a random insert/delete batch: the head after
// RefoldStratum must equal a from-scratch evaluation's. Facts and batch
// are 3-byte records (p, s, v) — at most 32 and 16, which keeps the
// self-join small — over a 4 × 4 key space, so groups empty and
// appear often; a batch record deletes the fact when it is there and
// inserts it otherwise, and is skipped when it names a fact the batch
// already changed, so the delta is exact. With wide set, values are scaled
// by 2^56, so sums wrap. The bits of act's low nibble are the products
// active before the batch, those of its high nibble the ones the batch
// toggles.
func FuzzSignedRefold(f *testing.F) {
	f.Add(uint8(0), false, uint8(0), []byte{0, 0, 5, 1, 0, 7, 2, 1, 3}, []byte{0, 0, 5, 3, 1, 9})
	f.Add(uint8(1), false, uint8(0), []byte{0, 0, 5, 1, 0, 7}, []byte{0, 0, 5, 1, 0, 7})
	f.Add(uint8(2), true, uint8(0), []byte{0, 0, 127, 0, 1, 127, 1, 1, 200}, []byte{0, 2, 127})
	f.Add(uint8(3), false, uint8(0), []byte{0, 0, 1}, []byte{0, 0, 1, 2, 2, 2})
	f.Add(uint8(4), false, uint8(0), []byte{0, 0, 5, 1, 0, 7, 2, 1, 3}, []byte{3, 0, 4, 1, 0, 7, 2, 1, 8})
	// active(1) goes as sales(1, 3, 5) comes: store 3 loses its one
	// binding and gains and loses one in neither state.
	f.Add(uint8(5), false, uint8(0x22), []byte{1, 3, 7, 0, 3, 2, 1, 0, 1}, []byte{1, 3, 5})
	f.Add(uint8(6), false, uint8(0x93), []byte{0, 0, 1, 1, 0, 2, 3, 2, 4}, []byte{3, 0, 1, 1, 0, 2})
	progs := make([]*compiler.Program, len(signedViews))
	for i, src := range signedViews {
		progs[i] = mustCompile(f, src)
	}
	fact := func(b []byte, wide bool) tuple.Tuple {
		v := int64(int8(b[2]))
		if wide {
			v <<= 56
		}
		return tuple.Ints(int64(b[0]%4), int64(b[1]%4), v)
	}
	f.Fuzz(func(t *testing.T, view uint8, wide bool, act uint8, facts, batch []byte) {
		facts, batch = facts[:min(len(facts), 3*32)], batch[:min(len(batch), 3*16)]
		sales := relation.New(3)
		for ; len(facts) >= 3; facts = facts[3:] {
			sales = sales.Insert(fact(facts, wide))
		}
		var d Delta
		next := sales
		for ; len(batch) >= 3; batch = batch[3:] {
			x := fact(batch, wide)
			switch {
			case next.Contains(x) && sales.Contains(x):
				d.Del = append(d.Del, x)
				next = next.Delete(x)
			case !next.Contains(x) && !sales.Contains(x):
				d.Ins = append(d.Ins, x)
				next = next.Insert(x)
			}
		}
		active := relation.New(1)
		var da Delta
		for p := int64(0); p < 4; p++ {
			x := tuple.Ints(p)
			was := act>>p&1 == 1
			if was {
				active = active.Insert(x)
			}
			switch {
			case act>>(4+p)&1 == 0:
			case was:
				da.Del = append(da.Del, x)
			default:
				da.Ins = append(da.Ins, x)
			}
		}
		prog := progs[int(view)%len(progs)]
		base := map[string]relation.Relation{"sales": sales, "active": active}
		_, _, _, got, want := refoldAgainstReeval(t, prog, base, map[string]Delta{"sales": d, "active": da})
		if !got.Equal(want) {
			t.Fatalf("%s\nsales %v, delta %+v, active %v, delta %+v:\nhead = %v, re-evaluation gives %v", prog.Rules[0].Source, sales.Slice(), d, active.Slice(), da, got.Slice(), want.Slice())
		}
	})
}

// BenchmarkRefoldCrossover places RefoldStratum's fallback: on 20k retail
// facts it times a max view re-folding an eighth, a quarter, three
// eighths, half, three quarters and all of its groups — each touched
// key's stored tuple deleted, then every rule run once restricted to the
// keys (refoldGroups) — against the full pass that replaces it
// (ReevalStratum), with the view keyed by product (200 groups) and by
// store (10 groups).
func BenchmarkRefoldCrossover(b *testing.B) {
	sales := retailFacts(200, 10, 10)
	for _, view := range []struct{ name, src string }{
		{"byProduct", `top[p] = u <- agg<<u = max(n)>> sales[p, s, wk] = n.`},
		{"byStore", `top[s] = u <- agg<<u = max(n)>> sales[p, s, wk] = n.`},
	} {
		prog := mustCompile(b, `sales[p, s, wk] = n -> int(p), int(s), int(wk), int(n).`+"\n"+view.src)
		rules := prog.Strata[len(prog.Strata)-1]
		ctx := NewContext(prog, map[string]relation.Relation{"sales": sales}, Options{})
		if err := ctx.EvalStratum(rules); err != nil {
			b.Fatal(err)
		}
		full := ctx.Relation("top")
		keyVars, ok := groupKeyVars(rules)
		if !ok {
			b.Fatal("the view's key is not a join variable")
		}
		b.Run(view.name+"/full", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := ctx.ReevalStratum(nil, rules); err != nil {
					b.Fatal(err)
				}
			}
		})
		for _, eighths := range []int{1, 2, 3, 4, 6, 8} {
			var keys []tuple.Tuple
			full.ForEach(func(t tuple.Tuple) bool {
				if len(keys) < full.Len()*eighths/8 {
					keys = append(keys, t[:1].Clone())
				}
				return true
			})
			b.Run(fmt.Sprintf("%s/refold-%d-of-8", view.name, eighths), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					next := full
					for _, k := range keys {
						for _, s := range full.Lookup(k) {
							next = next.Delete(s)
						}
					}
					next, err := ctx.refoldGroups(nil, rules, keyVars, keys, next)
					if err != nil {
						b.Fatal(err)
					}
					if !next.Equal(full) {
						b.Fatal("the re-folded view differs from the full pass")
					}
				}
			})
		}
	}
}
