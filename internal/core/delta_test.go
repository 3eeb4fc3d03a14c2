package core

import (
	"testing"

	"logicblox/internal/engine"
	"logicblox/internal/obs"
	"logicblox/internal/relation"
	"logicblox/internal/treap"
	"logicblox/internal/tuple"
)

// retailSchema is the paper's §2.1 retail shape: functional base
// predicates, aggregate views, a view joining a view with a base
// predicate, and one constraint over each kind of body.
const retailSchema = `
	sales[p, s, wk] = n -> int(p), int(s), int(wk), int(n).
	price[p] = v -> int(p), int(v).
	salesByProduct[p] = u <- agg<<u = sum(n)>> sales[p, s, wk] = n.
	salesByStore[s] = u <- agg<<u = sum(n)>> sales[p, s, wk] = n.
	revenue[p] = r <- salesByProduct[p] = u, price[p] = v, r = u * v.
	hot(p) <- salesByProduct[p] = u, u > 100.
	sales[p, s, wk] = n -> n >= 0.
	salesByProduct[p] = u -> price[p] = _.`

// retailSeed installs retailSchema over 40 products × 4 stores × 5 weeks,
// sales[p, s, wk] = (p + s + wk) mod 10, through checked transactions.
func retailSeed(t *testing.T) *Workspace {
	t.Helper()
	ws := mustAddBlock(t, NewWorkspace(), "retail", retailSchema)
	var prices, sales []tuple.Tuple
	for p := int64(0); p < 40; p++ {
		prices = append(prices, tuple.Ints(p, 10+p))
		for s := int64(0); s < 4; s++ {
			for wk := int64(0); wk < 5; wk++ {
				sales = append(sales, tuple.Ints(p, s, wk, (p+s+wk)%10))
			}
		}
	}
	ws, err := ws.Insert("price", prices...)
	if err == nil {
		ws, err = ws.Insert("sales", sales...)
	}
	if err != nil {
		t.Fatal(err)
	}
	return ws
}

// TestRederivedViewSharesStructure pins the patch-store: after a one-fact
// exec the re-derived salesByProduct is its previous version patched by
// the delta, so diffing the two prunes on shared subtrees, while a view
// the re-evaluation reproduced keeps its previous value outright.
func TestRederivedViewSharesStructure(t *testing.T) {
	parent := retailSeed(t)
	child := mustExec(t, parent, `^sales[3, 1, 2] = 9.`) // was 6
	treap.ResetStats()
	treap.EnableStats(true)
	defer treap.EnableStats(false)

	var ins, del int
	parent.Relation("salesByProduct").Diff(child.Relation("salesByProduct"),
		func(tuple.Tuple) { del++ }, func(tuple.Tuple) { ins++ })
	if ins != 1 || del != 1 {
		t.Fatalf("salesByProduct moved by %d ins / %d del, want 1 / 1", ins, del)
	}
	if st := treap.Stats(); st.SharedSubtrees == 0 {
		t.Fatalf("the diff pruned no shared subtree: the view was rebuilt, not patched (%+v)", st)
	}

	// Moving one unit between two products of store 1 re-folds
	// salesByStore's group 1 and reproduces it.
	swapped := mustExec(t, child, `^sales[3, 1, 2] = 8. ^sales[4, 1, 2] = 8.`) // were 9 and 7
	treap.ResetStats()
	if !child.Relation("salesByStore").Equal(swapped.Relation("salesByStore")) {
		t.Fatal("salesByStore moved")
	}
	if st := treap.Stats(); st.SharedSubtrees != 1 {
		t.Fatalf("reproduced salesByStore is not its previous value: Equal pruned %d subtrees, want the root only", st.SharedSubtrees)
	}
}

// findSpans appends every span named name in s's subtree.
func findSpans(s obs.SpanSnapshot, name string, out []obs.SpanSnapshot) []obs.SpanSnapshot {
	if s.Name == name {
		out = append(out, s)
	}
	for _, c := range s.Children {
		out = findSpans(c, name, out)
	}
	return out
}

func spanAttr(s obs.SpanSnapshot, key string) int64 {
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Val
		}
	}
	return -1
}

func spanLabel(s obs.SpanSnapshot, key string) string {
	for _, l := range s.Labels {
		if l.Key == key {
			return l.Val
		}
	}
	return ""
}

// TestOneFactExecRefoldsTouchedGroups pins what a one-fact write costs on
// the retail schema: each aggregate view re-folds the one group the fact
// falls in, revenue and hot follow by DRed, no stratum is re-evaluated
// whole and no secondary index is built — and every view still equals a
// from-scratch evaluation.
func TestOneFactExecRefoldsTouchedGroups(t *testing.T) {
	reg := obs.NewRegistry()
	next := mustExec(t, retailSeed(t).WithObserver(reg), `^sales[3, 1, 2] = 9.`)
	c := reg.Snapshot().Counters
	if c["engine.index.permutes"] != 0 || c["core.rederive.strata_reevaluated"] != 0 || c["core.rederive.groups_refolded"] != 2 {
		t.Errorf("permutes / strata re-evaluated / groups re-folded = %d / %d / %d, want 0 / 0 / 2",
			c["engine.index.permutes"], c["core.rederive.strata_reevaluated"], c["core.rederive.groups_refolded"])
	}
	tr, ok := reg.LastTrace()
	if !ok {
		t.Fatal("no trace")
	}
	by := map[string]int{}
	for _, rd := range findSpans(tr, "rederive", nil) {
		for _, st := range findSpans(rd, "stratum", nil) {
			by[spanLabel(st, "maintained_by")]++
			if spanLabel(st, "maintained_by") == "refold" && spanAttr(st, "groups") != 1 {
				t.Errorf("a re-fold span reads groups=%d, want 1", spanAttr(st, "groups"))
			}
		}
	}
	if len(by) != 2 || by["refold"] != 2 || by["dred"] != 2 {
		t.Errorf("strata by maintained_by = %v, want 2 refold, 2 dred", by)
	}

	fresh := engine.NewContext(next.Program(), next.Relations(), engine.Options{})
	for _, name := range next.Program().IDBPreds {
		fresh.Set(name, relation.New(next.Relation(name).Arity()))
	}
	if err := fresh.EvalAll(); err != nil {
		t.Fatal(err)
	}
	for _, name := range next.Program().IDBPreds {
		if !fresh.Relation(name).Equal(next.Relation(name)) {
			t.Errorf("%s = %v, a full evaluation gives %v", name, next.Relation(name).Slice(), fresh.Relation(name).Slice())
		}
	}
}

// TestConstraintsSettledByDelta checks, on the retail schema, how each
// transaction shape settles its four constraints (the two type
// declarations are constraints too) — in the counters, on the constraints
// span — and that the rederive > stratum spans carry the
// moved heads' delta sizes.
func TestConstraintsSettledByDelta(t *testing.T) {
	cases := []struct {
		name, src                  string
		delta, full, skipped       int64
		byProductIns, byProductDel int64
	}{
		// Every body over sales or salesByProduct gained a tuple; price's
		// declaration is skipped.
		{name: "upsert", src: `^sales[3, 1, 2] = 9.`, delta: 3, skipped: 1, byProductIns: 1, byProductDel: 1},
		// sales only lost a tuple; salesByProduct moved both ways.
		{name: "delete", src: `-sales[3, 1, 2] = 6.`, delta: 1, skipped: 3, byProductIns: 1, byProductDel: 1},
		// A price changed: the head salesByProduct requires lost a tuple.
		{name: "price upsert", src: `^price[3] = 99.`, delta: 1, full: 1, skipped: 2, byProductIns: -1, byProductDel: -1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			ws := retailSeed(t).WithObserver(reg)
			mustExec(t, ws, tc.src)
			s := reg.Snapshot()
			for name, want := range map[string]int64{"delta_checked": tc.delta, "full_checked": tc.full, "skipped": tc.skipped} {
				if got := s.Counters["core.constraints."+name]; got != want {
					t.Errorf("core.constraints.%s = %d, want %d", name, got, want)
				}
			}
			tr, ok := reg.LastTrace()
			if !ok {
				t.Fatal("no trace")
			}
			ks := findSpans(tr, "constraints", nil)
			if len(ks) != 1 || spanAttr(ks[0], "delta_checked") != tc.delta || spanAttr(ks[0], "full_checked") != tc.full ||
				spanAttr(ks[0], "skipped") != tc.skipped {
				t.Errorf("constraints span = %+v", ks)
			}
			// The salesByProduct stratum is the one with a rule of that head.
			var ins, del int64 = -1, -1
			for _, st := range findSpans(tr, "stratum", nil) {
				if len(findSpans(st, "rule:salesByProduct", nil)) > 0 {
					ins, del = spanAttr(st, "ins"), spanAttr(st, "del")
				}
			}
			if ins != tc.byProductIns || del != tc.byProductDel {
				t.Errorf("salesByProduct stratum ins/del = %d/%d, want %d/%d", ins, del, tc.byProductIns, tc.byProductDel)
			}
		})
	}

	// The workbook's addblock of a view no constraint reads skips them all.
	reg := obs.NewRegistry()
	mustAddBlock(t, retailSeed(t).WithObserver(reg), "rollup", `salesByWeek[wk] = u <- agg<<u = sum(n)>> sales[p, s, wk] = n.`)
	if c := reg.Snapshot().Counters; c["core.constraints.skipped"] != 4 || c["core.constraints.delta_checked"]+c["core.constraints.full_checked"] != 0 {
		t.Errorf("addblock of an unconstrained view: counters %v, want 4 skipped", c)
	}
}
