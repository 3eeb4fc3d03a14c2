package core

import (
	"fmt"
	"strings"
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
	return retailWorkspace(t, 40)
}

// retailWorkspace is retailSeed over the given number of products, 20
// sales facts each.
func retailWorkspace(tb testing.TB, products int64) *Workspace {
	tb.Helper()
	ws, err := NewWorkspace().AddBlock("retail", retailSchema)
	if err != nil {
		tb.Fatal(err)
	}
	var prices, sales []tuple.Tuple
	for p := int64(0); p < products; p++ {
		prices = append(prices, tuple.Ints(p, 10+p))
		for s := int64(0); s < 4; s++ {
			for wk := int64(0); wk < 5; wk++ {
				sales = append(sales, tuple.Ints(p, s, wk, (p+s+wk)%10))
			}
		}
	}
	ws, err = ws.Insert("price", prices...)
	if err == nil {
		ws, err = ws.Insert("sales", sales...)
	}
	if err != nil {
		tb.Fatal(err)
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
// the retail schema: each aggregate view updates the one group the fact
// falls in by its signed delta — no group is re-folded —, revenue and hot
// follow by DRed, no stratum is re-evaluated whole and no secondary index
// is built — and every view still equals a from-scratch evaluation.
func TestOneFactExecRefoldsTouchedGroups(t *testing.T) {
	reg := obs.NewRegistry()
	next := mustExec(t, retailSeed(t).WithObserver(reg), `^sales[3, 1, 2] = 9.`)
	c := reg.Snapshot().Counters
	if c["engine.index.permutes"] != 0 || c["core.rederive.strata_reevaluated"] != 0 ||
		c["core.rederive.groups_refolded"] != 0 || c["core.rederive.groups_signed"] != 2 {
		t.Errorf("permutes / strata re-evaluated / groups re-folded / groups signed = %d / %d / %d / %d, want 0 / 0 / 0 / 2",
			c["engine.index.permutes"], c["core.rederive.strata_reevaluated"], c["core.rederive.groups_refolded"], c["core.rederive.groups_signed"])
	}
	by := maintainedBy(t, reg)
	if len(by) != 2 || by["signed"] != 2 || by["dred"] != 2 {
		t.Errorf("strata by maintained_by = %v, want 2 signed, 2 dred", by)
	}
	checkFullEval(t, next)
}

// TestBatchExecSignsEveryGroup is the workbook's what-if batch on the
// retail schema: 20 upserts reach every store, so salesByStore's touched
// groups are its whole head, yet every group is updated by its signed
// delta — no re-fold fallback, no stratum re-evaluated whole — and every
// view equals a from-scratch evaluation.
func TestBatchExecSignsEveryGroup(t *testing.T) {
	reg := obs.NewRegistry()
	var src strings.Builder
	for i := int64(0); i < 20; i++ {
		fmt.Fprintf(&src, "^sales[%d, %d, %d] = %d.\n", (7*i)%40, i%4, (3*i)%5, 10+i) // every seeded value is below 10
	}
	next := mustExec(t, retailSeed(t).WithObserver(reg), src.String())
	by := maintainedBy(t, reg)
	if by["reeval"] != 0 || by["refold"] != 0 || by["signed"] != 2 {
		t.Errorf("strata by maintained_by = %v, want 2 signed and none re-folded or re-evaluated", by)
	}
	tr, _ := reg.LastTrace()
	for _, st := range findSpans(tr, "stratum", nil) {
		if spanAttr(st, "refold_fallback") != -1 {
			t.Errorf("a stratum fell back to a whole re-evaluation: %+v", st)
		}
	}
	if c := reg.Snapshot().Counters; c["core.rederive.groups_signed"] != 24 {
		t.Errorf("groups signed = %d, want 24 (20 products, 4 stores)", c["core.rederive.groups_signed"])
	}
	checkFullEval(t, next)
}

// maintainedBy counts the stratum spans under rederive in the last trace
// in reg by their maintained_by label; a span labelled signed or refold
// must count one group or more.
func maintainedBy(t *testing.T, reg *obs.Registry) map[string]int {
	t.Helper()
	tr, ok := reg.LastTrace()
	if !ok {
		t.Fatal("no trace")
	}
	by := map[string]int{}
	for _, rd := range findSpans(tr, "rederive", nil) {
		for _, st := range findSpans(rd, "stratum", nil) {
			l := spanLabel(st, "maintained_by")
			by[l]++
			if (l == "signed" || l == "refold") && spanAttr(st, "groups") < 1 {
				t.Errorf("a %s span reads groups=%d", l, spanAttr(st, "groups"))
			}
		}
	}
	return by
}

// checkFullEval checks every derived predicate of ws against a
// from-scratch evaluation of its base predicates.
func checkFullEval(t *testing.T, ws *Workspace) {
	t.Helper()
	fresh := engine.NewContext(ws.Program(), ws.Relations(), engine.Options{})
	for _, name := range ws.Program().IDBPreds {
		fresh.Set(name, relation.New(ws.Relation(name).Arity()))
	}
	if err := fresh.EvalAll(); err != nil {
		t.Fatal(err)
	}
	for _, name := range ws.Program().IDBPreds {
		if !fresh.Relation(name).Equal(ws.Relation(name)) {
			t.Errorf("%s = %v, a full evaluation gives %v", name, ws.Relation(name).Slice(), fresh.Relation(name).Slice())
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
