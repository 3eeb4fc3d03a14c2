package core

import (
	"maps"
	"sort"
	"testing"

	"logicblox/internal/obs"
)

// blockStep is one addblock (src non-empty) or removeblock (src empty),
// how many of the strata it runs must read each maintained_by label, how
// many rules it must leave alone, and the views it must drop.
type blockStep struct {
	name, src string
	want      map[string]int
	reused    int64
	dropped   []string
}

// TestAddBlockDirtiness checks what an addblock or removeblock reaches.
// The change is the heads of the rules it adds or removes, and only their
// strata are re-evaluated whole. The walk maintains a reader of a moved
// head from that head's delta, and it leaves every other stratum alone.
// After every step, each predicate equals what a workspace built from
// scratch over the installed blocks holds.
func TestAddBlockDirtiness(t *testing.T) {
	for _, c := range []struct {
		name   string
		schema string
		facts  string
		blocks [][2]string // installed in order before the steps
		steps  []blockStep
	}{{
		name:   "new_view_no_readers",
		schema: `a(x) -> int(x). big(x) -> int(x).`,
		facts:  `+a(1). +a(2). +a(3). +big(2). +big(3).`,
		blocks: [][2]string{{"base", `b(x) <- a(x). c(x) <- b(x).`}},
		steps:  []blockStep{{name: "agg1", src: `d(x) <- b(x), big(x).`, want: map[string]int{"reeval": 1}, reused: 2}},
	}, {
		name:   "remove_only_rule",
		schema: `a(x) -> int(x). unrelated(x) -> int(x).`,
		facts:  `+a(1). +a(2). +unrelated(7).`,
		blocks: [][2]string{
			{"base", `b(x) <- a(x).`},
			{"mid", `c(x) <- b(x).`},
			{"top", `d(x) <- c(x). e(x) <- unrelated(x).`},
		},
		// c is dropped, so its reader d is re-evaluated and reads it empty;
		// b and e are left alone.
		steps: []blockStep{{name: "mid", want: map[string]int{"reeval": 1}, reused: 2, dropped: []string{"c"}}},
	}, {
		name:   "edit_readers_by_delta",
		schema: `src(x) -> int(x). keep(x) -> int(x).`,
		facts:  `+src(1). +src(2). +src(3). +keep(2).`,
		blocks: [][2]string{
			{"v1", `v(x) <- src(x).`},
			{"readers", `w(x) <- v(x). u(x) <- w(x).`},
		},
		// Dropping v re-evaluates its reader w, and u follows w's delta.
		// The new v is re-evaluated, and w and u follow by delta.
		steps: []blockStep{
			{name: "v1", want: map[string]int{"reeval": 1, "dred": 1}, dropped: []string{"v"}},
			{name: "v2", src: `v(x) <- src(x), keep(x).`, want: map[string]int{"reeval": 1, "dred": 2}},
		},
	}, {
		name:   "head_funcapp_is_read",
		schema: `Product(s) -> string(s). listPrice[s] = v -> string(s), int(v). buyingPrice[s] = v -> string(s), int(v).`,
		facts:  `+Product("a"). +Product("b"). +listPrice["a"] = 10. +listPrice["b"] = 7. +buyingPrice["a"] = 4. +buyingPrice["b"] = 5.`,
		blocks: [][2]string{
			{"sell", `sellingPrice[s] = v <- listPrice[s] = v.`},
			{"profit", `profit[s] = sellingPrice[s] - buyingPrice[s] <- Product(s).`},
		},
		// profit reads sellingPrice only in its head, and follows its delta.
		steps: []blockStep{
			{name: "sell", want: map[string]int{"reeval": 1}, dropped: []string{"sellingPrice"}},
			{name: "sell2", src: `sellingPrice[s] = v <- listPrice[s] = u, v = u + 1.`, want: map[string]int{"reeval": 1, "dred": 1}},
		},
	}, {
		name:   "constraints_only",
		schema: `a(x) -> int(x). b(x) -> int(x).`,
		facts:  `+a(1). +a(2). +b(2).`,
		blocks: [][2]string{{"views", `v(x) <- a(x), b(x).`}},
		steps:  []blockStep{{name: "check", src: `b(x) -> a(x).`, want: map[string]int{}, reused: 1}},
	}} {
		t.Run(c.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			ws := mustExec(t, mustAddBlock(t, NewWorkspace(), "schema", c.schema), c.facts).WithObserver(reg)
			installed := map[string]string{}
			for _, b := range c.blocks {
				ws = mustAddBlock(t, ws, b[0], b[1])
				installed[b[0]] = b[1]
			}
			for i, st := range c.steps {
				kind := "addblock"
				var err error
				if st.src == "" {
					kind = "removeblock"
					ws, err = ws.RemoveBlock(st.name)
					delete(installed, st.name)
				} else {
					ws, err = ws.AddBlock(st.name, st.src)
					installed[st.name] = st.src
				}
				if err != nil {
					t.Fatalf("step %d: %s %s: %v", i, kind, st.name, err)
				}
				tr, _ := reg.LastTrace()
				if tr.Name != "tx."+kind {
					t.Fatalf("step %d: last trace %q, want tx.%s", i, tr.Name, kind)
				}
				rd := findSpans(tr, "rederive", nil)
				if len(rd) != 1 {
					t.Fatalf("step %d: %d rederive spans", i, len(rd))
				}
				got := map[string]int{}
				for _, sp := range findSpans(rd[0], "stratum", nil) {
					got[spanLabel(sp, "maintained_by")]++
				}
				if !maps.Equal(got, st.want) || spanAttr(rd[0], "rules_reused") != st.reused {
					t.Errorf("step %d: %s %s ran strata %v and reused %d rules, want %v and %d",
						i, kind, st.name, got, spanAttr(rd[0], "rules_reused"), st.want, st.reused)
				}
				for _, p := range st.dropped {
					if _, ok := ws.derived.Get(p); ok {
						t.Errorf("step %d: %s lost its last rule but is still stored", i, p)
					}
				}
				checkFromScratch(t, ws, c.schema, c.facts, installed)
			}
		})
	}
}

// checkFromScratch compares every predicate ws knows, and every one it
// stores, with a workspace that installs the same blocks over the same
// data in one go.
func checkFromScratch(t *testing.T, ws *Workspace, schema, facts string, blocks map[string]string) {
	t.Helper()
	fresh := mustExec(t, mustAddBlock(t, NewWorkspace(), "schema", schema), facts)
	names := make([]string, 0, len(blocks))
	for name := range blocks {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fresh = mustAddBlock(t, fresh, name, blocks[name])
	}
	preds := ws.Relations()
	for name := range ws.Program().Preds {
		preds[name] = ws.Relation(name)
	}
	for name, got := range preds {
		if want := fresh.Relation(name); !got.Equal(want) {
			t.Errorf("%s = %v, from scratch %v", name, got.Slice(), want.Slice())
		}
	}
}
