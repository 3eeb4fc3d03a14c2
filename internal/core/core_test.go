package core

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"logicblox/internal/tuple"
)

func mustAddBlock(t *testing.T, ws *Workspace, name, src string) *Workspace {
	t.Helper()
	out, err := ws.AddBlock(name, src)
	if err != nil {
		t.Fatalf("AddBlock(%s): %v", name, err)
	}
	return out
}

func mustExec(t *testing.T, ws *Workspace, src string) *Workspace {
	t.Helper()
	res, err := ws.Exec(src)
	if err != nil {
		t.Fatalf("Exec(%q): %v", src, err)
	}
	return res.Workspace
}

func TestAddBlockAndQuery(t *testing.T) {
	ws := NewWorkspace()
	ws = mustAddBlock(t, ws, "schema", `
		profit[sku] = z <- sellingPrice[sku] = x, buyingPrice[sku] = y, z = x - y.`)
	ws = mustExec(t, ws, `
		+sellingPrice["a"] = 10.
		+sellingPrice["b"] = 7.
		+buyingPrice["a"] = 6.
		+buyingPrice["b"] = 5.`)
	rows, err := ws.Query(`_(sku, p) <- profit[sku] = p.`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("query rows = %v", rows)
	}
	if rows[0][0].AsString() != "a" || rows[0][1].AsInt() != 4 {
		t.Fatalf("rows = %v", rows)
	}
}

func TestExecReactiveRuleFromPaper(t *testing.T) {
	// §2.2.1: discount popsicles when January sales are low and a
	// promotion is being created.
	ws := NewWorkspace()
	ws = mustAddBlock(t, ws, "schema", `
		price[p] = v -> string(p), float(v).
		sales[p, m] = v -> string(p), string(m), int(v).`)
	ws = mustExec(t, ws, `
		+price["Popsicle"] = 1.0.
		+sales["Popsicle", "2015-01"] = 30.`)
	ws = mustExec(t, ws, `
		^price["Popsicle"] = y <-
			price@start["Popsicle"] = x,
			sales@start["Popsicle", "2015-01"] < 50,
			+promo("Popsicle", "2015-01"),
			y = 0.8 * x.
		+promo("Popsicle", "2015-01").`)
	if v, ok := ws.Relation("price").FuncGet(tuple.Strings("Popsicle")); !ok || v.AsFloat() != 0.8 {
		t.Fatalf("price after discount = %v, %v", v, ok)
	}
	if !ws.Relation("promo").Contains(tuple.Strings("Popsicle", "2015-01")) {
		t.Fatalf("promo fact missing")
	}
}

func TestExecUpsertReplacesFunctionalValue(t *testing.T) {
	ws := NewWorkspace()
	ws = mustAddBlock(t, ws, "s", `inventory[x] = v -> string(x), int(v).`)
	ws = mustExec(t, ws, `+inventory["widget"] = 5.`)
	ws = mustExec(t, ws, `
		^inventory["widget"] = y <- inventory@start["widget"] = x, y = x - 1.`)
	rel := ws.Relation("inventory")
	if rel.Len() != 1 {
		t.Fatalf("inventory = %v", rel.Slice())
	}
	if v, _ := rel.FuncGet(tuple.Strings("widget")); v.AsInt() != 4 {
		t.Fatalf("inventory[widget] = %v", v)
	}
}

func TestExecDeleteAndDerivedMaintenance(t *testing.T) {
	ws := NewWorkspace()
	ws = mustAddBlock(t, ws, "s", `
		place_order(x) <- inventory[x] = 0, auto_order(x).`)
	ws = mustExec(t, ws, `
		+inventory["Popsicle"] = 1.
		+auto_order("Popsicle").`)
	if ws.Relation("place_order").Len() != 0 {
		t.Fatalf("order placed too early")
	}
	ws = mustExec(t, ws, `
		^inventory["Popsicle"] = x <- inventory@start["Popsicle"] = y, x = y - 1.`)
	if !ws.Relation("place_order").Contains(tuple.Strings("Popsicle")) {
		t.Fatalf("place_order not derived: %v", ws.Relation("place_order").Slice())
	}
	// Explicit deletion.
	ws = mustExec(t, ws, `-auto_order("Popsicle").`)
	if ws.Relation("place_order").Len() != 0 {
		t.Fatalf("place_order not retracted")
	}
}

func TestConstraintAbortsTransaction(t *testing.T) {
	ws := NewWorkspace()
	ws = mustAddBlock(t, ws, "s", `
		Stock[p] = v -> float(v).
		maxStock[p] = v -> float(v).
		Stock[p] = v, maxStock[p] = m -> v <= m.`)
	ws = mustExec(t, ws, `+maxStock["a"] = 10.0. +Stock["a"] = 5.0.`)
	before := ws
	_, err := ws.Exec(`^Stock["a"] = 50.0.`)
	if err == nil || !strings.Contains(err.Error(), "constraint") {
		t.Fatalf("expected constraint violation, got %v", err)
	}
	// Aborting leaves the previous version untouched.
	if v, _ := before.Relation("Stock").FuncGet(tuple.Strings("a")); v.AsFloat() != 5.0 {
		t.Fatalf("aborted transaction mutated the workspace")
	}
}

func TestAddBlockLiveProgramming(t *testing.T) {
	ws := NewWorkspace()
	ws = mustAddBlock(t, ws, "data", `sales(p, w) -> string(p), int(w).`)
	ws = mustExec(t, ws, `+sales("a", 1). +sales("a", 2). +sales("b", 1).`)
	// Install a view after the data exists.
	ws = mustAddBlock(t, ws, "salesAgg1", `
		salesCount[p] = c <- agg<<c = count()>> sales(p, w).`)
	if v, _ := ws.Relation("salesCount").FuncGet(tuple.Strings("a")); v.AsInt() != 2 {
		t.Fatalf("salesCount[a] = %v", v)
	}
	// Remove it again: the view disappears.
	ws2, err := ws.RemoveBlock("salesAgg1")
	if err != nil {
		t.Fatal(err)
	}
	if ws2.Relation("salesCount").Len() != 0 {
		t.Fatalf("removed view still materialized")
	}
	// And the original is untouched (persistence).
	if ws.Relation("salesCount").Len() != 2 {
		t.Fatalf("original version mutated")
	}
}

// A predicate derived by two blocks is one maintenance unit: removing
// either block re-evaluates the whole predicate, so the removed rule's
// tuples leave it even though the surviving rule reproduces its own result.
func TestRemoveBlockOfSharedHead(t *testing.T) {
	base := NewWorkspace()
	base = mustAddBlock(t, base, "data", `a(x) -> int(x). b(x) -> int(x).`)
	base = mustExec(t, base, `+a(1). +a(2). +b(2). +b(3).`)
	base = mustAddBlock(t, base, "r1", `v(x) <- a(x).`)
	base = mustAddBlock(t, base, "r2", `v(x) <- b(x).`)
	if got := base.Relation("v").Slice(); len(got) != 3 {
		t.Fatalf("v with both blocks = %v", got)
	}
	mustRemove := func(ws *Workspace, name string) *Workspace {
		t.Helper()
		out, err := ws.RemoveBlock(name)
		if err != nil {
			t.Fatalf("RemoveBlock(%s): %v", name, err)
		}
		return out
	}
	wantV := func(ws *Workspace, step string, want ...int64) {
		t.Helper()
		got := ws.Relation("v").Slice()
		if len(got) != len(want) {
			t.Fatalf("%s: v = %v, want %v", step, got, want)
		}
		for i, w := range want {
			if !got[i].Equal(tuple.Ints(w)) {
				t.Fatalf("%s: v = %v, want %v", step, got, want)
			}
		}
	}

	ws := mustRemove(base, "r2")
	wantV(ws, "r2 removed", 1, 2)
	ws = mustExec(t, ws, `+a(7). -a(1).`)
	wantV(ws, "exec on a after removing r2", 2, 7)
	ws = mustExec(t, ws, `+b(9).`)
	wantV(ws, "exec on b after removing r2", 2, 7)

	wantV(mustRemove(base, "r1"), "r1 removed", 2, 3)

	ws = mustRemove(mustRemove(base, "r1"), "r2")
	wantV(ws, "both removed")
	if _, have := ws.derived.Get("v"); have {
		t.Fatal("v lost all its rules but is still materialized")
	}
	wantV(mustAddBlock(t, ws, "r2", `v(x) <- b(x).`), "r2 re-added", 2, 3)
}

func TestAddBlockRejectsDuplicatesAndBadSyntax(t *testing.T) {
	ws := NewWorkspace()
	ws = mustAddBlock(t, ws, "b", `v(x) <- r(x).`)
	if _, err := ws.AddBlock("b", `w(x) <- r(x).`); err == nil {
		t.Fatal("duplicate block accepted")
	}
	if _, err := ws.AddBlock("bad", `v(x <- r(x).`); err == nil {
		t.Fatal("syntax error accepted")
	}
	if _, err := ws.RemoveBlock("nope"); err == nil {
		t.Fatal("removing unknown block accepted")
	}
}

func TestRecursiveViewInWorkspace(t *testing.T) {
	ws := NewWorkspace()
	ws = mustAddBlock(t, ws, "tc", `
		path(x, y) <- edge(x, y).
		path(x, z) <- path(x, y), edge(y, z).`)
	ws = mustExec(t, ws, `+edge(1, 2). +edge(2, 3).`)
	if !ws.Relation("path").Contains(tuple.Ints(1, 3)) {
		t.Fatalf("path = %v", ws.Relation("path").Slice())
	}
	ws = mustExec(t, ws, `-edge(2, 3). +edge(2, 4).`)
	p := ws.Relation("path")
	if p.Contains(tuple.Ints(1, 3)) || !p.Contains(tuple.Ints(1, 4)) {
		t.Fatalf("path after update = %v", p.Slice())
	}
}

func TestInsertDeleteConvenience(t *testing.T) {
	ws := NewWorkspace()
	ws = mustAddBlock(t, ws, "v", `big(x) <- n(x, v), v > 10.`)
	ws, err := ws.Insert("n", tuple.Ints(1, 20), tuple.Ints(2, 5))
	if err != nil {
		t.Fatal(err)
	}
	if !ws.Relation("big").Contains(tuple.Ints(1)) || ws.Relation("big").Len() != 1 {
		t.Fatalf("big = %v", ws.Relation("big").Slice())
	}
	ws, err = ws.Delete("n", tuple.Ints(1, 20))
	if err != nil {
		t.Fatal(err)
	}
	if ws.Relation("big").Len() != 0 {
		t.Fatalf("big after delete = %v", ws.Relation("big").Slice())
	}
	if _, err := ws.Insert("big", tuple.Ints(9)); err == nil {
		t.Fatal("inserting into derived predicate accepted")
	}
}

func TestDatabaseBranching(t *testing.T) {
	db := NewDatabase()
	ws, _ := db.Workspace(DefaultBranch)
	ws = mustAddBlock(t, ws, "s", `total[] = u <- agg<<u = sum(v)>> item(x, v).`)
	ws = mustExec(t, ws, `+item("a", 10).`)
	if err := db.Commit(DefaultBranch, ws); err != nil {
		t.Fatal(err)
	}

	// Branch for what-if analysis.
	if err := db.Branch(DefaultBranch, "whatif"); err != nil {
		t.Fatal(err)
	}
	wf, _ := db.Workspace("whatif")
	wf = mustExec(t, wf, `+item("b", 100).`)
	if err := db.Commit("whatif", wf); err != nil {
		t.Fatal(err)
	}

	// The branches evolved independently.
	mainWs, _ := db.Workspace(DefaultBranch)
	whatifWs, _ := db.Workspace("whatif")
	vMain, _ := mainWs.Relation("total").FuncGet(tuple.Tuple{})
	vWhatif, _ := whatifWs.Relation("total").FuncGet(tuple.Tuple{})
	if vMain.AsInt() != 10 || vWhatif.AsInt() != 110 {
		t.Fatalf("main=%v whatif=%v", vMain, vWhatif)
	}

	// Time travel: branch from the first committed version.
	if err := db.BranchAt(0, "genesis"); err != nil {
		t.Fatal(err)
	}
	g, _ := db.Workspace("genesis")
	if len(g.Blocks()) != 0 {
		t.Fatalf("genesis should be empty")
	}

	if err := db.DeleteBranch("whatif"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Workspace("whatif"); err == nil {
		t.Fatal("deleted branch still accessible")
	}
	if err := db.DeleteBranch(DefaultBranch); err == nil {
		t.Fatal("deleting main should fail")
	}
	if db.Versions() < 3 {
		t.Fatalf("history too short: %d", db.Versions())
	}
}

func TestQueryWithAuxiliaryRules(t *testing.T) {
	ws := NewWorkspace()
	ws = mustAddBlock(t, ws, "s", `sales(p, v) -> string(p), int(v).`)
	ws = mustExec(t, ws, `+sales("a", 1). +sales("a", 2). +sales("b", 7).`)
	rows, err := ws.Query(`
		bySku[p] = u <- agg<<u = sum(v)>> sales(p, v).
		_(p, u) <- bySku[p] = u, u > 2.`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	// Queries must not leave auxiliary predicates behind.
	if ws.Relation("bySku").Len() != 0 {
		t.Fatalf("query leaked state into workspace")
	}
}

func TestExecAuditLogReactiveRule(t *testing.T) {
	ws := NewWorkspace()
	ws = mustAddBlock(t, ws, "s", `
		audit(x) <- +item(x).`)
	ws = mustExec(t, ws, `+item("a").`)
	if !ws.Relation("audit").Contains(tuple.Strings("a")) {
		t.Fatalf("audit = %v", ws.Relation("audit").Slice())
	}
	ws = mustExec(t, ws, `+item("b").`)
	// The audit log accumulates across transactions.
	if ws.Relation("audit").Len() != 2 {
		t.Fatalf("audit = %v", ws.Relation("audit").Slice())
	}
}

func TestSaveAndLoadDatabase(t *testing.T) {
	db := NewDatabase()
	ws, _ := db.Workspace(DefaultBranch)
	ws = mustAddBlock(t, ws, "s", `
		price[p] = v -> string(p), float(v).
		cheap(p) <- price[p] = v, v < 2.0.`)
	ws = mustExec(t, ws, `+price["a"] = 1.0. +price["b"] = 3.0.`)
	if err := db.Commit(DefaultBranch, ws); err != nil {
		t.Fatal(err)
	}
	if err := db.Branch(DefaultBranch, "side"); err != nil {
		t.Fatal(err)
	}
	side, _ := db.Workspace("side")
	side = mustExec(t, side, `+price["c"] = 0.5.`)
	if err := db.Commit("side", side); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadDatabase(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Both branches and their derived views survive the round trip.
	mainWs, err := restored.Workspace(DefaultBranch)
	if err != nil {
		t.Fatal(err)
	}
	if !mainWs.Relation("cheap").Contains(tuple.Strings("a")) || mainWs.Relation("cheap").Len() != 1 {
		t.Fatalf("restored main cheap = %v", mainWs.Relation("cheap").Slice())
	}
	sideWs, err := restored.Workspace("side")
	if err != nil {
		t.Fatal(err)
	}
	if sideWs.Relation("cheap").Len() != 2 {
		t.Fatalf("restored side cheap = %v", sideWs.Relation("cheap").Slice())
	}
	// The restored database keeps working: transactions, constraints, views.
	next := mustExec(t, mainWs, `+price["d"] = 1.5.`)
	if !next.Relation("cheap").Contains(tuple.Strings("d")) {
		t.Fatalf("restored workspace does not derive: %v", next.Relation("cheap").Slice())
	}
}

func TestLoadDatabaseRejectsGarbage(t *testing.T) {
	if _, err := LoadDatabase(strings.NewReader("not a snapshot")); err == nil {
		t.Fatal("garbage snapshot accepted")
	}
}

func TestSnapshotValueRoundTrip(t *testing.T) {
	vals := []tuple.Value{
		tuple.Bool(true), tuple.Bool(false), tuple.Int(-7), tuple.Int(math.MinInt64),
		tuple.Float(2.5), tuple.Float(math.Copysign(0, -1)), tuple.Float(math.NaN()),
		tuple.String("x"), tuple.String(""), tuple.Entity(3, 9), tuple.Entity(math.MaxUint32, 0), tuple.Null,
	}
	for _, v := range vals {
		enc := appendValue(nil, v)
		got, rest, ok := decodeValue(append(enc, 0xff))
		if !ok || len(rest) != 1 || got != v {
			t.Errorf("round trip %v → %v (%d bytes left, ok %v)", v, got, len(rest), ok)
		}
		for cut := 0; cut < len(enc); cut++ {
			if _, _, ok := decodeValue(enc[:cut]); ok {
				t.Errorf("%v cut to %d of %d bytes decodes", v, cut, len(enc))
			}
		}
	}
}
