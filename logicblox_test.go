package logicblox

import (
	"errors"
	"testing"
)

// TestPublicAPIQuickstart exercises the full public surface end to end:
// blocks, exec transactions, queries, branching, and solve.
func TestPublicAPIQuickstart(t *testing.T) {
	db := Open()
	ws, err := db.Workspace(DefaultBranch)
	if err != nil {
		t.Fatal(err)
	}
	ws, err = ws.AddBlock("schema", `
		sellingPrice[p] = v -> Product(p), float(v).
		buyingPrice[p] = v -> Product(p), float(v).
		profit[p] = s - b <- sellingPrice[p] = s, buyingPrice[p] = b.`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ws.Exec(`
		+Product("eis"). +Product("soda").
		+sellingPrice["eis"] = 3.0. +buyingPrice["eis"] = 1.0.
		+sellingPrice["soda"] = 2.0. +buyingPrice["soda"] = 1.5.`)
	if err != nil {
		t.Fatal(err)
	}
	ws = res.Workspace
	rows, err := ws.Query(`_(p, v) <- profit[p] = v, v > 1.0.`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0].AsString() != "eis" {
		t.Fatalf("rows = %v", rows)
	}
	if err := db.Commit(DefaultBranch, ws); err != nil {
		t.Fatal(err)
	}

	// Branch, modify, verify isolation.
	if err := db.Branch(DefaultBranch, "scenario"); err != nil {
		t.Fatal(err)
	}
	sw, _ := db.Workspace("scenario")
	res2, err := sw.Exec(`^sellingPrice["soda"] = 4.0.`)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Commit("scenario", res2.Workspace); err != nil {
		t.Fatal(err)
	}
	mainWs, _ := db.Workspace(DefaultBranch)
	v, _ := mainWs.Relation("sellingPrice").FuncGet(Strings("soda"))
	if v.AsFloat() != 2.0 {
		t.Fatalf("branch leaked into main: %v", v)
	}
}

// TestPublicAPISolve runs the paper's assortment-planning LP through the
// public surface.
func TestPublicAPISolve(t *testing.T) {
	ws := NewWorkspace()
	ws, err := ws.AddBlock("plan", `
		spacePerProd[p] = v -> Product(p), float(v).
		profitPerProd[p] = v -> Product(p), float(v).
		maxShelf[] = v -> float(v).
		Stock[p] = v -> Product(p), float(v).
		totalShelf[] = u <- agg<<u = sum(z)>> Stock[p] = x, spacePerProd[p] = y, z = x * y.
		totalProfit[] = u <- agg<<u = sum(z)>> Stock[p] = x, profitPerProd[p] = y, z = x * y.
		Product(p) -> Stock[p] >= 0.0.
		totalShelf[] = u, maxShelf[] = v -> u <= v.
		lang:solve:variable(`+"`Stock"+`).
		lang:solve:max(`+"`totalProfit"+`).`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ws.Exec(`
		+Product("a"). +Product("b").
		+spacePerProd["a"] = 1.0. +spacePerProd["b"] = 2.0.
		+profitPerProd["a"] = 3.0. +profitPerProd["b"] = 4.0.
		+maxShelf[] = 10.0.`)
	if err != nil {
		t.Fatal(err)
	}
	solved, sol, err := res.Workspace.Solve()
	if err != nil {
		t.Fatal(err)
	}
	// Profit density per shelf unit: a = 3, b = 2 → all shelf to a: 10
	// units, profit 30.
	if sol.Objective < 29.99 || sol.Objective > 30.01 {
		t.Fatalf("objective = %v, want 30", sol.Objective)
	}
	va, _ := solved.Relation("Stock").FuncGet(Strings("a"))
	if va.AsFloat() < 9.99 {
		t.Fatalf("Stock[a] = %v, want 10", va)
	}
	// The derived views are re-materialized over the solution.
	tp, _ := solved.Relation("totalProfit").FuncGet(Tuple{})
	if tp.AsFloat() < 29.99 {
		t.Fatalf("totalProfit = %v", tp)
	}
}

// TestOpenWithOptions checks the functional-options form of Open: the
// configured root workspace is inherited by the whole lineage, and the
// typed error re-exports match with errors.Is.
func TestOpenWithOptions(t *testing.T) {
	reg := NewObsRegistry()
	db := Open(WithObs(reg))
	ws, err := db.Workspace(DefaultBranch)
	if err != nil {
		t.Fatal(err)
	}
	ws, err = ws.AddBlock("tc", `
		path(x, y) <- edge(x, y).
		path(x, z) <- path(x, y), edge(y, z).`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ws.Exec(`+edge(1, 2). +edge(2, 3).`)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Commit(DefaultBranch, res.Workspace); err != nil {
		t.Fatal(err)
	}
	// Options are inherited: the observer recorded the transaction.
	head, _ := db.Workspace(DefaultBranch)
	if reg.Snapshot().Counters["tx.exec.commit"] == 0 {
		t.Fatalf("observer saw no transactions: %v", reg.Snapshot().Counters)
	}

	if _, err := head.Exec(`+p(1`); !errors.Is(err, ErrParse) {
		t.Errorf("ErrParse not carried: %v", err)
	}
	if _, err := db.Workspace("nope"); !errors.Is(err, ErrNoSuchBranch) {
		t.Errorf("ErrNoSuchBranch not carried: %v", err)
	}
}
