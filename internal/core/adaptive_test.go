package core

import (
	"fmt"
	"testing"

	"logicblox/internal/tuple"
)

func adaptiveWS(t *testing.T) *Workspace {
	t.Helper()
	ws := NewWorkspace().WithAdaptiveOptimizer(true)
	ws = mustAddBlock(t, ws, "q", `q(a, b, c) <- r(a, b), s(b, c), t(c), !skip(a).`)
	var rs, ss []tuple.Tuple
	for i := int64(0); i < 3000; i++ {
		rs = append(rs, tuple.Ints(i%200, i%300))
		ss = append(ss, tuple.Ints(i%300, i%400))
	}
	var err error
	if ws, err = ws.Load("r", rs); err != nil {
		t.Fatal(err)
	}
	if ws, err = ws.Load("s", ss); err != nil {
		t.Fatal(err)
	}
	if ws, err = ws.Load("t", []tuple.Tuple{tuple.Ints(17)}); err != nil {
		t.Fatal(err)
	}
	return ws
}

// TestAdaptiveOptimizerSurvivesTransactions pins the tentpole's
// cross-transaction behavior: the plan store rides along every workspace
// version, so repeated transactions over unchanged logic reuse the
// cached order instead of re-sampling per transaction. Each exec also
// writes skip, which q negates, so DRed cannot maintain q by its delta:
// every transaction re-evaluates q whole, through the plan store.
func TestAdaptiveOptimizerSurvivesTransactions(t *testing.T) {
	ws := adaptiveWS(t)
	store := ws.PlanStore()
	if store == nil {
		t.Fatal("WithAdaptiveOptimizer(true) left no plan store")
	}

	for i := 0; i < 10; i++ {
		res, err := ws.Exec(fmt.Sprintf("+r(%d, %d). +skip(%d).", 10000+i, i%300, 20000+i))
		if err != nil {
			t.Fatal(err)
		}
		ws = res.Workspace
		if ws.PlanStore() != store {
			t.Fatal("transaction replaced the plan store")
		}
	}
	st := store.Stats()
	if st.Hits == 0 {
		t.Fatalf("no cache hits across 10 transactions: %+v", st)
	}
	// Sampling runs are a handful of cold misses (plus any redecisions),
	// far fewer than one per transaction.
	if st.Misses+st.Redecisions >= st.Hits {
		t.Fatalf("sampling did not amortize: %+v", st)
	}

	// Results stay correct: the adaptive workspace matches a plain one.
	adaptive, err := ws.Query(`_(a, b, c) <- q(a, b, c).`)
	if err != nil {
		t.Fatal(err)
	}
	plainWS := ws.WithAdaptiveOptimizer(false)
	plain, err := plainWS.Query(`_(a, b, c) <- q(a, b, c).`)
	if err != nil {
		t.Fatal(err)
	}
	if len(adaptive) != len(plain) {
		t.Fatalf("adaptive query returned %d rows, plain %d", len(adaptive), len(plain))
	}
}

// TestAdaptiveOptimizerSchemaChangeInvalidates: a block change that
// dirties a predicate must drop every cached plan reading or deriving
// it, so the optimizer re-decides against the new logic.
func TestAdaptiveOptimizerSchemaChangeInvalidates(t *testing.T) {
	ws := adaptiveWS(t)
	store := ws.PlanStore()
	if store.Len() == 0 {
		t.Fatal("no cached plan after initial derivation")
	}

	// Adding a second rule for q dirties q: the cached plan for the
	// original rule must not survive.
	ws = mustAddBlock(t, ws, "q2", `q(a, b, c) <- u(a, b, c).`)
	st := store.Stats()
	if st.Invalidated == 0 {
		t.Fatalf("schema change invalidated nothing: %+v", st)
	}
	if ws.PlanStore() != store {
		t.Fatal("addblock replaced the plan store")
	}

	// The next derivation re-populates the store.
	res, err := ws.Exec("+r(99999, 1).")
	if err != nil {
		t.Fatal(err)
	}
	if res.Workspace.PlanStore().Len() == 0 {
		t.Fatal("store not repopulated after invalidation")
	}
}

// TestAdaptiveOptimizerSharedAcrossBranches: branching a database
// workspace shares the plan store (it is a cache, not data), so plans
// learned on one branch benefit the others.
func TestAdaptiveOptimizerSharedAcrossBranches(t *testing.T) {
	ws := adaptiveWS(t)
	db := NewDatabase()
	if err := db.Commit(DefaultBranch, ws); err != nil {
		t.Fatal(err)
	}
	if err := db.Branch(DefaultBranch, "fork"); err != nil {
		t.Fatal(err)
	}
	fork, err := db.Workspace("fork")
	if err != nil {
		t.Fatal(err)
	}
	if fork.PlanStore() != ws.PlanStore() {
		t.Fatal("branching severed the plan store")
	}
}

func TestWithAdaptiveOptimizerOff(t *testing.T) {
	ws := NewWorkspace().WithAdaptiveOptimizer(true)
	if ws.PlanStore() == nil {
		t.Fatal("on: expected a plan store")
	}
	off := ws.WithAdaptiveOptimizer(false)
	if off.PlanStore() != nil {
		t.Fatal("off: expected no plan store")
	}
	if NewWorkspace().PlanStore() != nil {
		t.Fatal("default workspace must have no plan store")
	}
}
