package core

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"logicblox/internal/obs"
	"logicblox/internal/tuple"
)

// TestExecCtxDeadlineStopsFixpoint gives a transaction whose fixpoint
// would derive 50M facts a 50ms budget; the engine must notice the
// deadline at an iteration boundary and abort quickly.
func TestExecCtxDeadlineStopsFixpoint(t *testing.T) {
	ws := mustAddBlock(t, NewWorkspace(), "rec", `
		m(x) <- seed(x).
		m(y) <- m(x), x < 50000000, y = x + 1.`)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	t0 := time.Now()
	_, err := ws.ExecCtx(ctx, `+seed(0).`)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(t0); elapsed > 10*time.Second {
		t.Fatalf("fixpoint ignored the deadline: %v", elapsed)
	}
}

// TestDeadlineBindsInsideJoins gives five transaction shapes whose only
// slow part is one cross-product join (200³ bindings, seconds of work) a
// 20ms deadline: a reactive exec rule, an aggregating query on the
// materialized path, a constraint body rechecked in full by a one-fact
// exec (the Load that seeded it was unchecked), the same constraint
// shape delta-checked (its data committed through checked transactions,
// the exec's one fact joined with the rest), and a view installed by
// addblock. Each must stop inside the join with the deadline as its
// error, leave the receiver as it was, and — through Database.Apply —
// commit and journal nothing.
func TestDeadlineBindsInsideJoins(t *testing.T) {
	facts := make([]tuple.Tuple, 200)
	for i := range facts {
		facts[i] = tuple.Ints(int64(i))
	}
	seed := func(t *testing.T, logic string, inserted []string) *Workspace {
		ws := NewWorkspace()
		if logic != "" {
			ws = mustAddBlock(t, ws, "logic", logic)
		}
		var err error
		if inserted == nil {
			ws, err = ws.Load("e", facts) // unchecked: the slow constraint is not run here
		}
		for _, p := range inserted {
			if ws, err = ws.Insert(p, facts...); err != nil {
				break
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		return ws
	}
	cases := []struct {
		name  string
		logic string
		// inserted lists the predicates committed with the 200 facts
		// through checked transactions; nil Loads them into e instead.
		inserted []string
		// checked is the core.constraints.* counter a constraint case moves
		// once: how the aborted check ran.
		checked string
		rec     CommitRecord // Kind "" = a query, run on the workspace alone
	}{
		{name: "reactive exec rule", rec: CommitRecord{Kind: "exec", Src: `+big(a, b, c) <- e(a), e(b), e(c). +e(1000).`}},
		{name: "aggregating query", rec: CommitRecord{Src: `n[] = c <- agg<<c = count()>> e(a), e(b), e(c). _(c) <- n[] = c.`}},
		{name: "constraint body", logic: `e(a), e(b), e(c) -> a >= 0.`, checked: "full_checked",
			rec: CommitRecord{Kind: "exec", Src: `+e(1000).`}},
		{name: "constraint delta", logic: `e(a), f(b), g(c), h(d) -> a >= 0.`, inserted: []string{"f", "g", "h"}, checked: "delta_checked",
			rec: CommitRecord{Kind: "exec", Src: `+e(1000).`}},
		{name: "addblock view", rec: CommitRecord{Kind: "addblock", Name: "view", Src: `big(a, b, c) <- e(a), e(b), e(c).`}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			ws := seed(t, tc.logic, tc.inserted).WithObserver(reg)
			before := ws.relations()
			run := func(via string, do func(ctx context.Context) error) {
				t.Helper()
				ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
				defer cancel()
				t0 := time.Now()
				err := do(ctx)
				if !errors.Is(err, context.DeadlineExceeded) {
					t.Fatalf("%s: err = %v after %v, want DeadlineExceeded", via, err, time.Since(t0))
				}
				if elapsed := time.Since(t0); elapsed > time.Second {
					t.Fatalf("%s: the join ignored the 20ms deadline for %v", via, elapsed)
				}
			}
			run("workspace", func(ctx context.Context) (err error) {
				switch tc.rec.Kind {
				case "exec":
					_, err = ws.ExecCtx(ctx, tc.rec.Src)
				case "addblock":
					_, err = ws.AddBlockCtx(ctx, tc.rec.Name, tc.rec.Src)
				default:
					_, err = ws.QueryCtx(ctx, tc.rec.Src)
				}
				return err
			})
			if c := reg.Snapshot().Counters; tc.checked != "" && (c["core.constraints."+tc.checked] != 1 || c["core.constraints.skipped"] != 0) {
				t.Fatalf("constraint counters %v, want %s = 1", c, tc.checked)
			}
			for name, rel := range ws.relations() {
				if !rel.Equal(before[name]) {
					t.Fatalf("receiver's %s changed", name)
				}
			}
			if tc.rec.Kind == "" {
				return
			}
			db := NewDatabaseWith(ws)
			journaled := 0
			db.SetCommitHook(func(CommitRecord) error { journaled++; return nil })
			tc.rec.Branch = DefaultBranch
			run("Database.Apply", func(ctx context.Context) error {
				res, err := db.Apply(ctx, tc.rec, TxOptions{})
				if res.Committed {
					t.Fatal("Apply reports a commit")
				}
				return err
			})
			if head, _ := db.Workspace(DefaultBranch); head != ws || journaled != 0 {
				t.Fatalf("aborted transaction moved the head (%v) or was journaled (%d records)", head != ws, journaled)
			}
		})
	}
}

func TestQueryCtxCancel(t *testing.T) {
	ws := mustAddBlock(t, NewWorkspace(), "rec", `
		m(x) <- seed(x).
		m(y) <- m(x), x < 50000000, y = x + 1.`)
	res := mustExec(t, ws, `+one(1).`)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already canceled: the query must not run to completion
	if _, err := res.QueryCtx(ctx, `_(y) <- one(x), seed(x), m(y).`); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
}

// TestTypedErrors checks every failure mode carries its sentinel through
// errors.Is, so callers (and the HTTP layer) never match message text.
func TestTypedErrors(t *testing.T) {
	ws := mustAddBlock(t, NewWorkspace(), "b", `d(x) <- s(x).`)
	db := NewDatabase()

	if _, err := ws.Exec(`+p(1`); !errors.Is(err, ErrParse) {
		t.Errorf("parse: %v", err)
	}
	if _, err := ws.Query(`_(`); !errors.Is(err, ErrParse) {
		t.Errorf("query parse: %v", err)
	}
	if _, err := ws.Exec(`+d(1).`); !errors.Is(err, ErrTypecheck) {
		t.Errorf("write to derived: %v", err)
	}
	if _, err := ws.AddBlock("bad", `a(x) <- b(y), x < y.`); !errors.Is(err, ErrTypecheck) {
		t.Errorf("unbound head var: %v", err)
	}
	if _, err := ws.AddBlock("b", `e(x) <- s(x).`); !errors.Is(err, ErrConflict) {
		t.Errorf("duplicate block: %v", err)
	}
	// Data that arrived before any logic fixed its predicate's arity.
	first := mustExec(t, ws, `+B(0).`)
	if _, err := first.Exec(`+B(1, 2).`); !errors.Is(err, ErrTypecheck) {
		t.Errorf("exec against the data's arity: %v", err)
	}
	if _, err := first.Insert("B", tuple.Ints(1, 2)); !errors.Is(err, ErrTypecheck) {
		t.Errorf("direct insert against the data's arity: %v", err)
	}
	if _, err := first.Query(`_(x) <- B(x, 0).`); !errors.Is(err, ErrTypecheck) {
		t.Errorf("query against the data's arity: %v", err)
	}
	if _, err := first.AddBlock("c", `v(x) <- B(x, 0).`); !errors.Is(err, ErrTypecheck) {
		t.Errorf("addblock against the data's arity: %v", err)
	}
	// A query runs no reactive stratum, so a rule reading a delta or an
	// @start version would answer nothing while B holds (0).
	for _, q := range []string{`_(x) <- B@start(x).`, `_(x) <- +B(x).`} {
		if _, err := first.Query(q); !errors.Is(err, ErrTypecheck) {
			t.Errorf("reactive query %s: %v", q, err)
		}
	}
	if _, err := db.Workspace("nope"); !errors.Is(err, ErrNoSuchBranch) {
		t.Errorf("unknown branch: %v", err)
	}
	if err := db.Branch("main", "main"); !errors.Is(err, ErrBranchExists) {
		t.Errorf("duplicate branch: %v", err)
	}

	cws := mustAddBlock(t, NewWorkspace(), "c", `
		Stock[p] = v -> float(v).
		maxStock[p] = v -> float(v).
		Stock[p] = v, maxStock[p] = m -> v <= m.`)
	cres := mustExec(t, cws, `+maxStock["a"] = 10.0. +Stock["a"] = 5.0.`)
	if _, err := cres.Exec(`^Stock["a"] = 50.0.`); !errors.Is(err, ErrConstraint) {
		t.Errorf("constraint violation: %v", err)
	}
}

// TestCommitIf checks the compare-and-swap commit: it succeeds only when
// the branch head is still the transaction's snapshot.
func TestCommitIf(t *testing.T) {
	db := NewDatabase()
	head, _ := db.Workspace(DefaultBranch)

	// Two transactions execute against the same head.
	a, err := head.Exec(`+p(1).`)
	if err != nil {
		t.Fatal(err)
	}
	b, err := head.Exec(`+p(2).`)
	if err != nil {
		t.Fatal(err)
	}

	if err := db.CommitIf(DefaultBranch, head, a.Workspace); err != nil {
		t.Fatalf("first commit: %v", err)
	}
	if err := db.CommitIf(DefaultBranch, head, b.Workspace); !errors.Is(err, ErrConflict) {
		t.Fatalf("second commit = %v, want ErrConflict", err)
	}
	// The loser re-executes against the new head (coarse repair) and wins.
	head2, _ := db.Workspace(DefaultBranch)
	b2, err := head2.Exec(`+p(2).`)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CommitIf(DefaultBranch, head2, b2.Workspace); err != nil {
		t.Fatalf("repaired commit: %v", err)
	}
	ws, _ := db.Workspace(DefaultBranch)
	if ws.Relation("p").Len() != 2 {
		t.Fatalf("p = %v", ws.Relation("p").Slice())
	}
	if err := db.CommitIf("nope", head2, b2.Workspace); !errors.Is(err, ErrNoSuchBranch) {
		t.Fatalf("unknown branch = %v", err)
	}
}

// TestApplyRepairsEveryLostRace races decrements of one key under a
// non-negativity constraint through Database.Apply. No logic changes, so
// every lost race is repaired rather than re-executed in full, and a
// decrement that the winners' writes make violate the constraint fails
// with ErrConstraint, as a serial re-execution would: exactly the stock
// is sold.
func TestApplyRepairsEveryLostRace(t *testing.T) {
	const stock, buyers = 4, 8
	db := NewDatabase()
	ctx := context.Background()
	for _, rec := range []CommitRecord{
		{Kind: "addblock", Branch: DefaultBranch, Name: "inv", Src: `inv[k] = v -> int(k), int(v). inv[k] = v -> v >= 0.`},
		{Kind: "exec", Branch: DefaultBranch, Src: `+inv[0] = 4.`},
	} {
		if _, err := db.Apply(ctx, rec, TxOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	var mu sync.Mutex
	var sold, refused, full int
	var wg sync.WaitGroup
	for i := 0; i < buyers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out, err := db.Apply(ctx, CommitRecord{Kind: "exec", Branch: DefaultBranch,
				Src: `^inv[0] = z <- inv@start[0] = q, z = q - 1.`}, TxOptions{MaxRetries: 100})
			mu.Lock()
			defer mu.Unlock()
			full += out.FullReexecs
			switch {
			case err == nil:
				sold++
			case errors.Is(err, ErrConstraint):
				refused++
			default:
				t.Errorf("decrement: %v", err)
			}
		}()
	}
	wg.Wait()
	if sold != stock || refused != buyers-stock || full != 0 {
		t.Fatalf("sold %d, refused %d, full re-executions %d; want %d, %d, 0", sold, refused, full, stock, buyers-stock)
	}
	ws, _ := db.Workspace(DefaultBranch)
	if got := ws.Relation("inv"); !got.Contains(tuple.Ints(0, 0)) {
		t.Fatalf("inv = %v, want [(0, 0)]", got.Slice())
	}
}

// TestDataFirstLiveProgramming regresses an arity bug: facts inserted
// before any logic mentions their predicate used to materialize with
// arity 1 (the default of Workspace.Relation for unknown predicates),
// making a later AddBlock over that data fail inside the LFTJ. The
// paper's live-programming story is explicitly logic-after-data.
func TestDataFirstLiveProgramming(t *testing.T) {
	ws := NewWorkspace()
	res := mustExec(t, ws, `+edge(1, 2). +edge(2, 3).`)
	if got := res.Relation("edge").Arity(); got != 2 {
		t.Fatalf("edge arity = %d, want 2", got)
	}
	ws = mustAddBlock(t, res, "tc", `
		path(x, y) <- edge(x, y).
		path(x, z) <- path(x, y), edge(y, z).`)
	rows, err := ws.Query(`_(x, y) <- path(x, y).`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("path over pre-existing data = %v", rows)
	}
}
