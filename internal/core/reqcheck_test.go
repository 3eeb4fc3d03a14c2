package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"logicblox/internal/tuple"
)

// TestExecChecksOwnConstraints: the constraints and declarations an exec
// carries are checked in full over its result, as if they were installed.
func TestExecChecksOwnConstraints(t *testing.T) {
	ws := NewWorkspace()
	for _, src := range []string{
		`+a(1). a(x) -> b(x).`,
		`c(x) -> int(x). +c("s").`,
	} {
		if _, err := ws.Exec(src); !errors.Is(err, ErrConstraint) {
			t.Errorf("Exec(%q): err = %v, want ErrConstraint", src, err)
		}
	}
	res, err := ws.Exec(`+a(1). +b(1). a(x) -> b(x). c(x) -> int(x). +c(2).`)
	if err != nil {
		t.Fatalf("exec satisfying its constraints: %v", err)
	}
	if got := res.Workspace.Relation("c").Len(); got != 1 {
		t.Errorf("c holds %d tuples, want 1", got)
	}
	// The constraint is the exec's own: the next exec does not check it.
	if _, err := res.Workspace.Exec(`+a(2).`); err != nil {
		t.Errorf("exec after one carrying a constraint: %v", err)
	}
}

// TestExecRejectsSolveDirective: an exec installs no logic, so a
// lang:solve directive in one is rejected, as a static rule is.
func TestExecRejectsSolveDirective(t *testing.T) {
	ws, err := NewWorkspace().AddBlock("s", `X[p] = v -> P(p), float(v).`)
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []string{
		"lang:solve:variable(`X). +P(1).",
		"+P(1). lang:solve:integer(`X).",
	} {
		if _, err := ws.Exec(src); !errors.Is(err, ErrTypecheck) {
			t.Errorf("Exec(%q): err = %v, want ErrTypecheck", src, err)
		}
	}
}

// TestQueryChecksOwnConstraints: a query checks its own constraints over
// the state it walked, as an addblock of its text would, and skips those
// over an unsolved free predicate.
func TestQueryChecksOwnConstraints(t *testing.T) {
	ws, err := NewWorkspace().AddBlock("s", `
		a(x) -> int(x).
		X[p] = v -> P(p), float(v).
		P(p) -> X[p] >= 0.0.
		lang:solve:variable(`+"`X"+`).`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ws.Exec(`+a(1). +a(2). +P(1).`)
	if err != nil {
		t.Fatal(err)
	}
	ws = res.Workspace
	for _, q := range []string{
		`_(x) <- a(x). a(x) -> b(x).`,
		`_(x) <- a(x). _(x) -> x < 2.`,
		`v(x) <- a(x). _(x) <- a(x). v(x) -> x > 1.`,
	} {
		if got, err := ws.Query(q); !errors.Is(err, ErrConstraint) {
			t.Errorf("Query(%q) = %v, %v; want ErrConstraint", q, got, err)
		}
		if _, err := ws.AddBlock("q", q); !errors.Is(err, ErrConstraint) {
			t.Errorf("AddBlock(%q): err = %v, want ErrConstraint", q, err)
		}
	}
	for _, q := range []string{
		`_(x) <- a(x). a(x) -> x > 0.`,
		`_(x) <- a(x). _(x) -> x < 3.`,
		`_(x) <- a(x). P(p) -> X[p] <= 1.0.`,
	} {
		got, err := ws.Query(q)
		if err != nil || len(got) != 2 {
			t.Errorf("Query(%q) = %v, %v; want 2 answers", q, got, err)
		}
	}
	// A constraint that reads the answer needs it materialized.
	cur, err := ws.QueryStream(context.Background(), `_(x) <- a(x). _(x) -> x < 3.`)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	if cur.Streamed() {
		t.Error("a query whose constraint reads _ streamed its answer")
	}
}

// TestConstraintNamesStoredPredicates: a constraint over a delta or @start
// predicate would read a relation no transaction's check holds, so it is
// a compile error wherever it appears.
func TestConstraintNamesStoredPredicates(t *testing.T) {
	ws, err := NewWorkspace().AddBlock("s", `a(x) -> int(x). f[x] = v -> int(x), int(v).`)
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []string{
		`+a(x) -> x > 10.`,
		`-a(x) -> x > 10.`,
		`a(x) -> a@start(x).`,
		`b(x) -> !+a(x).`,
		`a(x) -> f@start[x] = 1.`,
	} {
		if _, err := ws.AddBlock("k", src); !errors.Is(err, ErrTypecheck) {
			t.Errorf("AddBlock(%q): err = %v, want ErrTypecheck", src, err)
		}
		if _, err := ws.Exec(src + ` +a(1).`); !errors.Is(err, ErrTypecheck) {
			t.Errorf("Exec(%q): err = %v, want ErrTypecheck", src, err)
		}
	}
}

// TestQueryChecksInstalledConstraints: a query's rules settle as its
// addblock would, so a rule that moves an installed predicate past an
// installed constraint or functional dependency, or a functional head of
// the query's own that takes two values for a key, aborts the query —
// through Query and QueryStream alike, before the first row.
func TestQueryChecksInstalledConstraints(t *testing.T) {
	for _, tc := range []struct{ installed, facts, query string }{
		{`v(x) <- a(x). v(x) -> x < 2.`, `+a(1). +b(5).`, `v(x) <- b(x). _(x) <- v(x).`},
		{`a(x, y) -> int(x), int(y).`, `+a(1, 2). +a(1, 3).`, `h[x] = y <- a(x, y). _(x, y) <- h[x] = y.`},
		{`price[p] = v -> int(p), int(v). revenue[p] = 2 * v <- price[p] = v.`, `+price[1] = 3.`,
			`revenue[p] = 0 <- price[p] = v. _(p, r) <- revenue[p] = r.`},
	} {
		ws := mustExec(t, mustAddBlock(t, NewWorkspace(), "i", tc.installed), tc.facts)
		if _, err := ws.AddBlock("q", tc.query); !errors.Is(err, ErrConstraint) {
			t.Errorf("AddBlock(%q): err = %v, want ErrConstraint", tc.query, err)
		}
		if got, err := ws.Query(tc.query); !errors.Is(err, ErrConstraint) {
			t.Errorf("Query(%q) = %v, %v; want ErrConstraint", tc.query, got, err)
		}
		cur, err := ws.QueryStream(context.Background(), tc.query)
		if err == nil {
			t.Errorf("QueryStream(%q) opened (rows %v), want ErrConstraint", tc.query, drainCursor(t, cur))
		} else if !errors.Is(err, ErrConstraint) {
			t.Errorf("QueryStream(%q): err = %v, want ErrConstraint", tc.query, err)
		}
	}
}

// TestNewFunctionalDependencyChecked: logic that makes a predicate
// functional — a block reading it in the bracket shape, a declaration in
// a block or in an exec — is checked against the values the predicate
// already holds, which no earlier check held to one per key.
func TestNewFunctionalDependencyChecked(t *testing.T) {
	ws := mustExec(t, NewWorkspace(), `+f(1, 2). +f(1, 3).`)
	for _, src := range []string{`v(x, y) <- f[x] = y.`, `f[x] = y -> int(x), int(y).`} {
		if _, err := ws.AddBlock("b", src); !errors.Is(err, ErrConstraint) {
			t.Errorf("AddBlock(%q): err = %v, want ErrConstraint", src, err)
		}
	}
	const exec = `f[x] = y -> int(x), int(y). +f(2, 1).`
	if _, err := ws.Exec(exec); !errors.Is(err, ErrConstraint) || !strings.Contains(err.Error(), "functional dependency of f") {
		t.Errorf("Exec(%q): err = %v, want ErrConstraint naming f", exec, err)
	}
}

// TestWriteAfterLoadChecksDependencies: a functional dependency Load
// broke is reported by the next checked write, whatever it writes — a
// write of a tuple already there included.
func TestWriteAfterLoadChecksDependencies(t *testing.T) {
	ws := mustAddBlock(t, NewWorkspace(), "s", `f[x] = y -> int(x), int(y). g(x) -> int(x).`)
	loaded, err := ws.Load("f", []tuple.Tuple{tuple.Ints(1, 2), tuple.Ints(1, 3)})
	if err != nil {
		t.Fatalf("Load: %v (Load does not check dependencies)", err)
	}
	if _, err := loaded.Insert("g", tuple.Ints(1)); !errors.Is(err, ErrConstraint) || !strings.Contains(err.Error(), "functional dependency of f") {
		t.Fatalf("Insert after the violating Load: err = %v, want ErrConstraint naming f", err)
	}
	if _, err := loaded.Insert("f", tuple.Ints(1, 2)); !errors.Is(err, ErrConstraint) {
		t.Fatalf("no-op Insert after the violating Load: err = %v, want ErrConstraint", err)
	}
}

// TestQueryLeavesLoadViolations: a query is read-only, so it reports
// only what its own rules break: over a workspace Load left violating a
// constraint and a dependency, queries still answer, and the next write
// reports the violations.
func TestQueryLeavesLoadViolations(t *testing.T) {
	ws := mustAddBlock(t, NewWorkspace(), "s", `f[x] = y -> int(x), int(y). r(x) -> q(x). v(x) <- r(x).`)
	loaded, err := ws.Load("f", []tuple.Tuple{tuple.Ints(1, 2), tuple.Ints(1, 3)})
	if err == nil {
		loaded, err = loaded.Load("r", []tuple.Tuple{tuple.Ints(99)})
	}
	if err != nil {
		t.Fatal(err)
	}
	for q, want := range map[string]string{
		`_(x, y) <- f[x] = y.`:        "[(1, 2) (1, 3)]",
		`_(x) <- r(x).`:               "[(99)]",
		`v(x) <- q(x). _(x) <- v(x).`: "[(99)]",
	} {
		if got, err := loaded.Query(q); err != nil || fmt.Sprint(got) != want {
			t.Errorf("Query(%q) = %v, %v; want %s", q, got, err, want)
		}
	}
	if _, err := loaded.Insert("q", tuple.Ints(5)); !errors.Is(err, ErrConstraint) || !strings.Contains(err.Error(), "functional dependency of f") {
		t.Fatalf("Insert after the violating Loads: err = %v, want ErrConstraint naming f", err)
	}
}
