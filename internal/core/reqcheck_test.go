package core

import (
	"context"
	"errors"
	"testing"
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
