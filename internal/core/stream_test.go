package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"logicblox/internal/ast"
	"logicblox/internal/compiler"
	"logicblox/internal/engine"
	"logicblox/internal/graphgen"
	"logicblox/internal/obs"
	"logicblox/internal/parser"
	"logicblox/internal/tuple"
)

// referenceQuery evaluates a query the pre-streaming way: every fresh
// stratum fully materialized, answers read off the "_" relation. This is
// the ground truth the cursor paths must match byte-for-byte. It compiles
// the installed blocks' sources with the query, not the query alone
// against ws.prog.
func referenceQuery(t *testing.T, ws *Workspace, src string) []tuple.Tuple {
	t.Helper()
	progs, err := parseBlocks(ws.blocks)
	if err != nil {
		t.Fatalf("parse installed blocks: %v", err)
	}
	qprog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	combined, err := compiler.Compile(append(progs, qprog)...)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	ctx := engine.NewContext(combined, ws.relations(), engine.Options{Models: ws.models})
	for _, stratum := range combined.Strata {
		if err := ctx.EvalStratum(stratum); err != nil {
			t.Fatalf("eval: %v", err)
		}
	}
	return ctx.Relation("_").Slice()
}

func drainCursor(t *testing.T, cur *Cursor) []tuple.Tuple {
	t.Helper()
	defer cur.Close()
	out := make([]tuple.Tuple, 0, 8)
	for tu, ok := cur.Next(); ok; tu, ok = cur.Next() {
		out = append(out, tu.Clone()) // a row is valid until the next Next
	}
	if err := cur.Err(); err != nil {
		t.Fatalf("cursor: %v", err)
	}
	return out
}

func sameTuples(a, b []tuple.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// loadedWorkspace builds a workspace with deterministic random contents
// for e(2), f(1), g(2).
func loadedWorkspace(t *testing.T, seed int64, n int) *Workspace {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ws := NewWorkspace()
	var e, g []tuple.Tuple
	for i := 0; i < n; i++ {
		e = append(e, tuple.Ints(rng.Int63n(9), rng.Int63n(9)))
		g = append(g, tuple.Ints(rng.Int63n(9), rng.Int63n(9)))
	}
	var f []tuple.Tuple
	for i := int64(0); i < 9; i += 2 {
		f = append(f, tuple.Ints(i))
	}
	var err error
	for name, ts := range map[string][]tuple.Tuple{"e": e, "f": f, "g": g} {
		ws, err = ws.Load(name, ts)
		if err != nil {
			t.Fatalf("load %s: %v", name, err)
		}
	}
	return ws
}

// TestQueryStreamMatchesReference: over a spread of query shapes — joins,
// projections with duplicate/reordered/constant head columns, filters,
// assignments, negation, aux rules, recursion, aggregation — the cursor's
// output is identical (same order, same tuples) to the fully materialized
// reference, and Query itself keeps its old behavior.
func TestQueryStreamMatchesReference(t *testing.T) {
	queries := []struct {
		src    string
		stream bool // expected fast-path eligibility
	}{
		{`_(x, y) <- e(x, y).`, true},
		{`_(y, x) <- e(x, y).`, true},
		{`_(x, x, y) <- e(x, y).`, true},
		{`_(x, 7, y) <- e(x, y).`, true},
		{`_(x, z) <- e(x, y), g(y, z).`, true},
		{`_(z) <- e(x, y), g(y, z), x < z.`, true},
		{`_(x, y) <- e(x, y), !f(y).`, true},
		{`_(y) <- e(3, y).`, true},
		{`_(x, s) <- e(x, y), s = x + y.`, false},                       // computed head slot
		{`aux(x) <- e(x, y), 4 < y. _(x, z) <- aux(x), g(x, z).`, true}, // aux stratum materialized
		{`_(x, y) <- e(x, y). _(x, y) <- g(x, y).`, false},              // two answer rules
		{`_(x, y) <- e(x, y). _(x, z) <- _(x, y), e(y, z).`, false},     // recursion through the answer
		{`p(x, y) <- e(x, y). p(x, z) <- p(x, y), e(y, z). _(x, z) <- p(x, z).`, true},
		{`_(x, z) <- aux2(x, z). aux2(x, z) <- e(x, z).`, true},
	}
	for seed := int64(0); seed < 3; seed++ {
		ws := loadedWorkspace(t, 100+seed, 80)
		for _, q := range queries {
			want := referenceQuery(t, ws, q.src)
			cur, err := ws.QueryStream(context.Background(), q.src)
			if err != nil {
				t.Fatalf("QueryStream(%q): %v", q.src, err)
			}
			streamed := cur.Streamed()
			got := drainCursor(t, cur)
			if !sameTuples(got, want) {
				t.Errorf("seed %d %q:\nstream = %v\nref    = %v", seed, q.src, got, want)
			}
			if streamed != q.stream {
				t.Errorf("seed %d %q: Streamed() = %v, want %v", seed, q.src, streamed, q.stream)
			}
			qrows, err := ws.Query(q.src)
			if err != nil {
				t.Fatalf("Query(%q): %v", q.src, err)
			}
			if !sameTuples(qrows, want) {
				t.Errorf("seed %d %q: Query = %v, ref = %v", seed, q.src, qrows, want)
			}
		}
	}
}

// TestQueryStreamRandomizedPrograms is the difftest-style sweep: random
// generated query programs over random data, streamed == reference.
func TestQueryStreamRandomizedPrograms(t *testing.T) {
	rng := rand.New(rand.NewSource(271))
	heads := []string{
		`_(x, y)`, `_(y, x)`, `_(x)`, `_(y)`, `_(y, y, x)`, `_(x, 3, y)`,
	}
	bodies := []string{
		`e(x, y)`,
		`e(x, y), g(y, z)`,
		`e(x, y), x < y`,
		`e(x, y), !f(x)`,
		`e(x, y), g(y, x)`,
		`e(x, z), e(z, y)`,
	}
	for trial := 0; trial < 30; trial++ {
		ws := loadedWorkspace(t, int64(500+trial), 40+rng.Intn(80))
		src := fmt.Sprintf("%s <- %s.", heads[rng.Intn(len(heads))], bodies[rng.Intn(len(bodies))])
		want := referenceQuery(t, ws, src)
		cur, err := ws.QueryStream(context.Background(), src)
		if err != nil {
			t.Fatalf("trial %d QueryStream(%q): %v", trial, src, err)
		}
		got := drainCursor(t, cur)
		if !sameTuples(got, want) {
			t.Errorf("trial %d %q:\nstream = %v\nref    = %v", trial, src, got, want)
		}
	}
}

// TestQueryStreamAggregateAux: an aggregating auxiliary stratum is
// materialized up front and the plain answer rule over it still streams,
// matching the reference byte for byte.
func TestQueryStreamAggregateAux(t *testing.T) {
	ws := loadedWorkspace(t, 9, 50)
	src := `s[x] = c <- agg<<c = count()>> e(x, y). _(x, c) <- s[x] = c.`
	want := referenceQuery(t, ws, src)
	cur, err := ws.QueryStream(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	got := drainCursor(t, cur)
	if !sameTuples(got, want) {
		t.Errorf("agg stream = %v, ref = %v", got, want)
	}
}

// TestQueryStreamCancellation: cancelling the context mid-stream makes
// Next fail, Err report the cancellation, and Close record an abort.
func TestQueryStreamCancellation(t *testing.T) {
	reg := obs.NewRegistry()
	ws := loadedWorkspace(t, 11, 200).WithObserver(reg)
	cctx, cancel := context.WithCancel(context.Background())
	cur, err := ws.QueryStream(cctx, `_(x, y) <- e(x, y).`)
	if err != nil {
		t.Fatal(err)
	}
	if !cur.Streamed() {
		t.Fatal("expected the fast path")
	}
	if _, ok := cur.Next(); !ok {
		t.Fatal("first pull should succeed")
	}
	cancel()
	if _, ok := cur.Next(); ok {
		t.Fatal("pull after cancel should fail")
	}
	if !errors.Is(cur.Err(), context.Canceled) {
		t.Fatalf("Err = %v", cur.Err())
	}
	cur.Close()
	cur.Close() // idempotent
	if got := reg.Counter("tx.query.stream.abort").Value(); got != 1 {
		t.Errorf("tx.query.stream.abort = %d, want 1", got)
	}
	if got := reg.Counter("tx.query.stream.commit").Value(); got != 0 {
		t.Errorf("tx.query.stream.commit = %d, want 0", got)
	}
}

// TestQueryStreamSpanAndCounters: a drained cursor commits under the
// tx.query.stream kind; QueryCtx keeps the classic tx.query kind.
func TestQueryStreamSpanAndCounters(t *testing.T) {
	reg := obs.NewRegistry()
	ws := loadedWorkspace(t, 13, 30).WithObserver(reg)
	cur, err := ws.QueryStream(context.Background(), `_(x, y) <- e(x, y).`)
	if err != nil {
		t.Fatal(err)
	}
	n := len(drainCursor(t, cur))
	if n == 0 {
		t.Fatal("expected answers")
	}
	if int64(n) != cur.Rows() {
		t.Errorf("Rows() = %d, drained %d", cur.Rows(), n)
	}
	if got := reg.Counter("tx.query.stream.commit").Value(); got != 1 {
		t.Errorf("tx.query.stream.commit = %d, want 1", got)
	}
	if _, err := ws.QueryCtx(context.Background(), `_(x) <- f(x).`); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("tx.query.commit").Value(); got != 1 {
		t.Errorf("tx.query.commit = %d, want 1", got)
	}
}

// TestQueryStreamEarlyCloseCommits: abandoning a healthy cursor early
// (e.g. a page limit) closes cleanly as a commit.
func TestQueryStreamEarlyCloseCommits(t *testing.T) {
	reg := obs.NewRegistry()
	ws := loadedWorkspace(t, 17, 100).WithObserver(reg)
	cur, err := ws.QueryStream(context.Background(), `_(x, y) <- e(x, y).`)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := cur.Next(); !ok {
		t.Fatal("expected at least one answer")
	}
	cur.Close()
	if got := reg.Counter("tx.query.stream.commit").Value(); got != 1 {
		t.Errorf("commit = %d, want 1", got)
	}
	// The workspace still serves queries afterwards (iterators released).
	if _, err := ws.Query(`_(x, y) <- e(x, y).`); err != nil {
		t.Fatal(err)
	}
}

// TestQueryStreamParseAndTypeErrors keep the classic sentinel wrapping.
func TestQueryStreamParseAndTypeErrors(t *testing.T) {
	ws := NewWorkspace()
	if _, err := ws.QueryStream(context.Background(), `_(x <-`); !errors.Is(err, ErrParse) {
		t.Errorf("parse error = %v, want ErrParse", err)
	}
}

// addBlockAnswer is the answer a query must give: the "_" relation after
// installing the query's text as a block.
func addBlockAnswer(t *testing.T, ws *Workspace, src string) []tuple.Tuple {
	t.Helper()
	out, err := ws.AddBlock("q", src)
	if err != nil {
		t.Fatalf("AddBlock(%q): %v", src, err)
	}
	return out.Relation("_").Slice()
}

// TestQueryRulesSettleLikeAddBlock: a query is a transient addblock. A
// query rule for an installed derived predicate, or one into a base
// predicate, reaches that predicate's installed readers exactly as
// installing the query's block would — through Query and QueryStream,
// streamed or not (an installed "_" rule shares the answer's stratum, so
// the walk materializes it) — and the workspace is left as it was.
func TestQueryRulesSettleLikeAddBlock(t *testing.T) {
	for _, tc := range []struct {
		installed, src, want string
		streamed             bool
	}{
		{`v(x) <- a(x).`, `v(x) <- b(x). _(x) <- v(x).`, "[(1) (2)]", true},
		{`v(x) <- a(x).`, `a(x) <- b(x). _(x) <- v(x).`, "[(2)]", true},
		{`v(x) <- a(x).`, `a(x) <- b(x). _(x) <- a(x).`, "[(2)]", true},
		{`v(x) <- a(x).`, `v(x) <- b(x). _(x) <- v(x). _(x) <- a(x).`, "[(1) (2)]", false},
		{`v(x) <- a(x).`, `v(x) <- b(x). c[x] = n <- agg<<n = count()>> v(x). _(x, n) <- c[x] = n.`, "[(1, 1) (2, 1)]", true},
		{`_(x) <- a(x).`, `_(x) <- b(x).`, "[(1) (2)]", false},
	} {
		ws := mustExec(t, mustAddBlock(t, NewWorkspace(), "i", tc.installed), `+a(1). +b(2).`)
		contents := func() string {
			return fmt.Sprint(ws.Relation("a").Slice(), ws.Relation("v").Slice(), ws.Relation("_").Slice())
		}
		before := contents()
		want := addBlockAnswer(t, ws, tc.src)
		if got := fmt.Sprint(want); got != tc.want {
			t.Fatalf("%s: AddBlock answers %s, want %s", tc.src, got, tc.want)
		}
		got, err := ws.Query(tc.src)
		if err != nil {
			t.Fatalf("Query(%q): %v", tc.src, err)
		}
		if !sameTuples(got, want) {
			t.Errorf("%s: Query = %v, AddBlock answers %v", tc.src, got, want)
		}
		cur, err := ws.QueryStream(context.Background(), tc.src)
		if err != nil {
			t.Fatalf("QueryStream(%q): %v", tc.src, err)
		}
		streamed := cur.Streamed()
		if got := drainCursor(t, cur); !sameTuples(got, want) {
			t.Errorf("%s: QueryStream = %v, AddBlock answers %v", tc.src, got, want)
		}
		if streamed != tc.streamed {
			t.Errorf("%s: Streamed() = %v, want %v", tc.src, streamed, tc.streamed)
		}
		if after := contents(); after != before {
			t.Errorf("%s: the queries moved the workspace from %s to %s", tc.src, before, after)
		}
	}
}

// TestStreamedBoundQueries: a query whose atoms hold constants — in the
// first, a middle or the last column, two of them, one value twice, on a
// derived view, beside a filter — streams its answer sorted, answers
// what installing it as a block would, and seeks its constants on the
// stored columns, so it builds no permuted index.
func TestStreamedBoundQueries(t *testing.T) {
	ws := retailSeed(t)
	for _, src := range []string{
		`_(u) <- salesByProduct[17] = u.`,
		`_(s, wk, n) <- sales[17, s, wk] = n.`,
		`_(p, wk, n) <- sales[p, 3, wk] = n.`,
		`_(p, s, wk) <- sales[p, s, wk] = 4.`,
		`_(wk, n) <- sales[17, 2, wk] = n.`,
		`_(wk, n) <- sales[3, 3, wk] = n.`,
		`_(r) <- revenue[7] = r.`,
		`_(s, wk, n) <- sales[17, s, wk] = n, n > 4.`,
	} {
		want := addBlockAnswer(t, ws, src)
		if len(want) == 0 {
			t.Fatalf("%s: AddBlock answers nothing", src)
		}
		reg := obs.NewRegistry()
		cur, err := ws.WithObserver(reg).QueryStream(context.Background(), src)
		if err != nil {
			t.Fatalf("QueryStream(%q): %v", src, err)
		}
		streamed := cur.Streamed()
		got := drainCursor(t, cur)
		if !streamed {
			t.Errorf("%s: Streamed() = false", src)
		}
		if !slices.IsSortedFunc(got, tuple.Tuple.Compare) {
			t.Errorf("%s: rows arrived out of order: %v", src, got)
		}
		if !sameTuples(got, want) {
			t.Errorf("%s: QueryStream = %v, AddBlock answers %v", src, got, want)
		}
		if n := reg.Snapshot().Counters["engine.index.permutes"]; n != 0 {
			t.Errorf("%s: built %d permuted indices, want 0", src, n)
		}
	}
}

// BenchmarkQueryBound times one query transaction per iteration for
// reads whose atoms hold a constant, over the retail schema at 2k and
// 20k sales facts: a point read of an aggregate view and of a derived
// view, a prefix read and a middle-column read of sales. A constant is
// a seek, so a point read costs the same at both sizes.
func BenchmarkQueryBound(b *testing.B) {
	for _, products := range []int64{100, 1000} {
		ws := retailWorkspace(b, products)
		for _, q := range []struct{ name, src string }{
			{"point", `_(u) <- salesByProduct[17] = u.`},
			{"revenue", `_(r) <- revenue[17] = r.`},
			{"prefix", `_(s, wk, n) <- sales[17, s, wk] = n.`},
			{"mid", `_(p, wk, n) <- sales[p, 3, wk] = n.`},
		} {
			b.Run(fmt.Sprintf("%s/facts=%d", q.name, 20*products), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := ws.Query(q.src); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkQueryTriangle is the join probe: one query transaction per
// iteration running the analytic workload's triangle join over a
// 25k-edge preferential-attachment graph, so every iteration is the trie
// walk of three edge atoms under leapfrog triejoin.
func BenchmarkQueryTriangle(b *testing.B) {
	ws, err := NewWorkspace().AddBlock("graph", `edge(a, b) -> int(a), int(b).`)
	if err != nil {
		b.Fatal(err)
	}
	const edges = 25000
	all := graphgen.Canonical(graphgen.PreferentialAttachment(edges/3, 3, 2015))
	ts := make([]tuple.Tuple, 0, edges)
	for _, e := range all[:min(edges, len(all))] {
		ts = append(ts, tuple.Ints(e.U, e.V))
	}
	if ws, err = ws.Load("edge", ts); err != nil {
		b.Fatal(err)
	}
	const join = `_(a, b, c) <- edge(a, b), edge(b, c), edge(a, c).`
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ws.Query(join); err != nil {
			b.Fatal(err)
		}
	}
}

// FuzzQueryMatchesAddBlock is the query path's oracle: over an installed
// block and facts, a query answers what the "_" relation holds after
// installing the query's text as a block, or both fail. A query holding a
// reactive rule (one that mentions a delta or @start predicate) must fail
// with ErrTypecheck whatever the addblock does, since a query runs no
// reactive stratum. A query settles as the addblock does, so it fails
// with ErrConstraint exactly when the addblock does: a constraint or
// functional dependency, installed or its own, that its rules break. Only
// the setup failing and a program that does not settle within a second
// are skipped.
func FuzzQueryMatchesAddBlock(f *testing.F) {
	const retail = `sales[p, s, wk] = n -> int(p), int(s), int(wk), int(n).
price[p] = v -> int(p), int(v).
edge(a, b) -> int(a), int(b).
salesByProduct[p] = u <- agg<<u = sum(n)>> sales[p, s, wk] = n.
salesByStore[s] = u <- agg<<u = sum(n)>> sales[p, s, wk] = n.
revenue[p] = r <- salesByProduct[p] = u, price[p] = v, r = u * v.
hot(p) <- salesByProduct[p] = u, u > 5500.
sales[p, s, wk] = n -> n >= 0.
salesByProduct[p] = u -> price[p] = _.`
	const facts = `+price[1] = 3. +price[2] = 5. +sales[1, 1, 1] = 4000. +sales[1, 2, 1] = 2000.
+sales[2, 1, 2] = 7. +edge(1, 2). +edge(2, 3). +edge(1, 3).`
	for _, seed := range [][3]string{
		{`v(x) <- a(x).`, `+a(1). +b(2).`, `v(x) <- b(x). _(x) <- v(x).`},
		{`v(x) <- a(x).`, `+a(1). +b(2).`, `a(x) <- b(x). _(x) <- v(x).`},
		{`v(x) <- a(x).`, `+a(1). +b(2).`, `a(x) <- b(x). _(x) <- a(x).`},
		{retail, facts, `_(u) <- salesByProduct[1] = u.`},
		{retail, facts, `_(s, wk, n) <- sales[1, s, wk] = n.`},
		{retail, facts, `_(p, s, wk, n) <- sales[p, s, wk] = n.`},
		{retail, facts, `_(a, b, c) <- edge(a, b), edge(b, c), edge(a, c).`},
		{retail, facts, "byStore[s] = u <- agg<<u = sum(n)>> sales[p, s, wk] = n.\n_(s, u) <- byStore[s] = u."},
		{retail, facts, `_(p, s, wk, n) <- sales[p, s, wk] = n, n > 5, p < 2.`},
		{retail, facts, `hot(p) <- price[p] = v, v > 4. _(p) <- hot(p).`},
		{retail, facts, `_(p, r) <- revenue[p] = r.`},
		{retail, facts, `_(p, wk, n) <- sales[p, 1, wk] = n.`},
		{retail, facts, `_(wk, n) <- sales[1, 2, wk] = n.`},
		{retail, facts, `_(wk, n) <- sales[1, 1, wk] = n.`},
		{retail, facts, `_(r) <- revenue[1] = r.`},
		{`path(x, y) <- edge(x, y).`, `+edge(1, 2). +edge(2, 3).`, `path(x, z) <- path(x, y), edge(y, z). _(x, y) <- path(x, y).`},
		{`_(x) <- a(x).`, `+a(1). +b(2).`, `_(x) <- b(x).`},
		{`v(x) <- a(x).`, `+a(1). +b(2).`, `_(x) <- a@start(x).`},
		{`v(x) <- a(x).`, `+a(1). +b(2).`, `_(x) <- +a(x).`},
		// Bounds by a constant, seeks where exact and filters elsewhere.
		{retail, facts, `_(p, s, wk, n) <- sales[p, s, wk] = n, p >= 2.`},
		{retail, facts, `_(p, s, wk, n) <- sales[p, s, wk] = n, p > 1.`},
		{retail, facts, `_(p, s, wk, n) <- sales[p, s, wk] = n, p <= 1.`},
		{retail, facts, `_(p, s, wk, n) <- sales[p, s, wk] = n, 2 > p.`},
		{retail, facts, `_(p, s, wk, n) <- sales[p, s, wk] = n, p >= 1, p < 2.`},
		{retail, facts, `_(p, s, wk, n) <- sales[p, s, wk] = n, p > 5, p < 3.`},
		{retail, facts, `_(p, s, wk, n) <- sales[p, s, wk] = n, wk > 1.`},
		{retail, facts, `_(p, s, wk, n) <- sales[p, s, wk] = n, p < 2.5.`},
		{retail, facts, `_(p, s, wk, n) <- sales[p, s, wk] = n, p < "x".`},
		{retail, facts, `_(p, v, n) <- price[p] = v, sales[p, s, wk] = n, p >= 2.`},
		{retail, facts, `_(a, b, c) <- edge(a, b), edge(b, c), b > 1, c <= 3.`},
		{`v(x) <- a(x).`, `+a(1). +a(1.5). +a(2). +a(2.5).`, `_(x) <- a(x), x < 2.`},
		{`v(x) <- a(x).`, `+a(1). +a(1.5). +a(2). +b(1.5).`, `_(x) <- a(x), b(x), x > 1.`},
		{`v(x) <- a(x).`, `+a(-1.5). +a(0.0). +a(2.5).`, `_(x) <- a(x), x >= 0, x < 2.5.`},
		// A NaN (inf − inf) orders above every float, in the trie and in
		// the filter alike.
		{`v(x) <- a(x).`, "+a(x) <- x = 1e308 * 10.0 - 1e308 * 10.0.\n+a(1.0). +a(2.0).", `_(x) <- a(x), x > 1.5.`},
		{`v(x) <- a(x).`, "+a(x) <- x = 1e308 * 10.0 - 1e308 * 10.0.\n+a(1.0). +a(2.0).", `_(x) <- a(x), x <= 1.5.`},
		// The query's own constraint, violated and satisfied.
		{`v(x) <- a(x).`, `+a(1). +b(2).`, `_(x) <- v(x). v(x) -> b(x).`},
		{`v(x) <- a(x).`, `+a(1). +b(1).`, `_(x) <- v(x). v(x) -> b(x).`},
		// Rules that break an installed constraint or functional
		// dependency, or a functional head of the query's own.
		{`v(x) <- a(x). v(x) -> x < 2.`, `+a(1). +b(5).`, `v(x) <- b(x). _(x) <- v(x).`},
		{`a(x, y) -> int(x), int(y).`, `+a(1, 2). +a(1, 3).`, `h[x] = y <- a(x, y). _(x, y) <- h[x] = y.`},
		{retail, facts, `revenue[p] = 0 <- price[p] = v. _(p, r) <- revenue[p] = r.`},
	} {
		f.Add(seed[0], seed[1], seed[2])
	}
	f.Fuzz(func(t *testing.T, installed, facts, query string) {
		ws, err := NewWorkspace().AddBlock("i", installed)
		if err != nil {
			t.Skip(err)
		}
		res, err := ws.Exec(facts)
		if err != nil {
			t.Skip(err)
		}
		ws = res.Workspace
		rctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		got, qerr := ws.QueryCtx(rctx, query)
		if holdsReactiveRule(query) {
			if !errors.Is(qerr, ErrTypecheck) {
				t.Fatalf("query with a reactive rule: got %v, %v; want ErrTypecheck", got, qerr)
			}
			return
		}
		out, aerr := ws.AddBlockCtx(rctx, "q", query)
		switch {
		case rctx.Err() != nil:
			t.Skip(aerr, qerr)
		case errors.Is(aerr, ErrConstraint) != errors.Is(qerr, ErrConstraint):
			t.Fatalf("AddBlock err = %v, Query err = %v: one hit a constraint", aerr, qerr)
		case (aerr == nil) != (qerr == nil):
			t.Fatalf("AddBlock err = %v, Query err = %v", aerr, qerr)
		case aerr == nil:
			if want := out.Relation("_").Slice(); !sameTuples(got, want) {
				t.Fatalf("Query = %v, AddBlock answers %v", got, want)
			}
		}
	})
}

// holdsReactiveRule reports whether src parses to a program with a rule
// that mentions a delta or @start predicate in a head or body atom.
func holdsReactiveRule(src string) bool {
	prog, err := parser.Parse(src)
	if err != nil {
		return false
	}
	decorated := func(a *ast.Atom) bool { return a != nil && (a.Delta != ast.DeltaNone || a.AtStart) }
	for _, r := range prog.Rules() {
		for _, h := range r.Heads {
			if decorated(h) {
				return true
			}
		}
		for _, l := range r.Body {
			if decorated(l.Atom) {
				return true
			}
		}
	}
	return false
}
