package core

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"logicblox/internal/obs"
	"logicblox/internal/tuple"
)

// The analytic workload's one-atom reads: the whole of sales, a range of
// products filtered on units, and a query-time aggregate by store.
const (
	scanText  = `_(p, s, wk, n) <- sales[p, s, wk] = n.`
	rangeText = `_(p, s, wk, n) <- sales[p, s, wk] = n, n > 90, p < 250.`
	aggText   = "byStore[s] = u <- agg<<u = sum(n)>> sales[p, s, wk] = n.\n_(s, u) <- byStore[s] = u."
)

// analyticWorkspace loads sales[p, s, wk] = n over 500 products × 10
// stores × 10 weeks (50k facts), with n = (7p + 3s + wk) mod 100.
func analyticWorkspace(tb testing.TB) *Workspace {
	tb.Helper()
	ws, err := NewWorkspace().AddBlock("sales", `sales[p, s, wk] = n -> int(p), int(s), int(wk), int(n).`)
	if err != nil {
		tb.Fatal(err)
	}
	ts := make([]tuple.Tuple, 0, 50_000)
	for p := int64(0); p < 500; p++ {
		for s := int64(0); s < 10; s++ {
			for wk := int64(0); wk < 10; wk++ {
				ts = append(ts, tuple.Ints(p, s, wk, (7*p+3*s+wk)%100))
			}
		}
	}
	if ws, err = ws.Load("sales", ts); err != nil {
		tb.Fatal(err)
	}
	return ws
}

// benchmarkQuery times one query transaction of src per iteration, its
// rows drained from a QueryCursor as the server's encoders drain them:
// each row is read once and not kept.
func benchmarkQuery(b *testing.B, src string) {
	ws := analyticWorkspace(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cur, err := ws.QueryCursor(context.Background(), src)
		if err != nil {
			b.Fatal(err)
		}
		for _, ok := cur.Next(); ok; _, ok = cur.Next() {
		}
		cur.Close()
		if err := cur.Err(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryScan, BenchmarkQueryRange and BenchmarkQueryAgg are the
// scan probes: the analytic workload's one-atom reads over 50k sales
// facts, one query transaction per iteration (agg's auxiliary stratum is
// evaluated once and is a memo hit from then on, as in the workload).
func BenchmarkQueryScan(b *testing.B)  { benchmarkQuery(b, scanText) }
func BenchmarkQueryRange(b *testing.B) { benchmarkQuery(b, rangeText) }
func BenchmarkQueryAgg(b *testing.B)   { benchmarkQuery(b, aggText) }

// TestStreamedScanAllocsFlat: a streamed row allocates nothing. Draining
// a QueryStream of 50k rows costs a fixed number of allocations (the
// transaction's parse, compile and cursor), not one per row.
func TestStreamedScanAllocsFlat(t *testing.T) {
	ws := analyticWorkspace(t)
	rows := 0
	allocs := testing.AllocsPerRun(3, func() {
		cur, err := ws.QueryStream(context.Background(), scanText)
		if err != nil {
			t.Fatal(err)
		}
		defer cur.Close()
		for rows = 0; ; rows++ {
			if _, ok := cur.Next(); !ok {
				break
			}
		}
		if err := cur.Err(); err != nil {
			t.Fatal(err)
		}
	})
	if rows != 50_000 {
		t.Fatalf("streamed %d rows, want 50000", rows)
	}
	if allocs >= 1000 {
		t.Errorf("draining a 50k-row stream: %.0f allocations, want < 1000", allocs)
	}
}

// TestRangeBoundsAsSeeks: a bound on the first column of a one-atom read
// is a seek to its lower bound and a stop past its upper one, so the
// answer rule's profile counts about one next per row in range, not one
// per stored fact. Where trie order and the filter's numeric order could
// disagree — an untyped column mixing ints and floats, a float bound on
// ints, a string bound on ints — the bound is a filter over every fact,
// and answers (or fails) as before.
func TestRangeBoundsAsSeeks(t *testing.T) {
	ws := retailSeed(t) // 40 products × 20 facts, p and n ints
	ws = mustExec(t, mustAddBlock(t, ws, "mixed", `m(x) <- a(x).`), `+a(1). +a(1.5). +a(2). +a(3). +a(2.5).`)
	for _, tc := range []struct {
		src   string
		rows  int   // answer size
		nexts int64 // the answer rule's nexts: at most rows + 1 for a seek
		seek  bool  // the bound is a seek, else a filter over every fact
		want  string
	}{
		{src: `_(p, s, wk, n) <- sales[p, s, wk] = n, p < 10.`, rows: 200, seek: true},
		{src: `_(p, s, wk, n) <- sales[p, s, wk] = n, p >= 5, 10 > p.`, rows: 100, seek: true},
		{src: `_(p, s, wk, n) <- sales[p, s, wk] = n, p > 36, p <= 38.`, rows: 40, seek: true},
		{src: `_(p, s, wk, n) <- sales[p, s, wk] = n, p > 5, p < 3.`, rows: 0, seek: true},
		{src: `_(p, s, wk, n) <- sales[p, s, wk] = n, p < 2.5.`, rows: 60, nexts: 800},
		{src: `_(x) <- a(x), x < 2.`, rows: 2, nexts: 5, want: "[(1) (1.5)]"},
		{src: `_(x) <- a(x), x >= 2.`, rows: 3, nexts: 5, want: "[(2) (3) (2.5)]"},
	} {
		reg := obs.NewRegistry()
		got, err := ws.WithObserver(reg).Query(tc.src)
		if err != nil {
			t.Fatalf("%s: %v", tc.src, err)
		}
		if want := addBlockAnswer(t, ws, tc.src); !sameTuples(got, want) || len(got) != tc.rows {
			t.Errorf("%s: Query = %v (%d rows), AddBlock answers %v; want %d rows", tc.src, got, len(got), want, tc.rows)
		}
		if tc.want != "" && fmt.Sprint(got) != tc.want {
			t.Errorf("%s: %v, want %s", tc.src, got, tc.want)
		}
		nexts := int64(-1)
		for _, r := range reg.Snapshot().Rules {
			if r.Head == "_" {
				nexts = r.Nexts
			}
		}
		switch {
		case tc.seek && (nexts < int64(tc.rows) || nexts > int64(tc.rows)+1):
			t.Errorf("%s: the answer rule made %d nexts, want %d or %d", tc.src, nexts, tc.rows, tc.rows+1)
		case !tc.seek && nexts != tc.nexts:
			t.Errorf("%s: the answer rule made %d nexts, want the filter's %d", tc.src, nexts, tc.nexts)
		}
	}
	src := `_(p, s, wk, n) <- sales[p, s, wk] = n, p < "x".`
	if got, err := ws.Query(src); err == nil || !strings.Contains(err.Error(), "cannot compare") {
		t.Errorf("%s: got %v, %v; want the filter's comparison error", src, got, err)
	}
}
