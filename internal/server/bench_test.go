package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"logicblox/internal/core"
	"logicblox/internal/tuple"
)

// benchSchema is the benchmark module's retail program (benchmark/gen.go):
// two functional base predicates, a graph, four views and two
// constraints.
const benchSchema = `sales[p, s, wk] = n -> int(p), int(s), int(wk), int(n).
price[p] = v -> int(p), int(v).
edge(a, b) -> int(a), int(b).
salesByProduct[p] = u <- agg<<u = sum(n)>> sales[p, s, wk] = n.
salesByStore[s] = u <- agg<<u = sum(n)>> sales[p, s, wk] = n.
revenue[p] = r <- salesByProduct[p] = u, price[p] = v, r = u * v.
hot(p) <- salesByProduct[p] = u, u > 5500.
sales[p, s, wk] = n -> n >= 0.
salesByProduct[p] = u -> price[p] = _.
`

// benchHandler serves the retail program over tx-mixed's data: 20
// products × 10 stores × 10 weeks = 2 000 sales facts and 1 000 edges.
func benchHandler(b *testing.B) http.Handler {
	b.Helper()
	ws, err := core.NewWorkspace().AddBlock("retail", benchSchema)
	if err != nil {
		b.Fatal(err)
	}
	var prices, sales, edges []tuple.Tuple
	for p := int64(0); p < 20; p++ {
		prices = append(prices, tuple.Ints(p, 10+p))
		for s := int64(0); s < 10; s++ {
			for wk := int64(0); wk < 10; wk++ {
				sales = append(sales, tuple.Ints(p, s, wk, (p*7+s*3+wk)%100))
			}
		}
	}
	for i := int64(0); i < 1000; i++ {
		edges = append(edges, tuple.Ints(i%100, (i*37)%100))
	}
	for _, load := range []struct {
		pred string
		ts   []tuple.Tuple
	}{{"price", prices}, {"sales", sales}, {"edge", edges}} {
		if ws, err = ws.Insert(load.pred, load.ts...); err != nil {
			b.Fatal(err)
		}
	}
	return New(core.NewDatabaseWith(ws), Config{}).Handler()
}

// serve posts one JSON body to path in process and fails on a non-200.
// The request is built with http.NewRequest, not httptest.NewRequest,
// whose 4 KB read buffer a served connection reuses across requests.
func serve(b *testing.B, h http.Handler, path, body string) {
	req, err := http.NewRequest(http.MethodPost, path, strings.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		b.Fatalf("%s %s: %d %s", path, body, rec.Code, rec.Body)
	}
}

// BenchmarkServerRequest is the per-request allocation probe: one request
// per iteration through the in-process handler over tx-mixed's data — a
// point read of an aggregate view, a point read of the derived revenue
// view, a 100-row prefix read, a one-fact exec — and tx-mixed's cycle of
// 8 point reads, 1 prefix read and 1 exec.
func BenchmarkServerRequest(b *testing.B) {
	point := func(i int) string {
		view := "salesByProduct"
		if i%2 == 1 {
			view = "revenue"
		}
		return fmt.Sprintf(`{"src":"_(u) <- %s[%d] = u."}`, view, i%20)
	}
	const prefix = `{"src":"_(s, wk, n) <- sales[7, s, wk] = n."}`
	// Each exec sets one fact to a value it does not hold.
	exec := func(i int) string { return fmt.Sprintf(`{"src":"^sales[3, 2, 4] = %d."}`, i%97) }
	for _, c := range []struct {
		name string
		run  func(b *testing.B, h http.Handler, i int)
	}{
		{"point", func(b *testing.B, h http.Handler, i int) { serve(b, h, "/query", point(2*i)) }},
		{"revenue", func(b *testing.B, h http.Handler, i int) { serve(b, h, "/query", point(2*i+1)) }},
		{"prefix", func(b *testing.B, h http.Handler, i int) { serve(b, h, "/query", prefix) }},
		{"exec", func(b *testing.B, h http.Handler, i int) { serve(b, h, "/exec", exec(i)) }},
		{"cycle", func(b *testing.B, h http.Handler, i int) {
			for j := 0; j < 8; j++ {
				serve(b, h, "/query", point(j))
			}
			serve(b, h, "/query", prefix)
			serve(b, h, "/exec", exec(i))
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			h := benchHandler(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.run(b, h, i)
			}
		})
	}
}
