package main

// The oracle is independent of the engine: the harness keeps the sales
// and price facts in plain maps, applies each acknowledged write, and
// recomputes every view with ordinary arithmetic. After the timed phase,
// and again after the SIGKILL restart, it compares the server's answers
// with its own; a missing acknowledged write shows as a wrong sum.

const hotThreshold = 5500 // the constant in schemaBlock's hot(p) rule

// oracle checks the main branch against the model and records every
// mismatch as a problem.
func (h *harness) oracle(when string) {
	c := newClient(h.srv.base)
	defer c.close()
	ask := func(kind, src string, stream bool) (answer, bool) {
		a, err := c.do(op{kind: kind, path: "/query", src: src, stream: stream})
		h.res.Attempted++
		if err != nil {
			h.res.Failed++
			h.res.problem("oracle %s: %v", when, err)
			return a, false
		}
		return a, true
	}
	byProduct := map[int64]int64{}
	byStore := map[int64]int64{}
	var total int64
	for k, n := range h.model.sales {
		byProduct[k.p] += n
		byStore[k.s] += n
		total += n
	}
	revenue := map[int64]int64{}
	hot := 0
	for p, u := range byProduct {
		revenue[p] = u * h.model.price[p]
		if u > hotThreshold {
			hot++
		}
	}
	views := []struct {
		name string
		src  string
		want map[int64]int64
	}{
		{"salesByProduct", `_(p, u) <- salesByProduct[p] = u.`, byProduct},
		{"salesByStore", `_(s, u) <- salesByStore[s] = u.`, byStore},
		{"revenue", `_(p, r) <- revenue[p] = r.`, revenue},
	}
	for _, v := range views {
		a, ok := ask(kQuery, v.src, false)
		if !ok {
			continue
		}
		if len(a.rows) != len(v.want) {
			h.res.problem("oracle %s: %s has %d rows, model has %d", when, v.name, len(a.rows), len(v.want))
			continue
		}
		bad := 0
		for _, r := range a.rows {
			key, _ := r[0].Int64()
			got, _ := r[1].Int64()
			if want, ok := v.want[key]; !ok || want != got {
				if bad == 0 {
					h.res.problem("oracle %s: %s[%d] = %d, model says %d", when, v.name, key, got, v.want[key])
				}
				bad++
			}
		}
		if bad > 1 {
			h.res.problem("oracle %s: %s: %d values differ", when, v.name, bad)
		}
	}
	if a, ok := ask(kQuery, `_(p) <- hot(p).`, false); ok && a.nRows != hot {
		h.res.problem("oracle %s: hot has %d rows, model has %d", when, a.nRows, hot)
	}
	if a, ok := ask(kScan, scanQuery, true); ok && (a.nRows != len(h.model.sales) || a.lastSum != total) {
		h.res.problem("oracle %s: scan returned %d rows summing to %d, model has %d summing to %d",
			when, a.nRows, a.lastSum, len(h.model.sales), total)
	}
	if a, ok := ask(kJoin, joinQuery, false); ok && a.nRows != countTriangles(h.model.edges) {
		h.res.problem("oracle %s: %d triangles, model counts %d", when, a.nRows, countTriangles(h.model.edges))
	}
}
