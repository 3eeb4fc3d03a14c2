// Package graphgen generates deterministic synthetic graphs for the join
// benchmarks. The paper's Figure 5 uses the LiveJournal social network,
// whose heavy-tailed (power-law) degree distribution is exactly what makes
// pairwise join plans explode on the 3-clique query; the preferential-
// attachment generator here reproduces that skew at configurable scale
// (see DESIGN.md, substitutions).
package graphgen

import (
	"math/rand"
	"sort"

	"logicblox/internal/relation"
	"logicblox/internal/tuple"
)

// Edge is an undirected graph edge between vertex ids.
type Edge struct{ U, V int64 }

// PreferentialAttachment generates a Barabási–Albert-style graph with n
// vertices, attaching each new vertex to degree (number of existing
// vertices chosen proportionally to their degree). The result has a
// power-law degree distribution with high-degree hubs, like LiveJournal.
// Generation is deterministic in seed.
func PreferentialAttachment(n, degree int, seed int64) []Edge {
	if degree < 1 {
		degree = 1
	}
	rng := rand.New(rand.NewSource(seed))
	var edges []Edge
	// targets holds one entry per edge endpoint, so sampling uniformly
	// from it is sampling proportionally to degree.
	targets := make([]int64, 0, 2*n*degree)
	// Seed clique of degree+1 vertices.
	seedN := degree + 1
	if seedN > n {
		seedN = n
	}
	for i := 0; i < seedN; i++ {
		for j := i + 1; j < seedN; j++ {
			edges = append(edges, Edge{int64(i), int64(j)})
			targets = append(targets, int64(i), int64(j))
		}
	}
	for v := seedN; v < n; v++ {
		chosen := map[int64]bool{}
		for len(chosen) < degree && len(chosen) < v {
			t := targets[rng.Intn(len(targets))]
			chosen[t] = true
		}
		// Deterministic iteration order over the chosen set.
		picks := make([]int64, 0, len(chosen))
		for t := range chosen {
			picks = append(picks, t)
		}
		sort.Slice(picks, func(i, j int) bool { return picks[i] < picks[j] })
		for _, t := range picks {
			edges = append(edges, Edge{int64(v), t})
			targets = append(targets, int64(v), t)
		}
	}
	return edges
}

// ErdosRenyi generates a uniform random graph with n vertices and
// (approximately) m distinct undirected edges.
func ErdosRenyi(n int, m int, seed int64) []Edge {
	rng := rand.New(rand.NewSource(seed))
	seen := map[[2]int64]bool{}
	var edges []Edge
	for len(edges) < m {
		u, v := rng.Int63n(int64(n)), rng.Int63n(int64(n))
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		k := [2]int64{u, v}
		if seen[k] {
			continue
		}
		seen[k] = true
		edges = append(edges, Edge{u, v})
	}
	return edges
}

// Canonical returns the edge set normalized so U < V, with duplicates
// removed. A triangle query over canonical edges enumerates each triangle
// exactly once (the x<y<z convention of Figure 5).
func Canonical(edges []Edge) []Edge {
	seen := map[[2]int64]bool{}
	out := make([]Edge, 0, len(edges))
	for _, e := range edges {
		u, v := e.U, e.V
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		k := [2]int64{u, v}
		if !seen[k] {
			seen[k] = true
			out = append(out, Edge{u, v})
		}
	}
	return out
}

// ToRelation materializes edges as a binary relation.
func ToRelation(edges []Edge) relation.Relation {
	ts := make([]tuple.Tuple, len(edges))
	for i, e := range edges {
		ts[i] = tuple.Ints(e.U, e.V)
	}
	return relation.FromTuples(2, ts)
}

// DegreeStats summarizes a degree distribution: max degree and the share
// of edge endpoints landing on the top 1% of vertices (a skew measure).
func DegreeStats(edges []Edge) (maxDeg int, top1Share float64) {
	deg := map[int64]int{}
	for _, e := range edges {
		deg[e.U]++
		deg[e.V]++
	}
	if len(deg) == 0 {
		return 0, 0
	}
	ds := make([]int, 0, len(deg))
	total := 0
	for _, d := range deg {
		ds = append(ds, d)
		total += d
	}
	sort.Sort(sort.Reverse(sort.IntSlice(ds)))
	maxDeg = ds[0]
	top := len(ds) / 100
	if top < 1 {
		top = 1
	}
	sum := 0
	for i := 0; i < top; i++ {
		sum += ds[i]
	}
	return maxDeg, float64(sum) / float64(total)
}
