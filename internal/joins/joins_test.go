package joins

import (
	"math/rand"
	"testing"

	"logicblox/internal/graphgen"
	"logicblox/internal/lftj"
	"logicblox/internal/relation"
	"logicblox/internal/tuple"
)

func rel2(pairs ...[2]int64) relation.Relation {
	r := relation.New(2)
	for _, p := range pairs {
		r = r.Insert(tuple.Ints(p[0], p[1]))
	}
	return r
}

func TestHashJoinBasic(t *testing.T) {
	l := rel2([2]int64{1, 10}, [2]int64{2, 20})
	r := rel2([2]int64{10, 100}, [2]int64{10, 101}, [2]int64{30, 300})
	out := HashJoin(l, r, []int{1}, []int{0})
	if len(out) != 2 {
		t.Fatalf("hash join size = %d: %v", len(out), out)
	}
	for _, o := range out {
		if o[0].AsInt() != 1 || o[1].AsInt() != 10 || o[2].AsInt() != 10 {
			t.Fatalf("bad joined tuple %v", o)
		}
	}
}

func TestMergeJoinMatchesHashJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 20; trial++ {
		mk := func() relation.Relation {
			r := relation.New(2)
			for i := 0; i < rng.Intn(50); i++ {
				r = r.Insert(tuple.Ints(rng.Int63n(8), rng.Int63n(8)))
			}
			return r
		}
		l, r := mk(), mk()
		h := HashJoin(l, r, []int{0}, []int{0})
		m := MergeJoin(l, r)
		if len(h) != len(m) {
			t.Fatalf("trial %d: hash %d vs merge %d results", trial, len(h), len(m))
		}
	}
}

// lftjTriangleCount counts triangles over canonical edges with LFTJ.
func lftjTriangleCount(e relation.Relation) int {
	j, err := lftj.NewJoin(3, []lftj.Atom{
		{Pred: "E1", Iter: e.Iterator(), Vars: []int{0, 1}},
		{Pred: "E2", Iter: e.Iterator(), Vars: []int{1, 2}},
		{Pred: "E3", Iter: e.Iterator(), Vars: []int{0, 2}},
	}, nil)
	if err != nil {
		panic(err)
	}
	return j.Count()
}

func TestTriangleCountsAgreeAcrossAlgorithms(t *testing.T) {
	// Known instance: the 4-clique {0,1,2,3} has C(4,3)=4 triangles.
	var edges []graphgen.Edge
	for u := int64(0); u < 4; u++ {
		for v := u + 1; v < 4; v++ {
			edges = append(edges, graphgen.Edge{U: u, V: v})
		}
	}
	e := graphgen.ToRelation(edges)
	if got := TriangleCountHash(e); got != 4 {
		t.Fatalf("hash count = %d, want 4", got)
	}
	if got := TriangleCountMerge(e); got != 4 {
		t.Fatalf("merge count = %d, want 4", got)
	}
	if got := lftjTriangleCount(e); got != 4 {
		t.Fatalf("lftj count = %d, want 4", got)
	}
}

func TestTriangleCountsAgreeOnRandomGraphs(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		edges := graphgen.Canonical(graphgen.PreferentialAttachment(200, 3, seed))
		e := graphgen.ToRelation(edges)
		h := TriangleCountHash(e)
		m := TriangleCountMerge(e)
		l := lftjTriangleCount(e)
		if h != m || h != l {
			t.Fatalf("seed %d: hash=%d merge=%d lftj=%d", seed, h, m, l)
		}
		if h == 0 {
			t.Fatalf("seed %d: degenerate graph with no triangles", seed)
		}
	}
}
