package lftj

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"logicblox/internal/graphgen"
	"logicblox/internal/relation"
	"logicblox/internal/trie"
	"logicblox/internal/tuple"
)

func unary(vals ...int64) relation.Relation {
	r := relation.New(1)
	for _, v := range vals {
		r = r.Insert(tuple.Ints(v))
	}
	return r
}

func binary(pairs ...[2]int64) relation.Relation {
	r := relation.New(2)
	for _, p := range pairs {
		r = r.Insert(tuple.Ints(p[0], p[1]))
	}
	return r
}

// TestFig3UnaryLeapfrog reproduces the paper's Figure 3: the join of
// A = {0,1,3,4,5,6,7,8,9,11}, B = {0,2,6,7,8,9}, C = {2,4,5,8,10}
// yields exactly {8}.
func TestFig3UnaryLeapfrog(t *testing.T) {
	a := unary(0, 1, 3, 4, 5, 6, 7, 8, 9, 11)
	b := unary(0, 2, 6, 7, 8, 9)
	c := unary(2, 4, 5, 8, 10)
	got := Intersect(a.Iterator(), b.Iterator(), c.Iterator())
	if len(got) != 1 || got[0].AsInt() != 8 {
		t.Fatalf("A∩B∩C = %v, want [8]", got)
	}
}

// TestFig3SensitivityIntervals checks the recorded sensitivity intervals
// against the paper's published trace for Figure 3.
func TestFig3SensitivityIntervals(t *testing.T) {
	a := unary(0, 1, 3, 4, 5, 6, 7, 8, 9, 11)
	b := unary(0, 2, 6, 7, 8, 9)
	c := unary(2, 4, 5, 8, 10)
	idx := NewSensitivityIndex()
	j, err := NewJoin(1, []Atom{
		{Pred: "A", Iter: a.Iterator(), Vars: []int{0}},
		{Pred: "B", Iter: b.Iterator(), Vars: []int{0}},
		{Pred: "C", Iter: c.Iterator(), Vars: []int{0}},
	}, idx)
	if err != nil {
		t.Fatal(err)
	}
	if got := j.Collect(); len(got) != 1 || got[0][0].AsInt() != 8 {
		t.Fatalf("join = %v", got)
	}

	// Paper (§3.2): inserting C(3) or deleting C(4) must NOT affect the
	// run; the published sensitive regions must.
	type probe struct {
		pred     string
		v        int64
		affected bool
	}
	probes := []probe{
		{"C", 3, false}, // inside seek(6)'s skipped gap (4,6) — wait: paper says C(3) unaffected
		{"A", 0, true},  // [-inf,0]
		{"A", 2, true},  // [2,3]
		{"A", 3, true},
		{"A", 8, true},  // [8,8]
		{"A", 10, true}, // [10,11]
		{"A", 5, false}, // between recorded intervals
		{"B", 0, true},  // [-inf,0]
		{"B", 4, true},  // [3,6]
		{"B", 12, true}, // [11,+inf]
		{"B", 7, false},
		{"C", 1, true}, // [-inf,2]
		{"C", 7, true}, // [6,8]
		{"C", 9, true}, // [8,10]
		{"C", 11, false},
	}
	for _, p := range probes {
		if got := idx.Affected(p.pred, tuple.Ints(p.v)); got != p.affected {
			t.Errorf("Affected(%s, %d) = %v, want %v\nintervals: %v",
				p.pred, p.v, got, p.affected, idx.Intervals(p.pred))
		}
	}
}

// TestFig3DeleteC4Unaffected is the paper's explicit example: deleting the
// fact C(4) does not affect the computation.
func TestFig3DeleteC4Unaffected(t *testing.T) {
	a := unary(0, 1, 3, 4, 5, 6, 7, 8, 9, 11)
	b := unary(0, 2, 6, 7, 8, 9)
	c := unary(2, 4, 5, 8, 10)
	idx := NewSensitivityIndex()
	j, _ := NewJoin(1, []Atom{
		{Pred: "A", Iter: a.Iterator(), Vars: []int{0}},
		{Pred: "B", Iter: b.Iterator(), Vars: []int{0}},
		{Pred: "C", Iter: c.Iterator(), Vars: []int{0}},
	}, idx)
	j.Run(func(tuple.Tuple) bool { return true })
	if idx.Affected("C", tuple.Ints(4)) {
		t.Errorf("deleting C(4) should not affect the run; intervals: %v", idx.Intervals("C"))
	}
}

func TestIntersectEmptyAndDisjoint(t *testing.T) {
	if got := Intersect(unary().Iterator(), unary(1).Iterator()); len(got) != 0 {
		t.Fatalf("intersect with empty = %v", got)
	}
	if got := Intersect(unary(1, 3).Iterator(), unary(2, 4).Iterator()); len(got) != 0 {
		t.Fatalf("disjoint intersect = %v", got)
	}
	got := Intersect(unary(5).Iterator(), unary(5).Iterator(), trie.NewConstIterator(tuple.Int(5)))
	if len(got) != 1 || got[0].AsInt() != 5 {
		t.Fatalf("const participation = %v", got)
	}
}

func TestTriangleJoin(t *testing.T) {
	// R(a,b), S(b,c), T(a,c) with a small instance having known output.
	r := binary([2]int64{1, 2}, [2]int64{1, 3}, [2]int64{2, 3})
	s := binary([2]int64{2, 3}, [2]int64{3, 4}, [2]int64{2, 4})
	tt := binary([2]int64{1, 3}, [2]int64{1, 4}, [2]int64{2, 4})
	// Consistent order [a,b,c]: R(a,b): vars 0,1; S(b,c): vars 1,2; T(a,c): vars 0,2.
	j, err := NewJoin(3, []Atom{
		{Pred: "R", Iter: r.Iterator(), Vars: []int{0, 1}},
		{Pred: "S", Iter: s.Iterator(), Vars: []int{1, 2}},
		{Pred: "T", Iter: tt.Iterator(), Vars: []int{0, 2}},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := j.Collect()
	// Expected: (1,2,3): R(1,2),S(2,3),T(1,3) ✓; (1,2,4): R(1,2),S(2,4),T(1,4) ✓;
	// (1,3,4): R(1,3),S(3,4),T(1,4) ✓; (2,?,?): R(2,3),S(3,4),T(2,4) ✓ → (2,3,4).
	want := []tuple.Tuple{tuple.Ints(1, 2, 3), tuple.Ints(1, 2, 4), tuple.Ints(1, 3, 4), tuple.Ints(2, 3, 4)}
	if len(got) != len(want) {
		t.Fatalf("triangle join = %v, want %v", got, want)
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Fatalf("triangle join[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

// naiveJoin computes R(a,b) ⋈ S(b,c) ⋈ T(a,c) by nested loops, as a model.
func naiveTriangles(r, s, t relation.Relation) map[[3]int64]bool {
	out := map[[3]int64]bool{}
	for _, rt := range r.Slice() {
		for _, st := range s.Slice() {
			if !tuple.Equal(rt[1], st[0]) {
				continue
			}
			if t.Contains(tuple.Of(rt[0], st[1])) {
				out[[3]int64{rt[0].AsInt(), rt[1].AsInt(), st[1].AsInt()}] = true
			}
		}
	}
	return out
}

func TestTriangleJoinRandomizedAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 25; trial++ {
		mk := func() relation.Relation {
			r := relation.New(2)
			for i := 0; i < rng.Intn(60); i++ {
				r = r.Insert(tuple.Ints(rng.Int63n(10), rng.Int63n(10)))
			}
			return r
		}
		r, s, tt := mk(), mk(), mk()
		j, err := NewJoin(3, []Atom{
			{Pred: "R", Iter: r.Iterator(), Vars: []int{0, 1}},
			{Pred: "S", Iter: s.Iterator(), Vars: []int{1, 2}},
			{Pred: "T", Iter: tt.Iterator(), Vars: []int{0, 2}},
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := naiveTriangles(r, s, tt)
		got := map[[3]int64]bool{}
		j.Run(func(b tuple.Tuple) bool {
			got[[3]int64{b[0].AsInt(), b[1].AsInt(), b[2].AsInt()}] = true
			return true
		})
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d results, want %d", trial, len(got), len(want))
		}
		for k := range want {
			if !got[k] {
				t.Fatalf("trial %d: missing %v", trial, k)
			}
		}
	}
}

func TestJoinWithConstantAtom(t *testing.T) {
	// A(x, y), y = 2 via a virtual constant predicate on variable y.
	a := binary([2]int64{1, 2}, [2]int64{1, 5}, [2]int64{3, 2})
	j, err := NewJoin(2, []Atom{
		{Pred: "A", Iter: a.Iterator(), Vars: []int{0, 1}},
		{Pred: "$const2", Iter: trie.NewConstIterator(tuple.Int(2)), Vars: []int{1}},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := j.Collect()
	if len(got) != 2 || got[0][0].AsInt() != 1 || got[1][0].AsInt() != 3 {
		t.Fatalf("const-filtered join = %v", got)
	}
}

func TestJoinValidation(t *testing.T) {
	a := binary([2]int64{1, 2})
	if _, err := NewJoin(2, []Atom{{Pred: "A", Iter: a.Iterator(), Vars: []int{1, 0}}}, nil); err == nil {
		t.Fatal("inconsistent variable order should be rejected")
	}
	if _, err := NewJoin(2, []Atom{{Pred: "A", Iter: a.Iterator(), Vars: []int{0}}}, nil); err == nil {
		t.Fatal("arity mismatch should be rejected")
	}
	if _, err := NewJoin(3, []Atom{{Pred: "A", Iter: a.Iterator(), Vars: []int{0, 1}}}, nil); err == nil {
		t.Fatal("uncovered variable should be rejected")
	}
	if _, err := NewJoin(2, []Atom{{Pred: "A", Iter: a.Iterator(), Vars: []int{0, 5}}}, nil); err == nil {
		t.Fatal("out-of-range variable should be rejected")
	}
}

func TestJoinEarlyTermination(t *testing.T) {
	a := unary(1, 2, 3, 4, 5)
	j, _ := NewJoin(1, []Atom{{Pred: "A", Iter: a.Iterator(), Vars: []int{0}}}, nil)
	n := 0
	j.Run(func(tuple.Tuple) bool { n++; return n < 2 })
	if n != 2 {
		t.Fatalf("emit called %d times, want 2", n)
	}
}

func TestJoinReuseAfterRun(t *testing.T) {
	// A Join over fresh iterators can be run once; build twice to verify
	// determinism of results.
	build := func() *Join {
		a := binary([2]int64{1, 2}, [2]int64{2, 3})
		b := binary([2]int64{2, 9}, [2]int64{3, 9})
		j, _ := NewJoin(3, []Atom{
			{Pred: "A", Iter: a.Iterator(), Vars: []int{0, 1}},
			{Pred: "B", Iter: b.Iterator(), Vars: []int{1, 2}},
		}, nil)
		return j
	}
	r1 := build().Collect()
	r2 := build().Collect()
	if len(r1) != 2 || len(r1) != len(r2) {
		t.Fatalf("deterministic rebuild mismatch: %v vs %v", r1, r2)
	}
}

func TestSensitivityIndexPointAndReset(t *testing.T) {
	x := NewSensitivityIndex()
	x.AddPoint("P", tuple.Ints(1, 2))
	if !x.Affected("P", tuple.Ints(1, 2)) {
		t.Fatal("point should cover itself")
	}
	if x.Affected("P", tuple.Ints(1, 3)) || x.Affected("P", tuple.Ints(2, 2)) {
		t.Fatal("point covers too much")
	}
	x.Add("Q", tuple.Tuple{}, tuple.Int(5), tuple.Int(9))
	if !x.Affected("Q", tuple.Ints(7)) || x.Affected("Q", tuple.Ints(4)) {
		t.Fatal("interval wrong")
	}
	if x.Len() != 2 {
		t.Fatalf("Len = %d", x.Len())
	}
	x.Reset()
	if x.Len() != 0 || x.Affected("P", tuple.Ints(1, 2)) {
		t.Fatal("reset failed")
	}
}

func TestSensitivityMultiLevelPrefix(t *testing.T) {
	// Binary join: sensitivity at depth 1 must carry the depth-0 context.
	a := binary([2]int64{1, 10}, [2]int64{2, 20})
	b := binary([2]int64{1, 10}, [2]int64{2, 30})
	idx := NewSensitivityIndex()
	j, _ := NewJoin(2, []Atom{
		{Pred: "A", Iter: a.Iterator(), Vars: []int{0, 1}},
		{Pred: "B", Iter: b.Iterator(), Vars: []int{0, 1}},
	}, idx)
	got := j.Collect()
	if len(got) != 1 || got[0][1].AsInt() != 10 {
		t.Fatalf("join = %v", got)
	}
	// Under x=2 the y-level was explored (A at 20, B at 30): changes to
	// B(2, 25) fall in a sensitive gap.
	if !idx.Affected("B", tuple.Ints(2, 25)) {
		t.Errorf("B(2,25) should be sensitive; intervals %v", idx.Intervals("B"))
	}
	// Changes under a never-explored x context (x=3 exists in neither A
	// nor B, and the x-level trace skipped it) are not sensitive.
	if idx.Affected("B", tuple.Ints(3, 5)) && idx.Affected("A", tuple.Ints(3, 5)) {
		t.Errorf("(3,5) under unexplored context sensitive in both inputs; A: %v  B: %v",
			idx.Intervals("A"), idx.Intervals("B"))
	}
}

// TestQuickIntersectionMatchesModel is a testing/quick property: the unary
// leapfrog intersection equals the set-model intersection for arbitrary
// inputs.
func TestQuickIntersectionMatchesModel(t *testing.T) {
	f := func(xs, ys, zs []int16) bool {
		mk := func(vals []int16) (relation.Relation, map[int64]bool) {
			r := relation.New(1)
			m := map[int64]bool{}
			for _, v := range vals {
				r = r.Insert(tuple.Ints(int64(v)))
				m[int64(v)] = true
			}
			return r, m
		}
		a, ma := mk(xs)
		b, mb := mk(ys)
		c, mc := mk(zs)
		got := Intersect(a.Iterator(), b.Iterator(), c.Iterator())
		want := 0
		for v := range ma {
			if mb[v] && mc[v] {
				want++
			}
		}
		if len(got) != want {
			return false
		}
		for _, v := range got {
			if !ma[v.AsInt()] || !mb[v.AsInt()] || !mc[v.AsInt()] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQuickBinaryJoinMatchesModel checks R(a,b) ⋈ S(b,c) against nested
// loops for arbitrary inputs.
func TestQuickBinaryJoinMatchesModel(t *testing.T) {
	f := func(rs, ss [][2]uint8) bool {
		r := relation.New(2)
		s := relation.New(2)
		for _, p := range rs {
			r = r.Insert(tuple.Ints(int64(p[0]%8), int64(p[1]%8)))
		}
		for _, p := range ss {
			s = s.Insert(tuple.Ints(int64(p[0]%8), int64(p[1]%8)))
		}
		j, err := NewJoin(3, []Atom{
			{Pred: "R", Iter: r.Iterator(), Vars: []int{0, 1}},
			{Pred: "S", Iter: s.Iterator(), Vars: []int{1, 2}},
		}, nil)
		if err != nil {
			return false
		}
		got := map[[3]int64]bool{}
		j.Run(func(b tuple.Tuple) bool {
			got[[3]int64{b[0].AsInt(), b[1].AsInt(), b[2].AsInt()}] = true
			return true
		})
		want := map[[3]int64]bool{}
		for _, rt := range r.Slice() {
			for _, st := range s.Slice() {
				if tuple.Equal(rt[1], st[0]) {
					want[[3]int64{rt[0].AsInt(), rt[1].AsInt(), st[1].AsInt()}] = true
				}
			}
		}
		if len(got) != len(want) {
			return false
		}
		for k := range want {
			if !got[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestRangeRestrictsJoin(t *testing.T) {
	a := unary(1, 3, 5, 7, 9)
	j, err := NewJoin(1, []Atom{
		{Pred: "A", Iter: a.Iterator(), Vars: []int{0}},
		{Pred: "$range", Iter: trie.NewRangeIterator(tuple.Int(3), tuple.Int(8)), Vars: []int{0}},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := j.Collect()
	if len(got) != 3 || got[0][0].AsInt() != 3 || got[2][0].AsInt() != 7 {
		t.Fatalf("range-restricted join = %v", got)
	}
}

func TestPartitionedJoinMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	e := relation.New(2)
	for i := 0; i < 600; i++ {
		e = e.Insert(tuple.Ints(rng.Int63n(40), rng.Int63n(40)))
	}
	mkAtoms := func() []Atom {
		return []Atom{
			{Pred: "E1", Iter: e.Iterator(), Vars: []int{0, 1}},
			{Pred: "E2", Iter: e.Iterator(), Vars: []int{1, 2}},
			{Pred: "E3", Iter: e.Iterator(), Vars: []int{0, 2}},
		}
	}
	serial, err := NewJoin(3, mkAtoms(), nil)
	if err != nil {
		t.Fatal(err)
	}
	want := serial.Count()

	cuts := Quantiles(e.Sample(128), 4)
	if len(cuts) == 0 {
		t.Fatal("no quantile cuts")
	}
	got, err := PartitionedCount(3, mkAtoms, cuts, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("partitioned count %d != serial %d (cuts %v)", got, want, cuts)
	}

	// The bindings themselves: same multiset, each found by one partition.
	var mu sync.Mutex
	var rows []tuple.Tuple
	err = PartitionedRun(3, mkAtoms, cuts, 3, func(b tuple.Tuple) bool {
		mu.Lock()
		rows = append(rows, b.Clone())
		mu.Unlock()
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != want {
		t.Fatalf("collect size %d != %d", len(rows), want)
	}
	seen := map[string]bool{}
	for _, r := range rows {
		if seen[r.String()] {
			t.Fatalf("duplicate binding across partitions: %v", r)
		}
		seen[r.String()] = true
	}
}

func TestQuantiles(t *testing.T) {
	r := relation.New(1)
	for i := int64(0); i < 100; i++ {
		r = r.Insert(tuple.Ints(i))
	}
	cuts := Quantiles(r, 4)
	if len(cuts) != 3 {
		t.Fatalf("cuts = %v", cuts)
	}
	for i := 1; i < len(cuts); i++ {
		if !tuple.Less(cuts[i-1], cuts[i]) {
			t.Fatalf("cuts not increasing: %v", cuts)
		}
	}
	if got := Quantiles(relation.New(1), 4); got != nil {
		t.Fatalf("empty sample should yield no cuts: %v", got)
	}
}

func TestSuccessorOrdering(t *testing.T) {
	vals := []tuple.Value{
		tuple.Bool(false), tuple.Int(0), tuple.Int(41),
		tuple.Float(1.5), tuple.String("abc"), tuple.Entity(1, 2),
	}
	for _, v := range vals {
		s := tuple.Successor(v)
		if tuple.Compare(s, v) <= 0 {
			t.Errorf("Successor(%v) = %v is not greater", v, s)
		}
	}
}

// TestTriangleJoinAllocsFlat checks that a join's allocations do not grow
// with the data: relation trie iterators reuse one treap iterator through
// every Open, Up, Next and Seek, so a triangle Count over 10× the edges
// allocates what it does at 1k edges (the join's own setup).
func TestTriangleJoinAllocsFlat(t *testing.T) {
	allocs := func(edges int) float64 {
		all := graphgen.Canonical(graphgen.PreferentialAttachment(edges/3, 3, 2015))
		e := graphgen.ToRelation(all[:min(edges, len(all))])
		return testing.AllocsPerRun(3, func() {
			j, err := NewJoin(3, []Atom{
				{Pred: "E1", Iter: e.Iterator(), Vars: []int{0, 1}},
				{Pred: "E2", Iter: e.Iterator(), Vars: []int{1, 2}},
				{Pred: "E3", Iter: e.Iterator(), Vars: []int{0, 2}},
			}, nil)
			if err != nil {
				t.Fatal(err)
			}
			j.Count()
		})
	}
	small, large := allocs(1000), allocs(10000)
	if large != small {
		t.Fatalf("triangle Count allocates %.0f at 10k edges, %.0f at 1k", large, small)
	}
}
