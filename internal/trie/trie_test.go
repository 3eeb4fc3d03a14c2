package trie

import (
	"math/rand"
	"testing"

	"logicblox/internal/tuple"
)

func sorted(ts []tuple.Tuple) []tuple.Tuple {
	tuple.SortTuples(ts)
	return tuple.DedupSorted(ts)
}

func TestSliceIteratorWalkTernary(t *testing.T) {
	// The paper's Figure 4 predicate A(x,y,z).
	ts := sorted([]tuple.Tuple{
		tuple.Ints(1, 3, 4), tuple.Ints(1, 3, 5), tuple.Ints(1, 4, 6),
		tuple.Ints(1, 4, 8), tuple.Ints(1, 4, 9), tuple.Ints(1, 5, 2),
		tuple.Ints(3, 5, 2),
	})
	it := NewSliceIterator(ts, 3)
	got := Collect(it)
	if len(got) != len(ts) {
		t.Fatalf("Collect returned %d tuples, want %d", len(got), len(ts))
	}
	for i := range ts {
		if !got[i].Equal(ts[i]) {
			t.Fatalf("tuple %d: got %v want %v", i, got[i], ts[i])
		}
	}
}

func TestSliceIteratorTrieShape(t *testing.T) {
	ts := sorted([]tuple.Tuple{
		tuple.Ints(1, 3, 4), tuple.Ints(1, 3, 5), tuple.Ints(1, 4, 6),
		tuple.Ints(1, 4, 8), tuple.Ints(1, 4, 9), tuple.Ints(1, 5, 2),
		tuple.Ints(3, 5, 2),
	})
	it := NewSliceIterator(ts, 3)
	it.Open() // level x
	if it.Key().AsInt() != 1 {
		t.Fatalf("first x = %v", it.Key())
	}
	it.Open() // level y under x=1
	var ys []int64
	for !it.AtEnd() {
		ys = append(ys, it.Key().AsInt())
		it.Next()
	}
	want := []int64{3, 4, 5}
	if len(ys) != 3 || ys[0] != want[0] || ys[1] != want[1] || ys[2] != want[2] {
		t.Fatalf("ys under x=1: %v", ys)
	}
	it.Up() // back at x=1
	it.Next()
	if it.Key().AsInt() != 3 {
		t.Fatalf("second x = %v", it.Key())
	}
	it.Open()
	if it.Key().AsInt() != 5 {
		t.Fatalf("y under x=3 = %v", it.Key())
	}
	it.Open()
	if it.Key().AsInt() != 2 || it.Depth() != 2 {
		t.Fatalf("z under (3,5) = %v depth %d", it.Key(), it.Depth())
	}
}

func TestSliceIteratorSeek(t *testing.T) {
	ts := sorted([]tuple.Tuple{
		tuple.Ints(0), tuple.Ints(1), tuple.Ints(3), tuple.Ints(4), tuple.Ints(5),
		tuple.Ints(6), tuple.Ints(7), tuple.Ints(8), tuple.Ints(9), tuple.Ints(11),
	})
	it := NewSliceIterator(ts, 1)
	it.Open()
	it.Seek(tuple.Int(2))
	if it.Key().AsInt() != 3 {
		t.Fatalf("Seek(2) = %v, want 3", it.Key())
	}
	it.Seek(tuple.Int(3)) // seek to current is a no-op
	if it.Key().AsInt() != 3 {
		t.Fatalf("Seek(3) = %v", it.Key())
	}
	it.Seek(tuple.Int(10))
	if it.Key().AsInt() != 11 {
		t.Fatalf("Seek(10) = %v, want 11", it.Key())
	}
	it.Seek(tuple.Int(12))
	if !it.AtEnd() {
		t.Fatalf("Seek(12) should reach end")
	}
}

func TestSliceIteratorEmpty(t *testing.T) {
	it := NewSliceIterator(nil, 2)
	it.Open()
	if !it.AtEnd() {
		t.Fatalf("empty relation should open at end")
	}
	it.Up()
	if it.Depth() != -1 {
		t.Fatalf("depth after Up = %d", it.Depth())
	}
}

func TestConstIterator(t *testing.T) {
	c := NewConstIterator(tuple.Int(7))
	c.Open()
	if c.AtEnd() || c.Key().AsInt() != 7 {
		t.Fatalf("const iterator broken")
	}
	c.Seek(tuple.Int(5)) // below the value: stays
	if c.AtEnd() || c.Key().AsInt() != 7 {
		t.Fatalf("Seek below should stay")
	}
	c.Seek(tuple.Int(7)) // at the value: stays
	if c.AtEnd() {
		t.Fatalf("Seek at value should stay")
	}
	c.Seek(tuple.Int(8))
	if !c.AtEnd() {
		t.Fatalf("Seek past value should end")
	}
	c.Up()
	c.Open()
	c.Next()
	if !c.AtEnd() {
		t.Fatalf("Next should exhaust the singleton")
	}
}

// TestSliceIteratorRandomizedNavigation drives random trie navigation and
// checks every visited key against a naive model.
func TestSliceIteratorRandomizedNavigation(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var ts []tuple.Tuple
	for i := 0; i < 400; i++ {
		ts = append(ts, tuple.Ints(rng.Int63n(8), rng.Int63n(8), rng.Int63n(8)))
	}
	ts = sorted(ts)
	it := NewSliceIterator(ts, 3)
	got := Collect(it)
	if len(got) != len(ts) {
		t.Fatalf("Collect size %d want %d", len(got), len(ts))
	}
	for i := range got {
		if !got[i].Equal(ts[i]) {
			t.Fatalf("mismatch at %d", i)
		}
	}
}

func TestRangeIterator(t *testing.T) {
	r := NewRangeIterator(tuple.Int(5), tuple.Int(10))
	r.Open()
	if r.AtEnd() || r.Key().AsInt() != 5 {
		t.Fatalf("open = %v", r.Key())
	}
	r.Seek(tuple.Int(7))
	if r.Key().AsInt() != 7 {
		t.Fatalf("seek = %v", r.Key())
	}
	r.Next()
	if r.Key().AsInt() != 8 {
		t.Fatalf("next = %v", r.Key())
	}
	r.Seek(tuple.Int(10))
	if !r.AtEnd() {
		t.Fatalf("seek to hi should end (half-open)")
	}
	r.Up()
	// Empty range.
	e := NewRangeIterator(tuple.Int(5), tuple.Int(5))
	e.Open()
	if !e.AtEnd() {
		t.Fatalf("empty range should open at end")
	}
}
