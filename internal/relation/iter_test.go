package relation

import (
	"math/rand"
	"testing"

	"logicblox/internal/trie"
	"logicblox/internal/tuple"
)

func figure4Relation() Relation {
	return FromTuples(3, []tuple.Tuple{
		tuple.Ints(1, 3, 4), tuple.Ints(1, 3, 5), tuple.Ints(1, 4, 6),
		tuple.Ints(1, 4, 8), tuple.Ints(1, 4, 9), tuple.Ints(1, 5, 2),
		tuple.Ints(3, 5, 2),
	})
}

func TestTrieIterCollect(t *testing.T) {
	r := figure4Relation()
	got := trie.Collect(r.Iterator())
	want := r.Slice()
	if len(got) != len(want) {
		t.Fatalf("Collect %d tuples, want %d", len(got), len(want))
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Fatalf("tuple %d: %v vs %v", i, got[i], want[i])
		}
	}
}

func TestTrieIterNavigation(t *testing.T) {
	it := figure4Relation().Iterator()
	it.Open()
	if it.Key().AsInt() != 1 {
		t.Fatalf("x = %v", it.Key())
	}
	it.Open()
	if it.Key().AsInt() != 3 {
		t.Fatalf("y = %v", it.Key())
	}
	it.Seek(tuple.Int(4))
	if it.Key().AsInt() != 4 {
		t.Fatalf("seek y=4 got %v", it.Key())
	}
	it.Open()
	var zs []int64
	for !it.AtEnd() {
		zs = append(zs, it.Key().AsInt())
		it.Next()
	}
	if len(zs) != 3 || zs[0] != 6 || zs[1] != 8 || zs[2] != 9 {
		t.Fatalf("zs = %v", zs)
	}
	it.Up() // back to y=4
	if it.Depth() != 1 {
		t.Fatalf("depth = %d", it.Depth())
	}
	it.Next() // y=5
	if it.Key().AsInt() != 5 {
		t.Fatalf("y after up/next = %v", it.Key())
	}
	it.Next()
	if !it.AtEnd() {
		t.Fatalf("y level should be exhausted")
	}
	it.Up() // x=1
	it.Next()
	if it.Key().AsInt() != 3 {
		t.Fatalf("x after exhausting x=1 = %v", it.Key())
	}
}

func TestTrieIterReopenAfterUp(t *testing.T) {
	// Open, descend fully, come back up and re-Open the same key (the
	// "stale iterator" path).
	it := figure4Relation().Iterator()
	it.Open() // x=1
	it.Open() // y=3
	it.Open() // z=4
	it.Next() // z=5
	it.Next() // end of z level
	if !it.AtEnd() {
		t.Fatalf("expected z exhausted")
	}
	it.Up() // y=3
	if it.Key().AsInt() != 3 {
		t.Fatalf("y after up = %v", it.Key())
	}
	it.Open() // re-open z under (1,3): must restart at z=4
	if it.Key().AsInt() != 4 {
		t.Fatalf("re-open z = %v", it.Key())
	}
}

func TestTrieIterSeekOnUnary(t *testing.T) {
	r := FromTuples(1, []tuple.Tuple{
		tuple.Ints(0), tuple.Ints(2), tuple.Ints(6), tuple.Ints(7), tuple.Ints(8), tuple.Ints(9),
	})
	it := r.Iterator()
	it.Open()
	it.Seek(tuple.Int(3))
	if it.Key().AsInt() != 6 {
		t.Fatalf("Seek(3) = %v", it.Key())
	}
	it.Seek(tuple.Int(6))
	if it.Key().AsInt() != 6 {
		t.Fatalf("Seek to current moved: %v", it.Key())
	}
	it.Seek(tuple.Int(10))
	if !it.AtEnd() {
		t.Fatalf("Seek past max should end")
	}
	it.Seek(tuple.Int(11)) // seek at end is a no-op
	if !it.AtEnd() {
		t.Fatalf("still at end")
	}
}

func TestTrieIterEmptyRelation(t *testing.T) {
	it := New(2).Iterator()
	it.Open()
	if !it.AtEnd() {
		t.Fatalf("empty open should be at end")
	}
	it.Up()
	if it.Depth() != -1 {
		t.Fatalf("depth = %d", it.Depth())
	}
}

// TestTrieIterMatchesReference drives identical random navigation scripts
// against the treap-backed iterator and the slice-based reference
// implementation, requiring identical observations.
func TestTrieIterMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 30; trial++ {
		var ts []tuple.Tuple
		n := rng.Intn(300) + 1
		for i := 0; i < n; i++ {
			ts = append(ts, tuple.Ints(rng.Int63n(6), rng.Int63n(6), rng.Int63n(6)))
		}
		tuple.SortTuples(ts)
		ts = tuple.DedupSorted(ts)
		r := FromTuples(3, ts)
		a := r.Iterator()
		b := trie.Iterator(trie.NewSliceIterator(ts, 3))

		check := func(step string) {
			t.Helper()
			if a.AtEnd() != b.AtEnd() {
				t.Fatalf("trial %d %s: AtEnd %v vs %v", trial, step, a.AtEnd(), b.AtEnd())
			}
			if a.Depth() != b.Depth() {
				t.Fatalf("trial %d %s: Depth %d vs %d", trial, step, a.Depth(), b.Depth())
			}
			if !a.AtEnd() && a.Depth() >= 0 {
				if !tuple.Equal(a.Key(), b.Key()) {
					t.Fatalf("trial %d %s: Key %v vs %v", trial, step, a.Key(), b.Key())
				}
			}
		}

		a.Open()
		b.Open()
		check("open-root")
		for step := 0; step < 200; step++ {
			switch op := rng.Intn(4); {
			case op == 0 && !a.AtEnd() && a.Depth() < a.Arity()-1:
				a.Open()
				b.Open()
				check("open")
			case op == 1 && a.Depth() > 0:
				a.Up()
				b.Up()
				check("up")
			case op == 2 && !a.AtEnd():
				a.Next()
				b.Next()
				check("next")
			case op == 3 && !a.AtEnd():
				probe := tuple.Int(a.Key().AsInt() + rng.Int63n(3))
				a.Seek(probe)
				b.Seek(probe)
				check("seek")
			}
		}
	}
}

// FuzzTrieIterMatchesSlice applies one navigation script to the
// treap-backed iterator and to the slice reference over the same tuples,
// which must agree on Depth, AtEnd and Key after every step. Each script
// byte is one step: its low two bits pick Open, Up, Next or Seek (a step
// illegal at the current position is skipped), the rest a Seek's distance
// past the current key. Unlike TestTrieIterMatchesReference, Up may climb
// to the root and Open re-descend from there.
func FuzzTrieIterMatchesSlice(f *testing.F) {
	const (
		open = 0
		up   = 1
		next = 2
		seek = 3
	)
	fig4 := []byte{1, 3, 4, 1, 3, 5, 1, 4, 6, 1, 4, 8, 1, 4, 9, 1, 5, 2, 3, 5, 2}
	// The triangle's third atom edge(a, c): each b under one a re-opens
	// the c level, Up→Open→Up→Open without moving at the a level.
	f.Add(uint8(3), fig4, []byte{open, open, open, next, up, open, seek | 1<<2, up, open, up, up, next, open, open, up, open})
	f.Add(uint8(2), []byte{0, 1, 0, 2, 0, 3, 1, 2, 2, 0, 2, 3}, []byte{open, open, up, open, next, up, open, up, up, open, open, seek | 2<<2, up, open})
	f.Add(uint8(3), fig4, []byte{open, open, open, up, up, up, open, open, up, next, open, seek | 3<<2, next, next, up, open})
	f.Add(uint8(1), []byte{0, 2, 6, 7, 8, 9}, []byte{open, seek | 3<<2, seek, seek | 4<<2, seek | 1<<2, up, open, next})
	f.Fuzz(func(t *testing.T, arity uint8, data, script []byte) {
		n := int(arity%3) + 1
		data = data[:min(len(data), n*64)]
		var ts []tuple.Tuple
		for ; len(data) >= n; data = data[n:] {
			tp := make(tuple.Tuple, n)
			for i := range tp {
				tp[i] = tuple.Int(int64(data[i] % 6))
			}
			ts = append(ts, tp)
		}
		tuple.SortTuples(ts)
		ts = tuple.DedupSorted(ts)
		a := FromTuples(n, ts).Iterator()
		b := trie.Iterator(trie.NewSliceIterator(ts, n))
		for step, c := range script[:min(len(script), 512)] {
			onKey := a.Depth() >= 0 && !a.AtEnd()
			switch c & 3 {
			case open:
				if a.Depth()+1 >= n || (a.Depth() >= 0 && a.AtEnd()) {
					continue
				}
				a.Open()
				b.Open()
			case up:
				if a.Depth() < 0 {
					continue
				}
				a.Up()
				b.Up()
			case next:
				if a.Depth() < 0 {
					continue
				}
				a.Next()
				b.Next()
			case seek:
				if a.Depth() < 0 {
					continue
				}
				probe := tuple.Int(int64(c >> 2))
				if onKey {
					probe = tuple.Int(a.Key().AsInt() + int64(c>>2))
				}
				a.Seek(probe)
				b.Seek(probe)
			}
			if a.Depth() != b.Depth() || a.AtEnd() != b.AtEnd() {
				t.Fatalf("step %d (%d): depth %d, at end %v; reference depth %d, at end %v",
					step, c&3, a.Depth(), a.AtEnd(), b.Depth(), b.AtEnd())
			}
			if a.Depth() >= 0 && !a.AtEnd() && !tuple.Equal(a.Key(), b.Key()) {
				t.Fatalf("step %d (%d): key %v, reference %v", step, c&3, a.Key(), b.Key())
			}
		}
	})
}
