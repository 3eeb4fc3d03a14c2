package treap

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestIteratorWalk(t *testing.T) {
	tr := fromKeys([]int{5, 3, 8, 1, 9})
	var got []int
	for it := tr.Iterator(); !it.AtEnd(); it.Next() {
		got = append(got, it.Key())
		if it.Value() != it.Key()*10 {
			t.Fatalf("value mismatch at %d", it.Key())
		}
	}
	want := []int{1, 3, 5, 8, 9}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestIteratorEmpty(t *testing.T) {
	it := New[int, int](intOps()).Iterator()
	if !it.AtEnd() {
		t.Fatalf("iterator over empty tree should start at end")
	}
	it.Next() // must not panic
	it.Seek(5)
	if !it.AtEnd() {
		t.Fatalf("seek on empty tree should stay at end")
	}
}

func TestIteratorSeekLUB(t *testing.T) {
	tr := fromKeys([]int{10, 20, 30, 40, 50})
	cases := []struct {
		probe int
		want  int
		atEnd bool
	}{
		{5, 10, false},
		{10, 10, false},
		{11, 20, false},
		{35, 40, false},
		{50, 50, false},
		{51, 0, true},
	}
	for _, c := range cases {
		it := tr.Iterator()
		it.Seek(c.probe)
		if it.AtEnd() != c.atEnd {
			t.Fatalf("Seek(%d): atEnd=%v, want %v", c.probe, it.AtEnd(), c.atEnd)
		}
		if !c.atEnd && it.Key() != c.want {
			t.Fatalf("Seek(%d) = %d, want %d", c.probe, it.Key(), c.want)
		}
	}
}

func TestIteratorSeekForwardSequence(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	keySet := map[int]bool{}
	for i := 0; i < 500; i++ {
		keySet[rng.Intn(10000)] = true
	}
	var keys []int
	for k := range keySet {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	tr := fromKeys(keys)

	it := tr.Iterator()
	probe := 0
	for !it.AtEnd() {
		probe += rng.Intn(40) + 1
		it.Seek(probe)
		if it.AtEnd() {
			break
		}
		// Check against the model: smallest key >= probe.
		i := sort.SearchInts(keys, probe)
		if i >= len(keys) {
			t.Fatalf("iterator found %d but model says end (probe %d)", it.Key(), probe)
		}
		if it.Key() != keys[i] {
			t.Fatalf("Seek(%d) = %d, model %d", probe, it.Key(), keys[i])
		}
		probe = it.Key()
	}
}

func TestIteratorMixedNextSeek(t *testing.T) {
	keys := []int{1, 4, 6, 9, 12, 15, 22, 31}
	tr := fromKeys(keys)
	it := tr.Iterator()
	if it.Key() != 1 {
		t.Fatalf("first = %d", it.Key())
	}
	it.Next()
	if it.Key() != 4 {
		t.Fatalf("next = %d", it.Key())
	}
	it.Seek(10)
	if it.Key() != 12 {
		t.Fatalf("seek 10 = %d", it.Key())
	}
	it.Next()
	if it.Key() != 15 {
		t.Fatalf("next = %d", it.Key())
	}
	it.Seek(15) // seek to current key is a no-op
	if it.Key() != 15 {
		t.Fatalf("seek current = %d", it.Key())
	}
	it.Seek(100)
	if !it.AtEnd() {
		t.Fatalf("seek past end should end")
	}
}

func TestIteratorFirstResets(t *testing.T) {
	tr := fromKeys([]int{2, 4, 6})
	it := tr.Iterator()
	it.Seek(5)
	it.First()
	if it.AtEnd() || it.Key() != 2 {
		t.Fatalf("First did not reset")
	}
}

// TestIteratorSeekRandomMatchesSearch drives iterators through random
// mixes of First, Next, forward Seek and SeekFromRoot and checks every
// landing against sort.Search over the sorted keys.
func TestIteratorSeekRandomMatchesSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for round := 0; round < 200; round++ {
		n := rng.Intn(300)
		span := 1 + rng.Intn(4*n+1)
		keySet := map[int]bool{}
		for i := 0; i < n; i++ {
			keySet[rng.Intn(span)] = true
		}
		keys := make([]int, 0, len(keySet))
		for k := range keySet {
			keys = append(keys, k)
		}
		sort.Ints(keys)
		it := fromKeys(keys).Iterator()
		pos := 0 // index in keys of the iterator's position; len(keys) at end
		for step := 0; step < 100; step++ {
			switch op := rng.Intn(10); {
			case op == 0:
				it.First()
				pos = 0
			case op < 4:
				it.Next()
				if pos < len(keys) {
					pos++
				}
			case op == 4:
				probe := rng.Intn(span+2) - 1
				it.SeekFromRoot(probe)
				pos = sort.SearchInts(keys, probe)
			default:
				if pos == len(keys) {
					continue // Seek at the end restarts from the root
				}
				probe := keys[pos] + rng.Intn(span/4+2) - 1
				it.Seek(probe)
				if probe > keys[pos] {
					pos = sort.SearchInts(keys, probe)
				}
			}
			if it.AtEnd() != (pos == len(keys)) {
				t.Fatalf("round %d step %d: AtEnd = %v, want index %d of %d", round, step, it.AtEnd(), pos, len(keys))
			}
			if pos < len(keys) && it.Key() != keys[pos] {
				t.Fatalf("round %d step %d: key %d, want %d", round, step, it.Key(), keys[pos])
			}
		}
	}
}

// TestIteratorSeekCompares bounds the cost of ascending seeks in key
// compares: m evenly spread seeks over N keys are a finger search each,
// so together they cost O(m·(1 + log₂(N/m))), not O(m·log N) and not the
// O(m·log² N) of a search that descends every region it passes.
func TestIteratorSeekCompares(t *testing.T) {
	const n = 1 << 16
	compares := 0
	ops := intOps()
	cmp := ops.Compare
	ops.Compare = func(a, b int) int { compares++; return cmp(a, b) }
	keys := make([]int, n)
	vals := make([]int, n)
	for i := range keys {
		keys[i] = 2 * i
	}
	tr := BuildSorted(ops, keys, vals)
	for _, m := range []int{4, 64, 1024, n / 4} {
		it := tr.Iterator()
		compares = 0
		stride := n / m
		for i := 1; i <= m; i++ {
			// An odd probe matches no key: each seek lands on the next one.
			it.Seek(2*(i*stride-1) - 1)
		}
		bound := 3 * float64(m) * (1 + math.Log2(float64(n)/float64(m)))
		t.Logf("m=%d: %d compares, bound %.0f", m, compares, bound)
		if float64(compares) > bound {
			t.Errorf("m=%d ascending seeks over %d keys: %d compares, want ≤ %.0f", m, n, compares, bound)
		}
	}
}

// TestTreeSeekOneDescent: Tree.Seek costs one root-to-leaf path of
// compares, no more, wherever the probe lands; Iterator followed by Seek
// first walks down the left spine and then climbs back up it.
func TestTreeSeekOneDescent(t *testing.T) {
	const n = 1 << 16
	compares := 0
	ops := intOps()
	cmp := ops.Compare
	ops.Compare = func(a, b int) int { compares++; return cmp(a, b) }
	keys := make([]int, n)
	vals := make([]int, n)
	for i := range keys {
		keys[i] = 2 * i
	}
	tr := BuildSorted(ops, keys, vals)
	height := func(probe int) int { // nodes on the search path of probe
		d := 0
		for nd := tr.root; nd != nil; d++ {
			if cmp(nd.key, probe) >= 0 {
				nd = nd.left
			} else {
				nd = nd.right
			}
		}
		return d
	}
	for _, probe := range []int{-1, 0, 1, 777, n - 1, n, 2*n - 2, 2*n - 1, 2 * n} {
		compares = 0
		it := tr.Seek(probe)
		want := sort.SearchInts(keys, probe)
		switch {
		case want == n && !it.AtEnd():
			t.Fatalf("Seek(%d) = %d, want the end", probe, it.Key())
		case want < n && (it.AtEnd() || it.Key() != keys[want]):
			t.Fatalf("Seek(%d): atEnd=%v, want %d", probe, it.AtEnd(), keys[want])
		}
		if h := height(probe); compares > h {
			t.Errorf("Seek(%d): %d compares, the search path holds %d nodes", probe, compares, h)
		}
	}
}
