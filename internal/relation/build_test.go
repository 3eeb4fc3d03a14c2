package relation

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"logicblox/internal/tuple"
)

// insertLoop is FromTuples' definition: an empty relation and one Insert
// per tuple.
func insertLoop(arity int, ts []tuple.Tuple) Relation {
	r := New(arity)
	for _, t := range ts {
		r = r.Insert(t)
	}
	return r
}

// sameAsLoop fails t unless got equals want in content, structural hash,
// size and Slice order.
func sameAsLoop(t *testing.T, what string, got, want Relation) {
	t.Helper()
	if !got.Equal(want) || got.StructuralHash() != want.StructuralHash() || got.Len() != want.Len() {
		t.Fatalf("%s = %v (hash %x), the insert loop's %v (hash %x)", what, got.Slice(), got.StructuralHash(), want.Slice(), want.StructuralHash())
	}
	gs, ws := got.Slice(), want.Slice()
	for i := range gs {
		if !gs[i].Equal(ws[i]) {
			t.Fatalf("%s: Slice()[%d] = %v, want %v", what, i, gs[i], ws[i])
		}
	}
}

// FuzzBuildMatchesInsert checks every bulk constructor against its
// insert-loop definition on tuples of mixed kinds, in any order and with
// duplicates: FromTuples (unsorted input and its own sorted output),
// Permuted (any column selection) and Sample. FromTuples must
// leave the caller's slice as it was.
func FuzzBuildMatchesInsert(f *testing.F) {
	f.Add(uint8(1), uint8(0), []byte{0, 1, 1, 2, 0, 1, 1, 2})             // 1, 1.0, 1, 1.0
	f.Add(uint8(2), uint8(7), []byte{2, 3, 0, 5, 2, 3, 0, 4, 1, 9, 3, 1}) // strings, bools
	f.Add(uint8(3), uint8(2), []byte{0, 9, 0, 8, 0, 7, 0, 6, 0, 5, 0, 4, 0, 3, 0, 2, 0, 1})
	f.Add(uint8(0), uint8(0), []byte{})
	f.Add(uint8(0), uint8(0), []byte{1, 8, 1, 3, 1, 17, 1, 3})              // -0.0, 0.0, -0.0, 0.0
	f.Add(uint8(0), uint8(0), []byte{1, 2, 1, 10, 1, 7, 1, 4, 1, 16, 1, 6}) // -0.5 twice, NaN, 0.5, NaN of another payload, 1.5
	// value maps two bytes to an int, a float, a string or a bool from
	// small domains, so tuples repeat, 1 meets 1.0, -0.0 meets 0.0 and one
	// NaN payload meets another (they compare equal and hash alike; a NaN
	// orders above every other float).
	value := func(kind, b byte) tuple.Value {
		switch kind % 4 {
		case 0:
			return tuple.Int(int64(b%8) - 3)
		case 1:
			switch b % 9 {
			case 8:
				return tuple.Float(math.Copysign(0, -1))
			case 7:
				return tuple.Float(math.Float64frombits(0x7ff8_0000_0000_0000 | uint64(b)))
			}
			return tuple.Float(float64(int(b%8)-3) / 2)
		case 2:
			return tuple.String(string(rune('a' + b%3)))
		}
		return tuple.Bool(b&1 == 1)
	}
	f.Fuzz(func(t *testing.T, arity, sel uint8, data []byte) {
		n := int(arity%3) + 1
		data = data[:min(len(data), 2*n*48)]
		var ts []tuple.Tuple
		for ; len(data) >= 2*n; data = data[2*n:] {
			tp := make(tuple.Tuple, n)
			for i := range tp {
				tp[i] = value(data[2*i], data[2*i+1])
			}
			ts = append(ts, tp)
		}
		before := make([]tuple.Tuple, len(ts))
		for i, tp := range ts {
			before[i] = tp.Clone()
		}

		want := insertLoop(n, ts)
		got := FromTuples(n, ts)
		sameAsLoop(t, "FromTuples", got, want)
		for i := range ts {
			if len(ts[i]) != len(before[i]) || !ts[i].Equal(before[i]) {
				t.Fatalf("FromTuples changed its input: [%d] = %v, was %v", i, ts[i], before[i])
			}
		}
		sameAsLoop(t, "FromTuples of sorted", FromTuples(n, want.Slice()), want)

		// Any selection of columns, repeats allowed, one to n+1 wide.
		perm := make([]int, int(sel)%(n+1)+1)
		for i := range perm {
			perm[i] = (int(sel)/(i+1) + i) % n
		}
		permLoop := New(len(perm))
		want.ForEach(func(tp tuple.Tuple) bool { permLoop = permLoop.Insert(tp.Permute(perm)); return true })
		sameAsLoop(t, fmt.Sprintf("Permuted(%v)", perm), got.Permuted(perm), permLoop)

		m := int(sel)%5 + 1
		var sampled []tuple.Tuple
		if stride := (want.Len() + m - 1) / m; want.Len() > m {
			for i, tp := range want.Slice() {
				if i%stride == 0 {
					sampled = append(sampled, tp)
				}
			}
		} else {
			sampled = want.Slice()
		}
		sameAsLoop(t, fmt.Sprintf("Sample(%d)", m), got.Sample(m), insertLoop(n, sampled))
	})
}

// TestFromTuplesOneNodePerTuple bounds the work of a bulk build: it makes
// one treap node per distinct prefix, at every level, that is not stored
// as a single tuple — exactly trieNodes of its tuples, each level built in
// one pass (an insert loop copies a root-to-leaf path per tuple and
// level). Here that is 50 products, 500 product–store pairs and 5 000
// product–store–week keys over 5 000 tuples, whose last column is never
// a level of its own. The storage counters are process-wide, so this test
// must not run in parallel.
func TestFromTuplesOneNodePerTuple(t *testing.T) {
	ts := fourColumnTuples(5000)
	EnableStorageStats(true)
	defer EnableStorageStats(false)
	ResetStorageStats()
	r := FromTuples(4, ts)
	want := trieNodes(ts)
	if got := ReadStorageStats().NodesAllocated; got != int64(want) || r.Len() != len(ts) || want != 5550 {
		t.Fatalf("FromTuples of %d sorted tuples: %d tuples, %d nodes; want %d tuples and %d (= 5550) nodes", len(ts), r.Len(), got, len(ts), want)
	}
}

// trieNodes counts the treap nodes of a relation of the strictly
// ascending tuples ts: a distinct prefix of d+1 columns is a key of level
// d unless the group of its first d columns holds one tuple, which is
// stored as that tuple. Tuples sharing a prefix are adjacent.
func trieNodes(ts []tuple.Tuple) int {
	n := 0
	for i, tp := range ts {
		for d := range tp {
			shared := func(j int) bool { return j >= 0 && j < len(ts) && ts[j][:d].Equal(tp[:d]) }
			if i > 0 && ts[i-1][:d+1].Equal(tp[:d+1]) || !shared(i-1) && !shared(i+1) {
				continue // not the first of its prefix, or its group holds only tp
			}
			n++
		}
	}
	return n
}

// fourColumnTuples returns n distinct sorted tuples shaped like the retail
// sales facts (product, store, week, units).
func fourColumnTuples(n int) []tuple.Tuple {
	ts := make([]tuple.Tuple, n)
	for i := range ts {
		ts[i] = tuple.Ints(int64(i/100), int64(i/10%10), int64(i%10), int64(i%97))
	}
	return ts
}

// BenchmarkBuild times the bulk constructors on four-column tuples:
// FromTuples from sorted and from shuffled input, and Permuted to a
// week-first secondary index.
func BenchmarkBuild(b *testing.B) {
	for _, n := range []int{20_000, 50_000} {
		sorted := fourColumnTuples(n)
		shuffled := append([]tuple.Tuple(nil), sorted...)
		rand.New(rand.NewSource(1)).Shuffle(n, func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		rel := FromTuples(4, sorted)
		for _, c := range []struct {
			name  string
			build func() Relation
		}{
			{"FromTuples/sorted", func() Relation { return FromTuples(4, sorted) }},
			{"FromTuples/shuffled", func() Relation { return FromTuples(4, shuffled) }},
			{"Permuted", func() Relation { return rel.Permuted([]int{2, 0, 1, 3}) }},
		} {
			b.Run(fmt.Sprintf("%s/%dk", c.name, n/1000), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if r := c.build(); r.Len() != n {
						b.Fatalf("built %d tuples, want %d", r.Len(), n)
					}
				}
			})
		}
	}
}

// BenchmarkScan drains a Cursor over 50k four-column tuples shaped like
// the retail sales facts, the read a one-atom query streams.
func BenchmarkScan(b *testing.B) {
	r := FromTuples(4, fourColumnTuples(50_000))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		c := r.Cursor()
		for _, ok := c.Next(); ok; _, ok = c.Next() {
			n++
		}
		if n != r.Len() {
			b.Fatalf("scanned %d tuples of %d", n, r.Len())
		}
	}
}

// BenchmarkRetained reports the heap a relation of 50k four-column tuples
// holds, per tuple, counting its tuples' values and its treap nodes.
func BenchmarkRetained(b *testing.B) {
	var ms runtime.MemStats
	var r Relation
	for i := 0; i < b.N; i++ {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		before := ms.HeapAlloc
		r = FromTuples(4, fourColumnTuples(50_000))
		runtime.GC()
		runtime.ReadMemStats(&ms)
		b.ReportMetric(float64(ms.HeapAlloc-before)/float64(r.Len()), "B/tuple")
	}
	runtime.KeepAlive(r)
}
