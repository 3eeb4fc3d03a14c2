package relation

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"logicblox/internal/tuple"
)

func TestInsertContainsDelete(t *testing.T) {
	r := New(2)
	r1 := r.Insert(tuple.Ints(1, 2)).Insert(tuple.Ints(3, 4))
	if r1.Len() != 2 || !r1.Contains(tuple.Ints(1, 2)) {
		t.Fatalf("insert failed")
	}
	if r.Len() != 0 {
		t.Fatalf("persistence violated")
	}
	r2 := r1.Delete(tuple.Ints(1, 2))
	if r2.Contains(tuple.Ints(1, 2)) || !r1.Contains(tuple.Ints(1, 2)) {
		t.Fatalf("delete failed")
	}
	// Set semantics: re-inserting is a no-op for contents.
	r3 := r1.Insert(tuple.Ints(1, 2))
	if r3.Len() != 2 || !r1.Equal(r3) {
		t.Fatalf("duplicate insert changed relation")
	}
}

func TestArityMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2).Insert(tuple.Ints(1))
}

func TestSetOpsAndEquality(t *testing.T) {
	a := FromTuples(1, []tuple.Tuple{tuple.Ints(1), tuple.Ints(2), tuple.Ints(3)})
	b := FromTuples(1, []tuple.Tuple{tuple.Ints(2), tuple.Ints(3), tuple.Ints(4)})
	if got := a.Union(b).Len(); got != 4 {
		t.Fatalf("union len = %d", got)
	}
	if got := a.Intersect(b).Len(); got != 2 {
		t.Fatalf("intersect len = %d", got)
	}
	d := a.Difference(b)
	if d.Len() != 1 || !d.Contains(tuple.Ints(1)) {
		t.Fatalf("difference wrong")
	}
	if !a.Equal(FromTuples(1, []tuple.Tuple{tuple.Ints(3), tuple.Ints(1), tuple.Ints(2)})) {
		t.Fatalf("order-insensitive equality failed")
	}
	if a.StructuralHash() == b.StructuralHash() {
		t.Fatalf("different relations with same hash (unexpected collision)")
	}
}

// TestEqualIgnoresZeroSign: -0.0 and 0.0 compare equal, so relations that
// differ only in a zero's sign are equal, hash alike and diff to nothing,
// whether alone or among other tuples.
func TestEqualIgnoresZeroSign(t *testing.T) {
	neg, pos := tuple.Float(math.Copysign(0, -1)), tuple.Float(0)
	for _, rest := range [][]tuple.Tuple{nil, {tuple.Of(tuple.Float(-1)), tuple.Of(tuple.Float(2))}} {
		a := FromTuples(1, append([]tuple.Tuple{tuple.Of(neg)}, rest...))
		b := FromTuples(1, append([]tuple.Tuple{tuple.Of(pos)}, rest...))
		if !a.Equal(b) || !b.Equal(a) {
			t.Errorf("%v and %v: Equal = false", a.Slice(), b.Slice())
		}
		if a.StructuralHash() != b.StructuralHash() {
			t.Errorf("%v and %v: structural hashes %x and %x", a.Slice(), b.Slice(), a.StructuralHash(), b.StructuralHash())
		}
		changes := 0
		a.Diff(b, func(tuple.Tuple) { changes++ }, func(tuple.Tuple) { changes++ })
		if changes != 0 {
			t.Errorf("%v and %v: Diff enumerates %d changes", a.Slice(), b.Slice(), changes)
		}
	}
}

// TestNaNTotalOrder: a NaN orders above every float and equal to every
// NaN, whatever its payload, so a relation holds it as one tuple of its
// own — built in bulk or by inserts — and Equal, StructuralHash and Diff
// agree about it.
func TestNaNTotalOrder(t *testing.T) {
	nan, other := tuple.Float(math.NaN()), tuple.Float(math.Float64frombits(0x7ff8_0000_0000_0abc))
	if !math.IsNaN(other.AsFloat()) {
		t.Fatal("the second payload is not a NaN")
	}
	ts := []tuple.Tuple{tuple.Of(tuple.Float(1)), tuple.Of(nan), tuple.Of(tuple.Float(2))}
	bulk := FromTuples(1, ts)
	loop := New(1)
	for _, tp := range ts {
		loop = loop.Insert(tp)
	}
	for _, r := range []Relation{bulk, loop} {
		if got := r.Slice(); len(got) != 3 || !got[2].Equal(tuple.Of(nan)) {
			t.Fatalf("relation of (1.0), (NaN), (2.0) = %v, want [(1) (2) (NaN)]", got)
		}
	}
	if !bulk.Equal(loop) || bulk.StructuralHash() != loop.StructuralHash() {
		t.Errorf("bulk %v and insert loop %v disagree", bulk.Slice(), loop.Slice())
	}
	// Two payloads are one tuple: inserting the other NaN adds nothing, and
	// a relation built with it is equal, hashes alike and diffs empty.
	if got := bulk.Insert(tuple.Of(other)); got.Len() != 3 {
		t.Errorf("inserting a NaN of another payload: %v", got.Slice())
	}
	alt := FromTuples(1, []tuple.Tuple{tuple.Of(tuple.Float(2)), tuple.Of(other), tuple.Of(tuple.Float(1))})
	if !alt.Equal(bulk) || alt.StructuralHash() != bulk.StructuralHash() {
		t.Errorf("%v and %v: Equal = %v, hashes %x and %x", alt.Slice(), bulk.Slice(), alt.Equal(bulk), alt.StructuralHash(), bulk.StructuralHash())
	}
	changes := 0
	alt.Diff(bulk, func(tuple.Tuple) { changes++ }, func(tuple.Tuple) { changes++ })
	if changes != 0 {
		t.Errorf("Diff across NaN payloads enumerates %d changes", changes)
	}
	var dels, inss []tuple.Tuple
	bulk.Diff(bulk.Delete(tuple.Of(other)), func(x tuple.Tuple) { dels = append(dels, x) }, func(x tuple.Tuple) { inss = append(inss, x) })
	if len(dels) != 1 || len(inss) != 0 || !math.IsNaN(dels[0][0].AsFloat()) {
		t.Errorf("deleting the NaN: Diff dels %v, ins %v", dels, inss)
	}
}

func TestDiffEnumeratesChanges(t *testing.T) {
	old := FromTuples(2, []tuple.Tuple{tuple.Ints(1, 1), tuple.Ints(2, 2), tuple.Ints(3, 3)})
	upd := old.Delete(tuple.Ints(2, 2)).Insert(tuple.Ints(4, 4))
	var dels, inss []tuple.Tuple
	old.Diff(upd, func(x tuple.Tuple) { dels = append(dels, x) }, func(x tuple.Tuple) { inss = append(inss, x) })
	if len(dels) != 1 || !dels[0].Equal(tuple.Ints(2, 2)) {
		t.Fatalf("dels = %v", dels)
	}
	if len(inss) != 1 || !inss[0].Equal(tuple.Ints(4, 4)) {
		t.Fatalf("inss = %v", inss)
	}
}

func TestPermuted(t *testing.T) {
	r := FromTuples(3, []tuple.Tuple{tuple.Ints(1, 2, 3), tuple.Ints(4, 5, 6)})
	p := r.Permuted([]int{2, 1, 0})
	if !p.Contains(tuple.Ints(3, 2, 1)) || !p.Contains(tuple.Ints(6, 5, 4)) {
		t.Fatalf("permute wrong: %v", p.Slice())
	}
}

func TestLookupAndFuncGet(t *testing.T) {
	r := FromTuples(2, []tuple.Tuple{
		tuple.Of(tuple.String("a"), tuple.Int(1)),
		tuple.Of(tuple.String("b"), tuple.Int(2)),
		tuple.Of(tuple.String("b"), tuple.Int(3)),
		tuple.Of(tuple.String("c"), tuple.Int(4)),
	})
	got := r.Lookup(tuple.Strings("b"))
	if len(got) != 2 || got[0][1].AsInt() != 2 || got[1][1].AsInt() != 3 {
		t.Fatalf("Lookup = %v", got)
	}
	if v, ok := r.FuncGet(tuple.Strings("c")); !ok || v.AsInt() != 4 {
		t.Fatalf("FuncGet = %v,%v", v, ok)
	}
	if _, ok := r.FuncGet(tuple.Strings("zzz")); ok {
		t.Fatalf("FuncGet should miss")
	}
	if got := r.Lookup(tuple.Strings("zz")); len(got) != 0 {
		t.Fatalf("Lookup miss = %v", got)
	}
}

func TestForEachOrderAndEarlyStop(t *testing.T) {
	r := FromTuples(1, []tuple.Tuple{tuple.Ints(3), tuple.Ints(1), tuple.Ints(2)})
	var seen []int64
	r.ForEach(func(t tuple.Tuple) bool {
		seen = append(seen, t[0].AsInt())
		return len(seen) < 2
	})
	if len(seen) != 2 || seen[0] != 1 || seen[1] != 2 {
		t.Fatalf("ForEach = %v", seen)
	}
}

func TestBranchSharingEquality(t *testing.T) {
	// A branch (copy of the Relation value) shares all structure; diffing
	// the branch against the original reports nothing.
	base := New(2)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 1000; i++ {
		base = base.Insert(tuple.Ints(rng.Int63n(500), rng.Int63n(500)))
	}
	branch := base // O(1) branch
	if !base.Equal(branch) {
		t.Fatalf("branch not equal")
	}
	count := 0
	base.Diff(branch, func(tuple.Tuple) { count++ }, func(tuple.Tuple) { count++ })
	if count != 0 {
		t.Fatalf("diff of identical versions reported %d changes", count)
	}
	mod := branch.Insert(tuple.Ints(9999, 9999))
	if base.Equal(mod) {
		t.Fatalf("modified branch equal to base")
	}
}

func TestRelationModelProperty(t *testing.T) {
	// Relation behaves like a model set of 2-tuples.
	f := func(pairs [][2]int8, probe [2]int8) bool {
		r := New(2)
		model := map[[2]int8]bool{}
		for _, p := range pairs {
			r = r.Insert(tuple.Ints(int64(p[0]), int64(p[1])))
			model[p] = true
		}
		if r.Len() != len(model) {
			return false
		}
		return r.Contains(tuple.Ints(int64(probe[0]), int64(probe[1]))) == model[probe]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestEqualSeesChildren: relations whose top levels hold the same keys but
// differ below are unequal, hash apart, and diff to exactly the tuples
// that differ — Equal and Diff look into every key's group. After one
// insert into a large relation, Diff touches O(levels · log n) nodes: it
// prunes the subtrees the versions share at every level.
func TestEqualSeesChildren(t *testing.T) {
	base := []tuple.Tuple{tuple.Ints(1, 1, 1), tuple.Ints(1, 2, 1), tuple.Ints(2, 1, 1), tuple.Ints(2, 2, 2)}
	for _, c := range []struct {
		name     string
		del, ins tuple.Tuple
	}{
		{"last column", tuple.Ints(2, 2, 2), tuple.Ints(2, 2, 3)},
		{"middle column", tuple.Ints(1, 2, 1), tuple.Ints(1, 3, 1)},
		{"single tuple below", tuple.Ints(2, 1, 1), tuple.Ints(2, 1, 5)},
	} {
		a := FromTuples(3, base)
		b := a.Delete(c.del).Insert(c.ins)
		if a.Equal(b) || b.Equal(a) || a.StructuralHash() == b.StructuralHash() {
			t.Errorf("%s: %v and %v: Equal %v, hashes %x and %x", c.name, a.Slice(), b.Slice(), a.Equal(b), a.StructuralHash(), b.StructuralHash())
		}
		var dels, inss []tuple.Tuple
		a.Diff(b, func(x tuple.Tuple) { dels = append(dels, x) }, func(x tuple.Tuple) { inss = append(inss, x) })
		if len(dels) != 1 || !dels[0].Equal(c.del) || len(inss) != 1 || !inss[0].Equal(c.ins) {
			t.Errorf("%s: Diff deletes %v and inserts %v, want %v and %v", c.name, dels, inss, c.del, c.ins)
		}
	}

	var ts []tuple.Tuple
	for i := int64(0); i < 1<<15; i++ {
		ts = append(ts, tuple.Ints(i%256, i/256%16, i/4096))
	}
	big := FromTuples(3, ts)
	grown := big.Insert(tuple.Ints(77, 3, 100))
	EnableStorageStats(true)
	defer EnableStorageStats(false)
	ResetStorageStats()
	changes := 0
	big.Diff(grown, func(tuple.Tuple) { changes++ }, func(tuple.Tuple) { changes++ })
	st := ReadStorageStats()
	visited := st.NodesAllocated + st.SharedSubtrees
	bound := int64(4 * 3 * 15) // 4 · levels · log₂ n
	t.Logf("Diff after one insert into %d tuples: %d nodes copied, %d shared subtrees pruned", len(ts), st.NodesAllocated, st.SharedSubtrees)
	if changes != 1 || st.SharedSubtrees == 0 || visited > bound {
		t.Fatalf("Diff after one insert: %d changes, %d nodes copied, %d subtrees pruned; want 1 change and at most %d nodes", changes, st.NodesAllocated, st.SharedSubtrees, bound)
	}
}

// TestNullaryRelation: a relation of no columns holds the empty tuple or
// nothing, however the tuple is written.
func TestNullaryRelation(t *testing.T) {
	empty := New(0)
	if empty.Contains(nil) || !empty.Delete(nil).IsEmpty() || empty.MatchExists(nil, nil) {
		t.Fatal("the empty nullary relation holds the empty tuple")
	}
	for _, r := range []Relation{empty.Insert(nil), empty.Insert(tuple.Tuple{}), FromTuples(0, []tuple.Tuple{nil, {}})} {
		if r.Len() != 1 || !r.Contains(tuple.Tuple{}) || !r.MatchExists(nil, nil) || !r.Equal(empty.Insert(nil)) {
			t.Fatalf("a nullary relation of the empty tuple: Len %d, Contains %v", r.Len(), r.Contains(nil))
		}
		if got := r.Slice(); len(got) != 1 || len(got[0]) != 0 {
			t.Fatalf("Slice = %v", got)
		}
		if !r.Delete(nil).IsEmpty() {
			t.Fatal("deleting the empty tuple leaves it")
		}
	}
}
