package treap

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func intOps() *Ops[int, int] { return intKeyOps[int]() }

// intKeyOps orders and hashes int keys for a tree of V values.
func intKeyOps[V any]() *Ops[int, V] {
	return &Ops[int, V]{
		Compare: func(a, b int) int { return a - b },
		Hash: func(k int) uint64 {
			h := uint64(k) * 0x9e3779b97f4a7c15
			h ^= h >> 32
			h *= 0xbf58476d1ce4e5b9
			h ^= h >> 29
			return h
		},
	}
}

func fromKeys(keys []int) Tree[int, int] {
	t := New[int, int](intOps())
	for _, k := range keys {
		t = t.Insert(k, k*10)
	}
	return t
}

func keysOf(t Tree[int, int]) []int { return t.Keys() }

func TestInsertGetDelete(t *testing.T) {
	tr := New(intKeyOps[string]())
	tr = tr.Insert(3, "three").Insert(1, "one").Insert(2, "two")
	if tr.Len() != 3 {
		t.Fatalf("Len = %d, want 3", tr.Len())
	}
	if v, ok := tr.Get(2); !ok || v != "two" {
		t.Fatalf("Get(2) = %q,%v", v, ok)
	}
	if _, ok := tr.Get(9); ok {
		t.Fatalf("Get(9) should miss")
	}
	tr2 := tr.Delete(2)
	if tr2.Len() != 2 || tr2.Contains(2) {
		t.Fatalf("Delete failed")
	}
	if !tr.Contains(2) {
		t.Fatalf("Delete mutated the original (persistence violated)")
	}
	// Deleting an absent key returns the identical tree.
	tr3 := tr.Delete(42)
	if !tr.Equal(tr3) {
		t.Fatalf("Delete of absent key changed tree")
	}
}

func TestInsertReplacesValue(t *testing.T) {
	tr := New[int, int](intOps()).Insert(1, 10).Insert(1, 20)
	if tr.Len() != 1 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if v, _ := tr.Get(1); v != 20 {
		t.Fatalf("Get = %d, want 20", v)
	}
}

func TestUniqueRepresentation(t *testing.T) {
	// Insert the same key set in many different orders; the resulting
	// structural hashes (and shapes) must be identical.
	keys := []int{5, 1, 9, 3, 7, 2, 8, 4, 6, 0}
	base := fromKeys(keys)
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		shuffled := append([]int(nil), keys...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		other := fromKeys(shuffled)
		if base.StructuralHash() != other.StructuralHash() {
			t.Fatalf("different insertion order produced different structure (trial %d)", trial)
		}
		if !base.Equal(other) {
			t.Fatalf("Equal failed for same contents (trial %d)", trial)
		}
	}
	// Build via deletion too: insert extra keys then remove them.
	extra := fromKeys(append([]int{100, 101, 102}, keys...))
	for _, k := range []int{100, 101, 102} {
		extra = extra.Delete(k)
	}
	if base.StructuralHash() != extra.StructuralHash() || !base.Equal(extra) {
		t.Fatalf("insert+delete path broke unique representation")
	}
}

func TestAscendOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var keys []int
	seen := map[int]bool{}
	for i := 0; i < 300; i++ {
		k := rng.Intn(1000)
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	tr := fromKeys(keys)
	got := keysOf(tr)
	want := append([]int(nil), keys...)
	sort.Ints(want)
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("order mismatch at %d: %d vs %d", i, got[i], want[i])
		}
	}
}

func TestAscendEarlyStop(t *testing.T) {
	tr := fromKeys([]int{1, 2, 3, 4, 5})
	var visited []int
	tr.Ascend(func(k, _ int) bool {
		visited = append(visited, k)
		return k < 3
	})
	if len(visited) != 3 || visited[2] != 3 {
		t.Fatalf("early stop visited %v", visited)
	}
}

func TestMinMaxAt(t *testing.T) {
	tr := fromKeys([]int{4, 2, 8, 6})
	if k, _, ok := tr.Min(); !ok || k != 2 {
		t.Fatalf("Min = %d,%v", k, ok)
	}
	if k, _, ok := tr.Max(); !ok || k != 8 {
		t.Fatalf("Max = %d,%v", k, ok)
	}
	for i, want := range []int{2, 4, 6, 8} {
		if k, v, ok := tr.At(i); !ok || k != want || v != want*10 {
			t.Fatalf("At(%d) = %d,%d,%v", i, k, v, ok)
		}
	}
	if _, _, ok := tr.At(4); ok {
		t.Fatalf("At out of range should fail")
	}
	empty := New[int, int](intOps())
	if _, _, ok := empty.Min(); ok {
		t.Fatalf("Min of empty should fail")
	}
	if _, _, ok := empty.Max(); ok {
		t.Fatalf("Max of empty should fail")
	}
}

func setOf(keys []int) map[int]bool {
	m := map[int]bool{}
	for _, k := range keys {
		m[k] = true
	}
	return m
}

func TestSetOperationsAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		var ka, kb []int
		for i := 0; i < rng.Intn(60); i++ {
			ka = append(ka, rng.Intn(40))
		}
		for i := 0; i < rng.Intn(60); i++ {
			kb = append(kb, rng.Intn(40))
		}
		a, b := fromKeys(ka), fromKeys(kb)
		ma, mb := setOf(ka), setOf(kb)

		check := func(name string, got Tree[int, int], pred func(k int) bool) {
			t.Helper()
			want := map[int]bool{}
			for k := 0; k < 40; k++ {
				if pred(k) {
					want[k] = true
				}
			}
			gotKeys := setOf(keysOf(got))
			if len(gotKeys) != len(want) {
				t.Fatalf("%s: size %d want %d (trial %d)", name, len(gotKeys), len(want), trial)
			}
			for k := range want {
				if !gotKeys[k] {
					t.Fatalf("%s: missing key %d (trial %d)", name, k, trial)
				}
			}
			// Results must also have unique representation: rebuild from keys.
			rebuilt := fromKeys(keysOf(got))
			if rebuilt.StructuralHash() != got.StructuralHash() {
				t.Fatalf("%s: result violates unique representation (trial %d)", name, trial)
			}
		}

		check("union", a.Union(b), func(k int) bool { return ma[k] || mb[k] })
		check("intersect", a.Intersect(b), func(k int) bool { return ma[k] && mb[k] })
		check("difference", a.Difference(b), func(k int) bool { return ma[k] && !mb[k] })
	}
}

func TestUnionValuesPreferReceiver(t *testing.T) {
	a := New[int, int](intOps()).Insert(1, 100).Insert(2, 200)
	b := New[int, int](intOps()).Insert(2, -1).Insert(3, 300)
	u := a.Union(b)
	if v, _ := u.Get(2); v != 200 {
		t.Fatalf("Union kept wrong value for shared key: %d", v)
	}
	if v, _ := u.Get(3); v != 300 {
		t.Fatalf("Union lost b-only value: %d", v)
	}
}

func TestUnionWithMerge(t *testing.T) {
	a := New[int, int](intOps()).Insert(1, 1).Insert(2, 2)
	b := New[int, int](intOps()).Insert(2, 5).Insert(3, 3)
	u := a.UnionWith(b, func(x, y int) int { return x + y })
	if v, _ := u.Get(2); v != 7 {
		t.Fatalf("merge value = %d, want 7", v)
	}
}

func TestIntersectValuesFromReceiver(t *testing.T) {
	a := New[int, int](intOps()).Insert(1, 100).Insert(2, 200).Insert(3, 300)
	b := New[int, int](intOps()).Insert(2, -2).Insert(3, -3).Insert(4, -4)
	i := a.Intersect(b)
	if v, _ := i.Get(2); v != 200 {
		t.Fatalf("Intersect value = %d, want 200 (receiver side)", v)
	}
	if v, _ := i.Get(3); v != 300 {
		t.Fatalf("Intersect value = %d, want 300 (receiver side)", v)
	}
}

func TestEqualSharingShortCircuit(t *testing.T) {
	tr := fromKeys([]int{1, 2, 3, 4, 5, 6, 7, 8})
	branch := tr // O(1) branch: same root
	if !tr.Equal(branch) {
		t.Fatalf("branch should be equal")
	}
	mod := branch.Insert(9, 90)
	if tr.Equal(mod) {
		t.Fatalf("diverged branch should differ")
	}
	back := mod.Delete(9)
	if !tr.Equal(back) || tr.StructuralHash() != back.StructuralHash() {
		t.Fatalf("delete did not restore equality")
	}
}

func TestDiffWith(t *testing.T) {
	old := fromKeys([]int{1, 2, 3, 4, 5})
	upd := old.Delete(2).Insert(6, 60).Insert(3, 999)
	var dels, inss []int
	var upds [][3]int
	old.DiffWith(upd, func(a, b int) bool { return a == b },
		func(k, v int) { dels = append(dels, k) },
		func(k, v int) { inss = append(inss, k) },
		func(k, a, b int) { upds = append(upds, [3]int{k, a, b}) })
	sort.Ints(dels)
	sort.Ints(inss)
	if len(dels) != 1 || dels[0] != 2 {
		t.Fatalf("dels = %v", dels)
	}
	if len(inss) != 1 || inss[0] != 6 {
		t.Fatalf("inss = %v", inss)
	}
	if len(upds) != 1 || upds[0] != [3]int{3, 30, 999} {
		t.Fatalf("upds = %v", upds)
	}
}

func TestDiffWithIdenticalTreesIsEmpty(t *testing.T) {
	tr := fromKeys([]int{1, 2, 3})
	count := 0
	bump := func(int, int) { count++ }
	tr.DiffWith(tr, func(a, b int) bool { return a == b }, bump, bump, func(int, int, int) { count++ })
	if count != 0 {
		t.Fatalf("diff of identical trees reported %d changes", count)
	}
}

func TestTreapPropertyInsertContains(t *testing.T) {
	f := func(keys []int16, probe int16) bool {
		tr := New(intKeyOps[bool]())
		want := map[int]bool{}
		for _, k := range keys {
			tr = tr.Insert(int(k), true)
			want[int(k)] = true
		}
		if tr.Len() != len(want) {
			return false
		}
		return tr.Contains(int(probe)) == want[int(probe)]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTreapPropertyUnionCommutesOnKeys(t *testing.T) {
	f := func(xs, ys []uint8) bool {
		var kx, ky []int
		for _, x := range xs {
			kx = append(kx, int(x))
		}
		for _, y := range ys {
			ky = append(ky, int(y))
		}
		a, b := fromKeys(kx), fromKeys(ky)
		return a.Union(b).StructuralHash() == b.Union(a).StructuralHash()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestTreapPropertyDeMorgan(t *testing.T) {
	// a \ b == a ∩ (a \ b)  and  (a∪b) \ b == a \ b on key sets.
	f := func(xs, ys []uint8) bool {
		var kx, ky []int
		for _, x := range xs {
			kx = append(kx, int(x))
		}
		for _, y := range ys {
			ky = append(ky, int(y))
		}
		a, b := fromKeys(kx), fromKeys(ky)
		d := a.Difference(b)
		if d.StructuralHash() != a.Intersect(a.Difference(b)).StructuralHash() {
			return false
		}
		return a.Union(b).Difference(b).StructuralHash() == d.StructuralHash()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestBSTAndHeapInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	tr := New[int, int](intOps())
	for i := 0; i < 2000; i++ {
		tr = tr.Insert(rng.Intn(5000), i)
		if i%7 == 0 {
			tr = tr.Delete(rng.Intn(5000))
		}
	}
	var checkNode func(n *Node[int, int], lo, hi int) int
	checkNode = func(n *Node[int, int], lo, hi int) int {
		if n == nil {
			return 0
		}
		if n.key <= lo || n.key >= hi {
			t.Fatalf("BST violation at key %d", n.key)
		}
		if n.left != nil && n.left.prio > n.prio {
			t.Fatalf("heap violation (left) at key %d", n.key)
		}
		if n.right != nil && n.right.prio > n.prio {
			t.Fatalf("heap violation (right) at key %d", n.key)
		}
		size := 1 + checkNode(n.left, lo, n.key) + checkNode(n.right, n.key, hi)
		if n.Len() != size {
			t.Fatalf("size cache wrong at key %d: %d vs %d", n.key, n.size, size)
		}
		return size
	}
	checkNode(tr.root, -1, 1<<31)
}

// sameShape reports whether two subtrees hold the same keys, values and
// priorities in the same shape, with the same cached size and hash.
func sameShape(a, b *Node[int, int]) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.key == b.key && a.val == b.val && a.prio == b.prio && a.size == b.size && a.hash == b.hash &&
		sameShape(a.left, b.left) && sameShape(a.right, b.right)
}

// TestBuildSortedMatchesInsert builds from sorted keys and checks the tree
// is the insert loop's node for node, with the real hash and with one that
// gives most keys the priority of another, where the tie rule decides the
// shape.
func TestBuildSortedMatchesInsert(t *testing.T) {
	ties := intOps()
	ties.Hash = func(k int) uint64 { return uint64(k % 5) }
	rng := rand.New(rand.NewSource(7))
	for _, ops := range []*Ops[int, int]{intOps(), ties} {
		for trial := 0; trial < 100; trial++ {
			n := rng.Intn(300)
			seen := map[int]bool{}
			loop := New[int, int](ops)
			for i := 0; i < n; i++ {
				k := rng.Intn(1000)
				seen[k] = true
				loop = loop.Insert(k, k*10)
			}
			var keys, vals []int
			for k := range seen {
				keys = append(keys, k)
			}
			sort.Ints(keys)
			for _, k := range keys {
				vals = append(vals, k*10)
			}
			built := BuildSorted(ops, keys, vals)
			if !sameShape(built.root, loop.root) {
				t.Fatalf("trial %d: BuildSorted of %v differs from the insert loop's tree", trial, keys)
			}
			if !built.Equal(loop) || built.StructuralHash() != loop.StructuralHash() {
				t.Fatalf("trial %d: Equal or StructuralHash disagree", trial)
			}
		}
	}
	if e := BuildSorted[int, int](intOps(), nil, nil); !e.IsEmpty() {
		t.Fatal("BuildSorted of no keys is not empty")
	}
}
