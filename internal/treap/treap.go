// Package treap implements persistent (purely functional) treaps with the
// unique representation property, mirroring the meta-data collections of
// the LogicBlox runtime (paper §3.1).
//
// A treap is a binary search tree ordered by key and heap-ordered by
// priority. We derive each node's priority deterministically from its key's
// hash, so the shape of the tree depends only on its contents, not on the
// operation history (Seidel–Aragon randomized search trees with derandomized
// priorities). Consequences the engine relies on:
//
//   - two treaps with equal contents are structurally identical, so
//     equality testing can prune on shared subtrees and is O(1) when the
//     trees literally share structure (the common case after branching);
//   - set operations (union, intersection, difference) run in
//     O(m log(n/m)) expected time (Blelloch & Reid-Miller, SPAA'98);
//   - all mutating operations copy only the path from the root to the
//     change, so snapshots are O(1) and versions share structure;
//   - a tree built in one pass from sorted keys (BuildSorted) is the same
//     tree an insert loop builds, at one node per key rather than one
//     path copy per key.
//
// The treap is generic over key and value types; callers supply an Ops
// with a total order and a hash for keys.
package treap

// Ops supplies the key ordering and hashing for a treap. Hash must be a
// pure function of the key: it determines node priorities and therefore
// tree shape.
type Ops[K any] struct {
	Compare func(a, b K) int
	Hash    func(K) uint64
}

// Tree is an immutable treap. The zero Tree (or nil root) is the empty
// treap. All methods leave the receiver untouched and return new trees.
type Tree[K, V any] struct {
	ops  Ops[K]
	root *node[K, V]
}

type node[K, V any] struct {
	key   K
	val   V
	prio  uint64
	size  int
	hash  uint64 // memoized structural hash of the subtree
	left  *node[K, V]
	right *node[K, V]
}

// New returns an empty treap using the given key operations.
func New[K, V any](ops Ops[K]) Tree[K, V] {
	return Tree[K, V]{ops: ops}
}

// Len returns the number of entries.
func (t Tree[K, V]) Len() int { return t.root.len() }

func (n *node[K, V]) len() int {
	if n == nil {
		return 0
	}
	return n.size
}

func (n *node[K, V]) subHash() uint64 {
	if n == nil {
		return 0
	}
	return n.hash
}

// IsEmpty reports whether the treap has no entries.
func (t Tree[K, V]) IsEmpty() bool { return t.root == nil }

func (t Tree[K, V]) mk(key K, val V, prio uint64, left, right *node[K, V]) *node[K, V] {
	countAlloc()
	h := prio // priority already encodes the key hash
	// Mix in a hash of the value region indirectly: structural hash covers
	// keys and shape; values are compared explicitly where needed.
	h ^= left.subHash()*0x9e3779b97f4a7c15 + right.subHash()*0xc2b2ae3d27d4eb4f + 0x165667b19e3779f9
	return &node[K, V]{
		key: key, val: val, prio: prio,
		size: 1 + left.len() + right.len(),
		hash: h,
		left: left, right: right,
	}
}

// BuildSorted returns the treap holding keys[i] bound to vals[i]. keys
// must be strictly ascending under ops.Compare and vals as long as keys;
// neither is retained. By unique representation the result is the tree an
// insert loop over the same entries builds, node for node, but it costs
// one node per key instead of a path copy per key: one pass keeps the
// right spine of the Cartesian tree built so far on a stack, and a key
// pops every spine node of lower priority, which are then final — the
// last popped becomes its left child, each popped node the right child of
// the one popped after it. On equal priority the smaller key stays the
// ancestor, as in insert.
func BuildSorted[K, V any](ops Ops[K], keys []K, vals []V) Tree[K, V] {
	t := New[K, V](ops)
	type frame struct {
		i    int
		prio uint64
		left *node[K, V]
	}
	spine := make([]frame, 0, 64) // the height of the tree, O(log n) expected
	// closeSpine makes the nodes of the spine frames above depth, whose
	// subtrees are complete, and returns the topmost made.
	closeSpine := func(depth int) *node[K, V] {
		var right *node[K, V]
		for len(spine) > depth {
			f := spine[len(spine)-1]
			spine = spine[:len(spine)-1]
			right = t.mk(keys[f.i], vals[f.i], f.prio, f.left, right)
		}
		return right
	}
	for i, k := range keys {
		prio := ops.Hash(k)
		depth := len(spine)
		for depth > 0 && spine[depth-1].prio < prio {
			depth--
		}
		spine = append(spine, frame{i: i, prio: prio, left: closeSpine(depth)})
	}
	return Tree[K, V]{ops: ops, root: closeSpine(0)}
}

// Get returns the value stored under key.
func (t Tree[K, V]) Get(key K) (V, bool) {
	n := t.root
	for n != nil {
		switch c := t.ops.Compare(key, n.key); {
		case c < 0:
			n = n.left
		case c > 0:
			n = n.right
		default:
			return n.val, true
		}
	}
	var zero V
	return zero, false
}

// Contains reports whether key is present.
func (t Tree[K, V]) Contains(key K) bool {
	_, ok := t.Get(key)
	return ok
}

// Insert returns a treap with key bound to val (replacing any previous
// binding).
func (t Tree[K, V]) Insert(key K, val V) Tree[K, V] {
	prio := t.ops.Hash(key)
	return Tree[K, V]{ops: t.ops, root: t.insert(t.root, key, val, prio)}
}

func (t Tree[K, V]) insert(n *node[K, V], key K, val V, prio uint64) *node[K, V] {
	if n == nil {
		return t.mk(key, val, prio, nil, nil)
	}
	c := t.ops.Compare(key, n.key)
	if c == 0 {
		return t.mk(key, val, prio, n.left, n.right)
	}
	if prio > n.prio || (prio == n.prio && c < 0) {
		// New node becomes the root of this subtree: split around key.
		l, _, _, r := t.split(n, key)
		return t.mk(key, val, prio, l, r)
	}
	if c < 0 {
		return t.mk(n.key, n.val, n.prio, t.insert(n.left, key, val, prio), n.right)
	}
	return t.mk(n.key, n.val, n.prio, n.left, t.insert(n.right, key, val, prio))
}

// Delete returns a treap without key. It returns the receiver unchanged
// (sharing the same root) if key is absent.
func (t Tree[K, V]) Delete(key K) Tree[K, V] {
	root, changed := t.delete(t.root, key)
	if !changed {
		return t
	}
	return Tree[K, V]{ops: t.ops, root: root}
}

func (t Tree[K, V]) delete(n *node[K, V], key K) (*node[K, V], bool) {
	if n == nil {
		return nil, false
	}
	switch c := t.ops.Compare(key, n.key); {
	case c < 0:
		l, ch := t.delete(n.left, key)
		if !ch {
			return n, false
		}
		return t.mk(n.key, n.val, n.prio, l, n.right), true
	case c > 0:
		r, ch := t.delete(n.right, key)
		if !ch {
			return n, false
		}
		return t.mk(n.key, n.val, n.prio, n.left, r), true
	default:
		return t.join(n.left, n.right), true
	}
}

// split divides subtree n into nodes <key, the node ==key (if present),
// and nodes >key.
func (t Tree[K, V]) split(n *node[K, V], key K) (l *node[K, V], eq bool, eqVal V, r *node[K, V]) {
	if n == nil {
		return nil, false, eqVal, nil
	}
	switch c := t.ops.Compare(key, n.key); {
	case c < 0:
		ll, e, ev, lr := t.split(n.left, key)
		return ll, e, ev, t.mk(n.key, n.val, n.prio, lr, n.right)
	case c > 0:
		rl, e, ev, rr := t.split(n.right, key)
		return t.mk(n.key, n.val, n.prio, n.left, rl), e, ev, rr
	default:
		return n.left, true, n.val, n.right
	}
}

// join concatenates two treaps where every key in l is less than every key
// in r.
func (t Tree[K, V]) join(l, r *node[K, V]) *node[K, V] {
	switch {
	case l == nil:
		return r
	case r == nil:
		return l
	case l.prio > r.prio || (l.prio == r.prio && t.ops.Compare(l.key, r.key) < 0):
		return t.mk(l.key, l.val, l.prio, l.left, t.join(l.right, r))
	default:
		return t.mk(r.key, r.val, r.prio, t.join(l, r.left), r.right)
	}
}

// Union returns the set union; on keys present in both, the value from t
// wins. Runs in O(m log(n/m)) expected time and shares structure with the
// inputs.
func (t Tree[K, V]) Union(u Tree[K, V]) Tree[K, V] {
	return t.UnionWith(u, func(a, b V) V { return a })
}

// UnionWith is Union with an explicit merge function applied to values of
// keys present in both trees (receiver's value is the first argument).
func (t Tree[K, V]) UnionWith(u Tree[K, V], merge func(a, b V) V) Tree[K, V] {
	return Tree[K, V]{ops: t.ops, root: t.union(t.root, u.root, merge)}
}

func (t Tree[K, V]) union(a, b *node[K, V], merge func(x, y V) V) *node[K, V] {
	switch {
	case a == nil:
		return b
	case b == nil:
		return a
	case a == b:
		countShared()
		return a
	}
	if b.prio > a.prio || (b.prio == a.prio && t.ops.Compare(b.key, a.key) < 0) {
		// Keep b's node at the root but prefer a's value when both have the key.
		l, eq, ev, r := t.split(a, b.key)
		val := b.val
		if eq {
			val = merge(ev, b.val)
		}
		return t.mk(b.key, val, b.prio, t.union(l, b.left, merge), t.union(r, b.right, merge))
	}
	l, eq, ev, r := t.split(b, a.key)
	val := a.val
	if eq {
		val = merge(a.val, ev)
	}
	return t.mk(a.key, val, a.prio, t.union(a.left, l, merge), t.union(a.right, r, merge))
}

// Intersect returns the treap containing keys present in both trees, with
// values from t.
func (t Tree[K, V]) Intersect(u Tree[K, V]) Tree[K, V] {
	return Tree[K, V]{ops: t.ops, root: t.intersect(t.root, u.root)}
}

func (t Tree[K, V]) intersect(a, b *node[K, V]) *node[K, V] {
	if a == nil || b == nil {
		return nil
	}
	if a == b {
		countShared()
		return a
	}
	// Pivot on the higher-priority root to keep the result heap-ordered;
	// values always come from the a side.
	if b.prio > a.prio || (b.prio == a.prio && t.ops.Compare(b.key, a.key) < 0) {
		l, eq, ev, r := t.split(a, b.key)
		il := t.intersect(l, b.left)
		ir := t.intersect(r, b.right)
		if eq {
			return t.mk(b.key, ev, b.prio, il, ir)
		}
		return t.join(il, ir)
	}
	l, eq, _, r := t.split(b, a.key)
	il := t.intersect(a.left, l)
	ir := t.intersect(a.right, r)
	if eq {
		return t.mk(a.key, a.val, a.prio, il, ir)
	}
	return t.join(il, ir)
}

// Difference returns the treap of keys in t that are not in u.
func (t Tree[K, V]) Difference(u Tree[K, V]) Tree[K, V] {
	return Tree[K, V]{ops: t.ops, root: t.difference(t.root, u.root)}
}

func (t Tree[K, V]) difference(a, b *node[K, V]) *node[K, V] {
	switch {
	case a == nil:
		return nil
	case b == nil:
		return a
	case a == b:
		countShared()
		return nil
	}
	l, eq, _, r := t.split(b, a.key)
	dl := t.difference(a.left, l)
	dr := t.difference(a.right, r)
	if eq {
		return t.join(dl, dr)
	}
	return t.mk(a.key, a.val, a.prio, dl, dr)
}

// Equal reports whether t and u contain exactly the same keys, pruning on
// shared subtrees. With unique representation, equal contents imply equal
// shape, so this is O(size of unshared region); it is O(1) for trees that
// share their root (e.g. a branch and its parent before divergence).
// Values are not compared.
func (t Tree[K, V]) Equal(u Tree[K, V]) bool {
	return t.equalNodes(t.root, u.root)
}

func (t Tree[K, V]) equalNodes(a, b *node[K, V]) bool {
	if a == b {
		if a != nil {
			countShared()
		}
		return true // shared subtree: keys and values are literally identical
	}
	if a == nil || b == nil {
		return false
	}
	if a.size != b.size || a.hash != b.hash {
		return false
	}
	if t.ops.Compare(a.key, b.key) != 0 {
		return false
	}
	return t.equalNodes(a.left, b.left) && t.equalNodes(a.right, b.right)
}

// StructuralHash returns the memoized hash of the whole tree. Trees with
// equal key sets have equal hashes; unequal trees collide with negligible
// probability. This provides the paper's "extensional equality testing in
// O(1) time" (probabilistically) for meta-data objects.
func (t Tree[K, V]) StructuralHash() uint64 { return t.root.subHash() }

// Min returns the smallest key and its value.
func (t Tree[K, V]) Min() (K, V, bool) {
	n := t.root
	if n == nil {
		var k K
		var v V
		return k, v, false
	}
	for n.left != nil {
		n = n.left
	}
	return n.key, n.val, true
}

// Max returns the largest key and its value.
func (t Tree[K, V]) Max() (K, V, bool) {
	n := t.root
	if n == nil {
		var k K
		var v V
		return k, v, false
	}
	for n.right != nil {
		n = n.right
	}
	return n.key, n.val, true
}

// At returns the i-th entry in key order (0-based rank query).
func (t Tree[K, V]) At(i int) (K, V, bool) {
	n := t.root
	for n != nil {
		ls := n.left.len()
		switch {
		case i < ls:
			n = n.left
		case i > ls:
			i -= ls + 1
			n = n.right
		default:
			return n.key, n.val, true
		}
	}
	var k K
	var v V
	return k, v, false
}

// Ascend calls fn for each entry in ascending key order until fn returns
// false.
func (t Tree[K, V]) Ascend(fn func(key K, val V) bool) {
	ascend(t.root, fn)
}

func ascend[K, V any](n *node[K, V], fn func(K, V) bool) bool {
	if n == nil {
		return true
	}
	return ascend(n.left, fn) && fn(n.key, n.val) && ascend(n.right, fn)
}

// DiffWith reports entries that differ between t (old) and u (new),
// pruning shared subtrees, so the cost is proportional to the amount of
// unshared structure — the basis for efficient version diffing (§3.1).
// For keys only in t it calls onDel; only in u, onIns; in both with
// values distinguishable by valEq==false, onUpd.
func (t Tree[K, V]) DiffWith(u Tree[K, V], valEq func(a, b V) bool,
	onDel func(K, V), onIns func(K, V), onUpd func(K, V, V)) {
	t.diff(t.root, u.root, valEq, onDel, onIns, onUpd)
}

func (t Tree[K, V]) diff(a, b *node[K, V], valEq func(x, y V) bool,
	onDel func(K, V), onIns func(K, V), onUpd func(K, V, V)) {
	if a == b {
		if a != nil {
			countShared()
		}
		return
	}
	if a == nil {
		ascend(b, func(k K, v V) bool { onIns(k, v); return true })
		return
	}
	if b == nil {
		ascend(a, func(k K, v V) bool { onDel(k, v); return true })
		return
	}
	// Align on the higher-priority root so both sides split consistently.
	if b.prio > a.prio || (b.prio == a.prio && t.ops.Compare(b.key, a.key) < 0) {
		l, eq, ev, r := t.split(a, b.key)
		if eq {
			if valEq != nil && !valEq(ev, b.val) {
				onUpd(b.key, ev, b.val)
			}
		} else {
			onIns(b.key, b.val)
		}
		t.diff(l, b.left, valEq, onDel, onIns, onUpd)
		t.diff(r, b.right, valEq, onDel, onIns, onUpd)
		return
	}
	l, eq, ev, r := t.split(b, a.key)
	if eq {
		if valEq != nil && !valEq(a.val, ev) {
			onUpd(a.key, a.val, ev)
		}
	} else {
		onDel(a.key, a.val)
	}
	t.diff(a.left, l, valEq, onDel, onIns, onUpd)
	t.diff(a.right, r, valEq, onDel, onIns, onUpd)
}

// Keys returns all keys in ascending order.
func (t Tree[K, V]) Keys() []K {
	out := make([]K, 0, t.Len())
	t.Ascend(func(k K, _ V) bool { out = append(out, k); return true })
	return out
}
