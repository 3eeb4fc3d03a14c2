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
// with a total order and a hash for keys. A value may itself be a
// collection — a level of a nested trie whose values are the next level —
// and then Ops also hashes values into the structural hash and weighs
// them toward Len, and the value holds the inner tree's root Node, which
// Rooted turns back into a Tree. A node keeps the high 32 bits of its
// key's hash as its priority and the whole hash in its structural hash.
package treap

// Ops supplies the key ordering and hashing for a treap. Hash must be a
// pure function of the key: it determines node priorities and therefore
// tree shape. ValueHash and Weight are optional: ValueHash, when set, is
// mixed into every node's structural hash, so trees whose values differ
// hash apart; Weight, when set, is what an entry counts toward Len (1
// when nil). Both must be pure functions of the value. A tree keeps a
// pointer to its Ops, which must not change afterward.
type Ops[K, V any] struct {
	Compare   func(a, b K) int
	Hash      func(K) uint64
	ValueHash func(V) uint64
	Weight    func(V) int
}

// Tree is an immutable treap. The zero Tree (or nil root) is the empty
// treap. All methods leave the receiver untouched and return new trees.
type Tree[K, V any] struct {
	ops  *Ops[K, V]
	root *Node[K, V]
}

// Node is a treap node and the subtree below it; nil is the empty tree.
// A tree of trees keeps the root of each inner tree (Tree.Root) rather
// than a Tree, and rebuilds the Tree with Rooted when it needs one. A
// tree's entries weigh less than 2³² in all.
type Node[K, V any] struct {
	key   K
	val   V
	prio  uint32 // the high half of the key's hash
	size  uint32 // total Weight of the subtree's entries
	hash  uint64 // memoized structural hash of the subtree
	left  *Node[K, V]
	right *Node[K, V]
}

// Rooted returns the tree of root under ops.
func Rooted[K, V any](ops *Ops[K, V], root *Node[K, V]) Tree[K, V] {
	return Tree[K, V]{ops: ops, root: root}
}

// Root returns the tree's root node (nil when the tree is empty).
func (t Tree[K, V]) Root() *Node[K, V] { return t.root }

// New returns an empty treap using the given key operations.
func New[K, V any](ops *Ops[K, V]) Tree[K, V] {
	return Tree[K, V]{ops: ops}
}

// Len returns the number of entries, each counted by its Weight.
func (t Tree[K, V]) Len() int { return t.root.Len() }

// Len is the total Weight of the subtree's entries.
func (n *Node[K, V]) Len() int {
	if n == nil {
		return 0
	}
	return int(n.size)
}

// StructuralHash is the memoized hash of the subtree (Tree.StructuralHash).
func (n *Node[K, V]) StructuralHash() uint64 {
	if n == nil {
		return 0
	}
	return n.hash
}

// IsEmpty reports whether the treap has no entries.
func (t Tree[K, V]) IsEmpty() bool { return t.root == nil }

// priority is the part of a key's hash that orders the heap.
func priority(keyHash uint64) uint32 { return uint32(keyHash >> 32) }

// mk makes the node of key, hashing the key.
func (t Tree[K, V]) mk(key K, val V, left, right *Node[K, V]) *Node[K, V] {
	return t.mkHashed(key, val, t.ops.Hash(key), left, right)
}

// mkHashed makes the node of key, whose hash is keyHash.
func (t Tree[K, V]) mkHashed(key K, val V, keyHash uint64, left, right *Node[K, V]) *Node[K, V] {
	countAlloc()
	// The structural hash covers keys and shape, and values where the Ops
	// hash them; EqualWith compares values through its valEq.
	h := keyHash ^ (left.StructuralHash()*0x9e3779b97f4a7c15 + right.StructuralHash()*0xc2b2ae3d27d4eb4f + 0x165667b19e3779f9)
	w := 1
	if t.ops.ValueHash != nil {
		h ^= t.ops.ValueHash(val) * 0xd6e8feb86659fd93
	}
	if t.ops.Weight != nil {
		w = t.ops.Weight(val)
	}
	return &Node[K, V]{
		key: key, val: val, prio: priority(keyHash),
		size: uint32(w + left.Len() + right.Len()),
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
func BuildSorted[K, V any](ops *Ops[K, V], keys []K, vals []V) Tree[K, V] {
	t := New[K, V](ops)
	var buf [32]spineFrame[K, V] // the height of the tree, O(log n) expected
	spine := buf[:0]
	for i, k := range keys {
		kh := ops.Hash(k)
		depth := len(spine)
		for depth > 0 && priority(spine[depth-1].keyHash) < priority(kh) {
			depth--
		}
		var left *Node[K, V]
		spine, left = t.closeSpine(spine, depth, keys, vals)
		spine = append(spine, spineFrame[K, V]{i: i, keyHash: kh, left: left})
	}
	_, root := t.closeSpine(spine, 0, keys, vals)
	return Tree[K, V]{ops: ops, root: root}
}

// spineFrame is a node of BuildSorted's right spine still to be made.
type spineFrame[K, V any] struct {
	i       int
	keyHash uint64
	left    *Node[K, V]
}

// closeSpine makes the nodes of the spine frames above depth, whose
// subtrees are complete, and returns the spine left and the topmost made.
func (t Tree[K, V]) closeSpine(spine []spineFrame[K, V], depth int, keys []K, vals []V) ([]spineFrame[K, V], *Node[K, V]) {
	var right *Node[K, V]
	for len(spine) > depth {
		f := spine[len(spine)-1]
		spine = spine[:len(spine)-1]
		right = t.mkHashed(keys[f.i], vals[f.i], f.keyHash, f.left, right)
	}
	return spine, right
}

// Get returns the value stored under key.
func (t Tree[K, V]) Get(key K) (V, bool) {
	_, v, ok := t.Find(key)
	return v, ok
}

// Find returns the stored key that compares equal to key, and its value.
func (t Tree[K, V]) Find(key K) (K, V, bool) {
	n := t.root
	for n != nil {
		switch c := t.ops.Compare(key, n.key); {
		case c < 0:
			n = n.left
		case c > 0:
			n = n.right
		default:
			return n.key, n.val, true
		}
	}
	var k K
	var v V
	return k, v, false
}

// Contains reports whether key is present.
func (t Tree[K, V]) Contains(key K) bool {
	_, ok := t.Get(key)
	return ok
}

// Insert returns a treap with key bound to val (replacing any previous
// binding).
func (t Tree[K, V]) Insert(key K, val V) Tree[K, V] {
	return Tree[K, V]{ops: t.ops, root: t.insert(t.root, key, val, t.ops.Hash(key))}
}

func (t Tree[K, V]) insert(n *Node[K, V], key K, val V, keyHash uint64) *Node[K, V] {
	if n == nil {
		return t.mkHashed(key, val, keyHash, nil, nil)
	}
	c := t.ops.Compare(key, n.key)
	if c == 0 {
		return t.mkHashed(key, val, keyHash, n.left, n.right)
	}
	if prio := priority(keyHash); prio > n.prio || (prio == n.prio && c < 0) {
		// New node becomes the root of this subtree: split around key.
		l, _, _, r := t.split(n, key)
		return t.mkHashed(key, val, keyHash, l, r)
	}
	if c < 0 {
		return t.mk(n.key, n.val, t.insert(n.left, key, val, keyHash), n.right)
	}
	return t.mk(n.key, n.val, n.left, t.insert(n.right, key, val, keyHash))
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

func (t Tree[K, V]) delete(n *Node[K, V], key K) (*Node[K, V], bool) {
	if n == nil {
		return nil, false
	}
	switch c := t.ops.Compare(key, n.key); {
	case c < 0:
		l, ch := t.delete(n.left, key)
		if !ch {
			return n, false
		}
		return t.mk(n.key, n.val, l, n.right), true
	case c > 0:
		r, ch := t.delete(n.right, key)
		if !ch {
			return n, false
		}
		return t.mk(n.key, n.val, n.left, r), true
	default:
		return t.join(n.left, n.right), true
	}
}

// split divides subtree n into nodes <key, the node ==key (if present),
// and nodes >key.
func (t Tree[K, V]) split(n *Node[K, V], key K) (l *Node[K, V], eq bool, eqVal V, r *Node[K, V]) {
	if n == nil {
		return nil, false, eqVal, nil
	}
	switch c := t.ops.Compare(key, n.key); {
	case c < 0:
		ll, e, ev, lr := t.split(n.left, key)
		return ll, e, ev, t.mk(n.key, n.val, lr, n.right)
	case c > 0:
		rl, e, ev, rr := t.split(n.right, key)
		return t.mk(n.key, n.val, n.left, rl), e, ev, rr
	default:
		return n.left, true, n.val, n.right
	}
}

// join concatenates two treaps where every key in l is less than every key
// in r.
func (t Tree[K, V]) join(l, r *Node[K, V]) *Node[K, V] {
	switch {
	case l == nil:
		return r
	case r == nil:
		return l
	case l.prio > r.prio || (l.prio == r.prio && t.ops.Compare(l.key, r.key) < 0):
		return t.mk(l.key, l.val, l.left, t.join(l.right, r))
	default:
		return t.mk(r.key, r.val, t.join(l, r.left), r.right)
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

func (t Tree[K, V]) union(a, b *Node[K, V], merge func(x, y V) V) *Node[K, V] {
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
		return t.mk(b.key, val, t.union(l, b.left, merge), t.union(r, b.right, merge))
	}
	l, eq, ev, r := t.split(b, a.key)
	val := a.val
	if eq {
		val = merge(a.val, ev)
	}
	return t.mk(a.key, val, t.union(a.left, l, merge), t.union(a.right, r, merge))
}

// Intersect returns the treap containing keys present in both trees, with
// values from t.
func (t Tree[K, V]) Intersect(u Tree[K, V]) Tree[K, V] {
	return t.IntersectWith(u, nil)
}

// IntersectWith returns the treap of the keys present in both trees, each
// bound to merge(its value in t, its value in u); a key whose merge
// reports false is left out. A nil merge keeps t's value. A subtree the
// two trees share is kept whole, so merge(v, v) must return v, true.
func (t Tree[K, V]) IntersectWith(u Tree[K, V], merge func(a, b V) (V, bool)) Tree[K, V] {
	return Tree[K, V]{ops: t.ops, root: t.intersect(t.root, u.root, merge)}
}

func (t Tree[K, V]) intersect(a, b *Node[K, V], merge func(x, y V) (V, bool)) *Node[K, V] {
	if a == nil || b == nil {
		return nil
	}
	if a == b {
		countShared()
		return a
	}
	// Pivot on the higher-priority root to keep the result heap-ordered;
	// merge always takes t's value first.
	key, av, bv := a.key, a.val, b.val
	var l, r *Node[K, V]
	var eq bool
	if b.prio > a.prio || (b.prio == a.prio && t.ops.Compare(b.key, a.key) < 0) {
		key = b.key
		l, eq, av, r = t.split(a, b.key)
		l, r = t.intersect(l, b.left, merge), t.intersect(r, b.right, merge)
	} else {
		l, eq, bv, r = t.split(b, a.key)
		l, r = t.intersect(a.left, l, merge), t.intersect(a.right, r, merge)
	}
	if eq && merge != nil {
		av, eq = merge(av, bv)
	}
	if eq {
		return t.mk(key, av, l, r)
	}
	return t.join(l, r)
}

// Difference returns the treap of keys in t that are not in u.
func (t Tree[K, V]) Difference(u Tree[K, V]) Tree[K, V] {
	return t.DifferenceWith(u, nil)
}

// DifferenceWith returns the treap of the keys of t that are not in u,
// and of those in both for which sub(its value in t, its value in u)
// reports true, bound to the value sub returns. A nil sub leaves out
// every key of u. A subtree the two trees share is left out whole, so
// sub(v, v) must report false.
func (t Tree[K, V]) DifferenceWith(u Tree[K, V], sub func(a, b V) (V, bool)) Tree[K, V] {
	return Tree[K, V]{ops: t.ops, root: t.difference(t.root, u.root, sub)}
}

func (t Tree[K, V]) difference(a, b *Node[K, V], sub func(x, y V) (V, bool)) *Node[K, V] {
	switch {
	case a == nil:
		return nil
	case b == nil:
		return a
	case a == b:
		countShared()
		return nil
	}
	l, eq, bv, r := t.split(b, a.key)
	dl := t.difference(a.left, l, sub)
	dr := t.difference(a.right, r, sub)
	val, keep := a.val, !eq
	if eq && sub != nil {
		val, keep = sub(a.val, bv)
	}
	if !keep {
		return t.join(dl, dr)
	}
	if dl == a.left && dr == a.right && !eq {
		return a
	}
	return t.mk(a.key, val, dl, dr)
}

// Equal reports whether t and u contain exactly the same keys, pruning on
// shared subtrees. With unique representation, equal contents imply equal
// shape, so this is O(size of unshared region); it is O(1) for trees that
// share their root (e.g. a branch and its parent before divergence).
// Values are not compared.
func (t Tree[K, V]) Equal(u Tree[K, V]) bool {
	return t.EqualWith(u, nil)
}

// EqualWith is Equal that also requires valEq of the two values of every
// key, unless the two share the node that holds it. A nil valEq compares
// keys only.
func (t Tree[K, V]) EqualWith(u Tree[K, V], valEq func(a, b V) bool) bool {
	return t.equalNodes(t.root, u.root, valEq)
}

func (t Tree[K, V]) equalNodes(a, b *Node[K, V], valEq func(x, y V) bool) bool {
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
	if t.ops.Compare(a.key, b.key) != 0 || (valEq != nil && !valEq(a.val, b.val)) {
		return false
	}
	return t.equalNodes(a.left, b.left, valEq) && t.equalNodes(a.right, b.right, valEq)
}

// StructuralHash returns the memoized hash of the whole tree. Trees with
// equal key sets have equal hashes; unequal trees collide with negligible
// probability. This provides the paper's "extensional equality testing in
// O(1) time" (probabilistically) for meta-data objects.
func (t Tree[K, V]) StructuralHash() uint64 { return t.root.StructuralHash() }

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

// At returns the i-th entry in key order (0-based rank query) of a tree
// without a Weight.
func (t Tree[K, V]) At(i int) (K, V, bool) {
	n := t.root
	for n != nil {
		ls := n.left.Len()
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

func ascend[K, V any](n *Node[K, V], fn func(K, V) bool) bool {
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

func (t Tree[K, V]) diff(a, b *Node[K, V], valEq func(x, y V) bool,
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
