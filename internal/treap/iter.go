package treap

import "math/bits"

// Iterator walks a treap in ascending key order and supports the
// least-upper-bound Seek operation required by the leapfrog join
// (paper §3.2): Seek positions at the smallest key ≥ the probe and runs in
// O(log N). Seek is a finger search from the current position: it climbs
// the descent stack past every pending entry below the probe before it
// descends, so it descends only into the one region that holds the
// answer, and m ascending seeks over N keys cost amortized
// O(1 + log(N/m)) compares.
//
// Obtain one from Tree.Iterator or Tree.Seek, or reposition any
// Iterator, the zero one included, on a tree with Reset or ResetAt.
type Iterator[K, V any] struct {
	ops   *Ops[K, V]
	root  *Node[K, V]
	stack []*Node[K, V] // path of nodes whose key is still >= current position
	cur   *Node[K, V]
	done  bool
}

// Iterator returns an iterator positioned at the first (smallest) entry.
// If the tree is empty the iterator starts at the end.
func (t Tree[K, V]) Iterator() *Iterator[K, V] {
	it := &Iterator[K, V]{ops: t.ops, root: t.root}
	it.First()
	return it
}

// Seek returns an iterator positioned at the least entry with key ≥ probe
// (at the end when there is none), found in one root-to-leaf descent: a
// lower-bound read that does not first walk down the left spine as
// Iterator does.
func (t Tree[K, V]) Seek(probe K) *Iterator[K, V] {
	it := &Iterator[K, V]{ops: t.ops, root: t.root}
	it.SeekFromRoot(probe)
	return it
}

// Reset repositions the iterator at the smallest entry of t, reusing its
// descent stack.
func (it *Iterator[K, V]) Reset(t Tree[K, V]) {
	it.ops, it.root = t.ops, t.root
	it.First()
}

// ResetAt repositions the iterator at the least entry of t with key ≥
// probe, in one descent that reuses its descent stack.
func (it *Iterator[K, V]) ResetAt(t Tree[K, V], probe K) {
	it.ops, it.root = t.ops, t.root
	it.SeekFromRoot(probe)
}

// Reserve sizes the descent stack for trees of up to n entries, so that
// repositioning on any of them allocates nothing.
func (it *Iterator[K, V]) Reserve(n int) {
	if h := 3 * bits.Len(uint(n)); cap(it.stack) < h {
		it.stack = make([]*Node[K, V], 0, h)
	}
}

// First repositions at the smallest entry.
func (it *Iterator[K, V]) First() {
	it.resetStack()
	it.cur = nil
	it.done = it.root == nil
	n := it.root
	for n != nil {
		it.stack = append(it.stack, n)
		n = n.left
	}
	it.pop()
}

func (it *Iterator[K, V]) pop() {
	if len(it.stack) == 0 {
		it.cur = nil
		it.done = true
		return
	}
	it.cur = it.stack[len(it.stack)-1]
	it.stack = it.stack[:len(it.stack)-1]
	it.done = false
}

// AtEnd reports whether the iterator is past the last entry.
func (it *Iterator[K, V]) AtEnd() bool { return it.done }

// Key returns the current key. It must not be called at the end.
func (it *Iterator[K, V]) Key() K { return it.cur.key }

// Value returns the current value. It must not be called at the end.
func (it *Iterator[K, V]) Value() V { return it.cur.val }

// Next advances to the next entry in key order.
func (it *Iterator[K, V]) Next() {
	if it.done {
		return
	}
	n := it.cur.right
	for n != nil {
		it.stack = append(it.stack, n)
		n = n.left
	}
	it.pop()
}

// Seek positions the iterator at the least entry with key ≥ probe. Per the
// linear-iterator contract, probe must be ≥ the current key; Seek also
// works from any position (including a fresh iterator) as a general
// lower-bound search.
func (it *Iterator[K, V]) Seek(probe K) {
	switch {
	case it.done:
		// Exhausted iterator: general lower bound from the root.
		it.SeekFromRoot(probe)
		return
	case it.ops.Compare(it.cur.key, probe) >= 0:
		return // already at or past probe
	}
	n := it.cur.right
	// The keys after the current one lie, in ascending order, in the
	// subtree n, then each pending stack entry followed by its right
	// subtree. While the next pending entry is below the probe, so is
	// everything before it: drop the region n unsearched, pop the entry and
	// continue from its right subtree. Only the region just before the
	// first pending entry ≥ probe (or the last region) is descended into.
	for len(it.stack) > 0 {
		top := it.stack[len(it.stack)-1]
		if it.ops.Compare(top.key, probe) >= 0 {
			break
		}
		it.stack = it.stack[:len(it.stack)-1]
		n = top.right
	}
	it.descend(n, probe)
}

// SeekFromRoot positions the iterator at the least entry with key ≥ probe,
// searching from the root whatever the current position, so it may move
// backward. It reuses the descent stack and allocates nothing once the
// stack has grown to the tree's height.
func (it *Iterator[K, V]) SeekFromRoot(probe K) {
	it.resetStack()
	it.descend(it.root, probe)
}

// resetStack empties the descent stack. The first call sizes it for the
// tree's height (a random treap of N keys is about 3·log₂ N deep), so it
// is usually allocated once.
func (it *Iterator[K, V]) resetStack() {
	if it.stack == nil && it.root != nil {
		it.Reserve(int(it.root.size))
	}
	it.stack = it.stack[:0]
}

// descend searches the subtree n for the least key ≥ probe, pushing each
// node ≥ probe on the way down, then moves to the least pending entry.
func (it *Iterator[K, V]) descend(n *Node[K, V], probe K) {
	for n != nil {
		if it.ops.Compare(n.key, probe) >= 0 {
			it.stack = append(it.stack, n)
			n = n.left
		} else {
			n = n.right
		}
	}
	it.pop()
}
