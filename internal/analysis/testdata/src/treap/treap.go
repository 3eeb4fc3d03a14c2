// Package treap is an immutable-analyzer fixture: its name matches the
// protected package, so mutations of Node/Tree fields outside the mk and
// mkHashed constructors must be flagged.
package treap

type Node struct {
	key, val    string
	prio        uint64
	size        int
	left, right *Node
}

// Tree is the persistent handle.
type Tree struct {
	ops  int
	root *Node
}

// mk is the allow-listed constructor: field writes here are legal.
func mk(left, right *Node, key, val string) *Node {
	n := &Node{key: key, val: val, left: left, right: right}
	n.size = 1
	if left != nil {
		n.size += left.size
	}
	if right != nil {
		n.size += right.size
	}
	return n
}

// mkHashed is the second allow-listed constructor.
func mkHashed(key string, prio uint64) *Node {
	n := mk(nil, nil, key, "")
	n.prio = prio
	return n
}

func rotate(n *Node) *Node {
	n.left = n.right // want: outside its constructors
	n.size++         // want: outside its constructors
	return n
}

func bump(t *Tree) {
	t.ops = t.ops + 1 // want: outside its constructors
}

// fresh builds values through composite literals: always legal.
func fresh(key, val string) Tree {
	root := mk(nil, nil, key, val)
	return Tree{ops: 1, root: root}
}

// walk only reads fields and reassigns plain locals: legal.
func walk(t Tree) int {
	n := 0
	for cur := t.root; cur != nil; cur = cur.left {
		n++
	}
	return n
}
