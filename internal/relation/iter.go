package relation

import (
	"logicblox/internal/treap"
	"logicblox/internal/trie"
	"logicblox/internal/tuple"
)

// level is a walk's position in one trie level: an iterator over the
// level's treap, or, where the group below the prefix is one tuple, that
// tuple, whose value in the level's column is the level's only key.
type level struct {
	it  treap.Iterator[tuple.Value, group]
	one tuple.Tuple
}

// Cursor is a pull iterator over a relation's tuples in lexicographic
// order — the same sequence Slice returns, without building the slice.
// It keeps one treap iterator per level it has descended into; a row
// costs no allocation. The relation is immutable, so the cursor stays
// valid indefinitely.
type Cursor struct {
	stack []level // the levels being walked, outermost first
	depth int     // the depth of stack[0]
}

// cursorOf returns a cursor positioned before the first tuple of g, a
// group d columns below the root.
func cursorOf(g group, d int) *Cursor {
	c := &Cursor{depth: d}
	c.push(g)
	return c
}

// push starts walking g one level below the walk's current one, reusing
// the iterator last used there.
func (c *Cursor) push(g group) *level {
	if len(c.stack) == cap(c.stack) {
		c.stack = append(c.stack, level{})
	} else {
		c.stack = c.stack[:len(c.stack)+1]
	}
	l := &c.stack[len(c.stack)-1]
	if l.one = g.one; g.one == nil {
		l.it.Reset(g.at(c.depth + len(c.stack) - 1))
	}
	return l
}

// Cursor returns a pull iterator positioned before the first tuple.
func (r Relation) Cursor() *Cursor {
	c := &Cursor{stack: make([]level, 0, r.arity+1)}
	c.push(r.root)
	return c
}

// CursorAt returns a pull iterator positioned before the least tuple ≥
// probe, found in one descent of each level the probe's prefix names: a
// probe of one value starts at the first tuple whose first column is ≥ it.
func (r Relation) CursorAt(probe tuple.Tuple) *Cursor {
	c := &Cursor{stack: make([]level, 0, r.arity+1)}
	r.seek(c, probe)
	return c
}

// seek positions c, whose stack is empty, as CursorAt does.
func (r Relation) seek(c *Cursor, probe tuple.Tuple) {
	g := r.root
	for d := 0; ; d++ {
		switch {
		case g.one != nil:
			if g.one.Compare(probe) >= 0 {
				c.push(g)
			}
			return
		case d >= len(probe):
			c.push(g) // the whole group extends the probe
			return
		}
		l := c.push(group{})
		l.it.ResetAt(g.at(d), probe[d])
		if l.it.AtEnd() || !tuple.Equal(l.it.Key(), probe[d]) {
			return // every tuple from here on is greater than the probe
		}
		// Descend into the probe's own key; the level resumes past it.
		g = l.it.Value()
		l.it.Next()
	}
}

// Next returns the next tuple in lexicographic order; ok is false once
// the relation is exhausted. The tuple is the stored (immutable) value —
// callers must not mutate it.
func (c *Cursor) Next() (t tuple.Tuple, ok bool) {
	for n := len(c.stack); n > 0; n = len(c.stack) {
		l := &c.stack[n-1]
		switch {
		case l.one != nil:
			t, l.one = l.one, nil
			c.stack = c.stack[:n-1]
			return t, true
		case l.it.AtEnd():
			c.stack = c.stack[:n-1]
			continue
		}
		g := l.it.Value()
		l.it.Next()
		if g.one != nil {
			return g.one, true
		}
		c.push(g)
	}
	return nil, false
}

// TrieIter presents a Relation as a trie (implements trie.Iterator).
//
// It keeps one treap iterator per depth, each over the level of the key
// selected above it. Open resets the next depth's iterator on the current
// key's level, Up returns to the iterator left where it was, and Next and
// Seek move one depth's iterator forward — a Seek is a finger search among
// that one level's keys, comparing one value per step. Where the group
// below a key is a single tuple, the depths below walk that tuple's
// values, one key each. Each operation is O(log N), and m ascending
// visits at one level cost amortized O(1 + log(N/m)); a depth's iterator
// sizes its stack for the first level it walks (treap.Iterator), so only
// a taller level met later allocates. A one-atom join is a scan:
// trie.Scanner walks the relation in order.
type TrieIter struct {
	r     Relation
	lv    []level // lv[d]: the position at depth d; one spare for a scan
	depth int
	atEnd bool
	probe [1]tuple.Value // Scan's bound
	scan  Cursor         // Scan's cursor, over lv's storage
}

// Iterator returns a trie iterator positioned at the synthetic root.
func (r Relation) Iterator() trie.Iterator {
	ti := &TrieIter{}
	ti.Reset(r)
	return ti
}

// Reset repositions ti at the synthetic root of r, reusing its levels and
// their iterators' stacks.
func (ti *TrieIter) Reset(r Relation) {
	lv := ti.lv
	if cap(lv) < r.arity+1 {
		lv = make([]level, r.arity, r.arity+1)
	}
	*ti = TrieIter{r: r, depth: -1, lv: lv[:r.arity]}
}

// Scan implements trie.Scanner. The scan walks the levels the trie
// operations use, so a TrieIter is scanned or walked, not both at once.
func (ti *TrieIter) Scan(from tuple.Value) func() (tuple.Tuple, bool) {
	ti.probe[0] = from
	ti.scan = Cursor{stack: ti.lv[:0]}
	ti.r.seek(&ti.scan, ti.probe[:])
	return ti.scan.Next
}

// Arity implements trie.Iterator.
func (ti *TrieIter) Arity() int { return ti.r.arity }

// Depth implements trie.Iterator.
func (ti *TrieIter) Depth() int { return ti.depth }

// AtEnd implements trie.Iterator.
func (ti *TrieIter) AtEnd() bool { return ti.atEnd }

// Key implements trie.Iterator.
func (ti *TrieIter) Key() tuple.Value {
	if ti.depth < 0 || ti.atEnd {
		panic("relation: Key called at root or at end")
	}
	l := &ti.lv[ti.depth]
	if l.one != nil {
		return l.one[ti.depth]
	}
	return l.it.Key()
}

// Open implements trie.Iterator.
func (ti *TrieIter) Open() {
	d := ti.depth + 1
	if d >= ti.r.arity {
		panic("relation: Open below leaf level")
	}
	g := ti.r.root
	if d > 0 {
		if ti.atEnd {
			panic("relation: Open at end of level")
		}
		if p := &ti.lv[d-1]; p.one != nil {
			g = group{one: p.one}
		} else {
			g = p.it.Value()
		}
	}
	ti.depth = d
	l := &ti.lv[d]
	if l.one = g.one; g.one != nil {
		ti.atEnd = false
		return
	}
	l.it.Reset(g.at(d))
	ti.atEnd = l.it.AtEnd()
}

// Up implements trie.Iterator.
func (ti *TrieIter) Up() {
	if ti.depth < 0 {
		panic("relation: Up at root")
	}
	ti.depth--
	ti.atEnd = false
}

// Next implements trie.Iterator.
func (ti *TrieIter) Next() {
	if ti.atEnd {
		return
	}
	l := &ti.lv[ti.depth]
	if l.one != nil {
		ti.atEnd = true // a single tuple's level has one key
		return
	}
	l.it.Next()
	ti.atEnd = l.it.AtEnd()
}

// Seek implements trie.Iterator.
func (ti *TrieIter) Seek(v tuple.Value) {
	if ti.atEnd {
		return
	}
	l := &ti.lv[ti.depth]
	if l.one != nil {
		ti.atEnd = tuple.Compare(l.one[ti.depth], v) < 0
		return
	}
	l.it.Seek(v)
	ti.atEnd = l.it.AtEnd()
}
