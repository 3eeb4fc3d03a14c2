package relation

import (
	"logicblox/internal/treap"
	"logicblox/internal/trie"
	"logicblox/internal/tuple"
)

// TrieIter presents a Relation as a trie (implements trie.Iterator).
//
// It is backed by one iterator over the relation's tuple treap, made on
// the first Open and reused for the TrieIter's life. Depth-first trie
// navigation (the access pattern of leapfrog triejoin) visits tuples in
// lexicographic order, so every Next/Seek is a forward finger Seek on the
// treap iterator. An Open after Up re-seeks it from the root to the
// group's first tuple, since an Up may leave it past the group. Each
// operation is O(log N) as required by the iterator contract, and none
// allocates once the treap iterator's stack has grown to the tree height.
// A one-atom join is a scan: trie.Scanner walks the treap in order.
type TrieIter struct {
	r      Relation
	it     *treap.Iterator[tuple.Tuple, struct{}]
	prefix tuple.Tuple // keys selected at levels 0..depth
	depth  int
	atEnd  bool
	stale  bool        // set by Up: underlying iterator may sit past this group
	probe  tuple.Tuple // scratch buffer for seek bounds
}

// Iterator returns a trie iterator positioned at the synthetic root.
func (r Relation) Iterator() trie.Iterator {
	return &TrieIter{
		r:      r,
		depth:  -1,
		prefix: make(tuple.Tuple, 0, r.arity),
		probe:  make(tuple.Tuple, 0, r.arity+1),
	}
}

// Scan implements trie.Scanner.
func (ti *TrieIter) Scan(from tuple.Value) func() (tuple.Tuple, bool) {
	ti.probe = append(ti.probe[:0], from)
	return ti.r.CursorAt(ti.probe).Next
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
	return ti.prefix[ti.depth]
}

// Open implements trie.Iterator.
func (ti *TrieIter) Open() {
	if ti.depth+1 >= ti.r.arity {
		panic("relation: Open below leaf level")
	}
	if ti.depth >= 0 && ti.atEnd {
		panic("relation: Open at end of level")
	}
	if ti.depth < 0 {
		// (Re-)open at the root: rewind to the first tuple.
		if ti.it == nil {
			ti.it = ti.r.t.Iterator()
		} else {
			ti.it.First()
		}
		ti.stale = false
		ti.depth = 0
		ti.prefix = ti.prefix[:0]
		if ti.it.AtEnd() {
			ti.atEnd = true
			return
		}
		ti.prefix = append(ti.prefix, ti.it.Key()[0])
		ti.atEnd = false
		return
	}
	if ti.stale {
		// An earlier Up left the underlying iterator beyond this group
		// (Seek cannot move backward), so re-seek it from the root to the
		// group's first tuple: the least tuple ≥ the current prefix.
		ti.it.SeekFromRoot(ti.prefix)
		ti.stale = false
	}
	// The underlying iterator is positioned at the first tuple of the
	// current key's group (an invariant of Next/Seek/Open landings), so
	// the first child key can be read off directly.
	ti.depth++
	ti.prefix = append(ti.prefix, ti.it.Key()[ti.depth])
	ti.atEnd = false
}

// Up implements trie.Iterator.
func (ti *TrieIter) Up() {
	if ti.depth < 0 {
		panic("relation: Up at root")
	}
	ti.depth--
	ti.prefix = ti.prefix[:ti.depth+1]
	ti.atEnd = false
	ti.stale = true
}

// Next implements trie.Iterator.
func (ti *TrieIter) Next() {
	if ti.atEnd {
		return
	}
	// Seek just past (prefix[0..depth], +inf, ...): the least tuple whose
	// value at this depth exceeds the current key under the same parent.
	ti.probe = ti.probe[:0]
	ti.probe = append(ti.probe, ti.prefix...)
	ti.probe = append(ti.probe, tuple.MaxValue())
	ti.land()
}

// Seek implements trie.Iterator.
func (ti *TrieIter) Seek(v tuple.Value) {
	if ti.atEnd {
		return
	}
	if tuple.Compare(v, ti.prefix[ti.depth]) <= 0 {
		return // already at or past the probe
	}
	ti.probe = ti.probe[:0]
	ti.probe = append(ti.probe, ti.prefix[:ti.depth]...)
	ti.probe = append(ti.probe, v)
	ti.land()
}

// land seeks the underlying iterator to ti.probe and re-derives the
// position at the current depth: either on a new sibling key (same
// parent prefix) or at the end of the level.
func (ti *TrieIter) land() {
	ti.it.Seek(ti.probe)
	ti.stale = false
	if ti.it.AtEnd() {
		ti.atEnd = true
		return
	}
	t := ti.it.Key()
	// Still under the same parent prefix?
	for i := 0; i < ti.depth; i++ {
		if !tuple.Equal(t[i], ti.prefix[i]) {
			ti.atEnd = true
			return
		}
	}
	ti.prefix[ti.depth] = t[ti.depth]
	ti.atEnd = false
}
