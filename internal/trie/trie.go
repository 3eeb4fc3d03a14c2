// Package trie defines the trie-iterator interface at the heart of the
// engine's join machinery (paper §3.2).
//
// An n-ary predicate, stored in lexicographically sorted order, is
// logically presented as a trie: each level corresponds to an argument
// position and each tuple to a unique root-to-leaf path. An Iterator
// combines the linear-iterator interface (Next, Seek over the siblings at
// one level) with vertical navigation (Open descends to the first child,
// Up returns to the parent). Leapfrog Triejoin is written entirely against
// this interface, so base predicates, secondary indices, and virtual
// predicates (constants, ranges) are all joinable uniformly.
package trie

import (
	"sort"

	"logicblox/internal/tuple"
)

// Iterator navigates a predicate presented as a trie.
//
// The iterator starts at the synthetic root (depth -1). Open descends one
// level and positions at the smallest key; Up pops back. At a level, Next
// advances to the next sibling and Seek(v) advances to the least sibling
// ≥ v (the probe must be ≥ the current key). Next and Seek may land "at
// end" of the level, from which only Up (or Seek again, idempotently at
// end) is legal.
//
// Complexity contract: Next and Seek are O(log N), and m ascending visits
// at one level cost amortized O(1 + log(N/m)); an iterator whose whole-trie
// walk can do better offers Scanner.
type Iterator interface {
	// Key returns the key at the current position. It must only be called
	// when positioned on a key (not at end, not at the root).
	Key() tuple.Value
	// Next advances to the next key at this level.
	Next()
	// Seek advances to the least key ≥ v at this level, or to the end.
	Seek(v tuple.Value)
	// AtEnd reports whether the current level is exhausted.
	AtEnd() bool
	// Open descends to the first key one level deeper. It must only be
	// called when positioned on a key with Depth()+1 < Arity().
	Open()
	// Up returns to the parent level.
	Up()
	// Depth returns the current level: -1 at the root, 0..Arity()-1 on keys.
	Depth() int
	// Arity returns the number of levels (the predicate's arity).
	Arity() int
}

// Scanner is an optional capability of an Iterator: Scan returns a pull
// function yielding, in order and at amortized O(1) each, every tuple
// whose first column is ≥ from (tuple.MinValue() for all of them), for
// a one-atom join to read its relation whole or from a lower bound on
// its first column. The tuples are stored values, not to be mutated.
// Counting does not forward Scan.
type Scanner interface {
	Scan(from tuple.Value) func() (tuple.Tuple, bool)
}

// SliceIterator is a reference Iterator over a sorted, deduplicated slice
// of tuples. It is used for virtual predicates materialized on the fly,
// in tests as a model implementation, and for small deltas.
type SliceIterator struct {
	tuples []tuple.Tuple
	arity  int
	depth  int
	// For each open level d: the half-open range [lo,hi) of tuples sharing
	// the prefix above d, and pos = index of the current key's first tuple.
	lo, hi, pos []int
	atEnd       bool
}

// NewSliceIterator returns an Iterator over tuples, which must be sorted
// and duplicate-free (use tuple.SortTuples and tuple.DedupSorted), all of
// the given arity.
func NewSliceIterator(tuples []tuple.Tuple, arity int) *SliceIterator {
	return &SliceIterator{
		tuples: tuples,
		arity:  arity,
		depth:  -1,
		lo:     make([]int, 0, arity),
		hi:     make([]int, 0, arity),
		pos:    make([]int, 0, arity),
	}
}

// Arity implements Iterator.
func (s *SliceIterator) Arity() int { return s.arity }

// Depth implements Iterator.
func (s *SliceIterator) Depth() int { return s.depth }

// AtEnd implements Iterator.
func (s *SliceIterator) AtEnd() bool { return s.atEnd }

// Key implements Iterator.
func (s *SliceIterator) Key() tuple.Value {
	if s.depth < 0 || s.atEnd {
		panic("trie: Key called at root or at end")
	}
	return s.tuples[s.pos[s.depth]][s.depth]
}

// Open implements Iterator.
func (s *SliceIterator) Open() {
	if s.depth+1 >= s.arity {
		panic("trie: Open below leaf level")
	}
	var lo, hi int
	if s.depth < 0 {
		lo, hi = 0, len(s.tuples)
	} else {
		if s.atEnd {
			panic("trie: Open at end of level")
		}
		d := s.depth
		lo = s.pos[d]
		hi = s.groupEnd(d, lo, s.hi[d])
	}
	s.depth++
	s.lo = append(s.lo, lo)
	s.hi = append(s.hi, hi)
	s.pos = append(s.pos, lo)
	s.atEnd = lo >= hi
}

// groupEnd returns the end of the run of tuples in [lo,hi) sharing
// tuples[lo][d].
func (s *SliceIterator) groupEnd(d, lo, hi int) int {
	key := s.tuples[lo][d]
	return lo + sort.Search(hi-lo, func(i int) bool {
		return tuple.Compare(s.tuples[lo+i][d], key) > 0
	})
}

// Up implements Iterator.
func (s *SliceIterator) Up() {
	if s.depth < 0 {
		panic("trie: Up at root")
	}
	s.depth--
	s.lo = s.lo[:len(s.lo)-1]
	s.hi = s.hi[:len(s.hi)-1]
	s.pos = s.pos[:len(s.pos)-1]
	s.atEnd = false
}

// Next implements Iterator.
func (s *SliceIterator) Next() {
	if s.atEnd {
		return
	}
	d := s.depth
	s.pos[d] = s.groupEnd(d, s.pos[d], s.hi[d])
	s.atEnd = s.pos[d] >= s.hi[d]
}

// Seek implements Iterator.
func (s *SliceIterator) Seek(v tuple.Value) {
	if s.atEnd {
		return
	}
	d := s.depth
	lo, hi := s.pos[d], s.hi[d]
	s.pos[d] = lo + sort.Search(hi-lo, func(i int) bool {
		return tuple.Compare(s.tuples[lo+i][d], v) >= 0
	})
	s.atEnd = s.pos[d] >= s.hi[d]
}

// ConstIterator is a virtual unary predicate holding exactly one value.
// It lets constants in queries (e.g. A(x, 2)) participate in leapfrog
// joins without materialization (paper §3.2).
type ConstIterator struct {
	val   tuple.Value
	depth int
	atEnd bool
}

// NewConstIterator returns a unary iterator over the singleton {v}.
func NewConstIterator(v tuple.Value) *ConstIterator {
	return &ConstIterator{val: v, depth: -1}
}

// Arity implements Iterator.
func (c *ConstIterator) Arity() int { return 1 }

// Depth implements Iterator.
func (c *ConstIterator) Depth() int { return c.depth }

// AtEnd implements Iterator.
func (c *ConstIterator) AtEnd() bool { return c.atEnd }

// Key implements Iterator.
func (c *ConstIterator) Key() tuple.Value {
	if c.depth != 0 || c.atEnd {
		panic("trie: Key called at root or at end")
	}
	return c.val
}

// Open implements Iterator.
func (c *ConstIterator) Open() {
	if c.depth != -1 {
		panic("trie: Open below leaf level")
	}
	c.depth = 0
	c.atEnd = false
}

// Up implements Iterator.
func (c *ConstIterator) Up() {
	if c.depth != 0 {
		panic("trie: Up at root")
	}
	c.depth = -1
	c.atEnd = false
}

// Next implements Iterator.
func (c *ConstIterator) Next() { c.atEnd = true }

// Seek implements Iterator.
func (c *ConstIterator) Seek(v tuple.Value) {
	if tuple.Compare(v, c.val) > 0 {
		c.atEnd = true
	}
}

// RangeIterator is a virtual unary predicate covering the half-open
// interval [lo, hi) densely: joined on a variable, it restricts that
// variable to the range without enumerating it (Seek answers any probe in
// range with the probe itself). A query's bound on a variable (x < c) and
// a partition of a parallel join's first variable are both ranges.
type RangeIterator struct {
	lo, hi tuple.Value // hi = MaxValue means unbounded above
	cur    tuple.Value
	depth  int
	atEnd  bool
}

// NewRangeIterator returns a unary iterator over [lo, hi).
func NewRangeIterator(lo, hi tuple.Value) *RangeIterator {
	return &RangeIterator{lo: lo, hi: hi, depth: -1}
}

// Bounds returns the range [lo, hi).
func (r *RangeIterator) Bounds() (lo, hi tuple.Value) { return r.lo, r.hi }

// Arity implements Iterator.
func (r *RangeIterator) Arity() int { return 1 }

// Depth implements Iterator.
func (r *RangeIterator) Depth() int { return r.depth }

// AtEnd implements Iterator.
func (r *RangeIterator) AtEnd() bool { return r.atEnd }

// Key implements Iterator.
func (r *RangeIterator) Key() tuple.Value {
	if r.depth != 0 || r.atEnd {
		panic("trie: Key called at root or at end")
	}
	return r.cur
}

// Open implements Iterator.
func (r *RangeIterator) Open() {
	if r.depth != -1 {
		panic("trie: Open below leaf level")
	}
	r.depth = 0
	r.cur = r.lo
	r.atEnd = !r.inRange(r.lo)
}

// Up implements Iterator.
func (r *RangeIterator) Up() {
	r.depth = -1
	r.atEnd = false
}

func (r *RangeIterator) inRange(v tuple.Value) bool {
	return tuple.Compare(v, r.hi) < 0
}

// Next implements Iterator: a dense range advances to the successor
// of the current key in the value order (the leapfrog search then seeks
// the real iterators past it).
func (r *RangeIterator) Next() {
	if r.atEnd {
		return
	}
	r.cur = tuple.Successor(r.cur)
	r.atEnd = !r.inRange(r.cur)
}

// Seek implements Iterator.
func (r *RangeIterator) Seek(v tuple.Value) {
	if tuple.Compare(v, r.lo) < 0 {
		v = r.lo
	}
	r.cur = v
	r.atEnd = !r.inRange(v)
}

// Collect drains an iterator depth-first from its current (root) position
// and returns all tuples. It is a testing and debugging aid.
func Collect(it Iterator) []tuple.Tuple {
	var out []tuple.Tuple
	prefix := make(tuple.Tuple, 0, it.Arity())
	var walk func()
	walk = func() {
		it.Open()
		for !it.AtEnd() {
			prefix = append(prefix, it.Key())
			if it.Depth() == it.Arity()-1 {
				out = append(out, prefix.Clone())
			} else {
				walk()
			}
			prefix = prefix[:len(prefix)-1]
			it.Next()
		}
		it.Up()
	}
	walk()
	return out
}

// OpCounter tallies the iterator operations of a join run; the optimizer
// uses the count as the cost estimate of a candidate variable order.
type OpCounter struct{ Ops int }

// Counting wraps an iterator so that every navigation bumps the counter.
func Counting(it Iterator, c *OpCounter) Iterator { return &countingIter{it: it, c: c} }

type countingIter struct {
	it Iterator
	c  *OpCounter
}

func (ci *countingIter) Key() tuple.Value { return ci.it.Key() }
func (ci *countingIter) Next()            { ci.c.Ops++; ci.it.Next() }
func (ci *countingIter) Seek(v tuple.Value) {
	ci.c.Ops++
	ci.it.Seek(v)
}
func (ci *countingIter) AtEnd() bool { return ci.it.AtEnd() }
func (ci *countingIter) Open() {
	ci.c.Ops++
	ci.it.Open()
}
func (ci *countingIter) Up()        { ci.it.Up() }
func (ci *countingIter) Depth() int { return ci.it.Depth() }
func (ci *countingIter) Arity() int { return ci.it.Arity() }
