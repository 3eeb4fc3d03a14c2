// Package relation implements persistent relations: immutable sets of
// tuples stored in a purely functional treap keyed by lexicographic tuple
// order, presented to the join machinery as tries (paper §3.1, §3.2).
//
// Because storage is persistent, a snapshot of a relation (and hence of a
// whole workspace) is an O(1) pointer copy; versions share structure, and
// the difference between two versions is enumerable in time proportional
// to their divergence. These properties are what the incremental
// maintenance and transaction-repair layers are built on.
package relation

import (
	"slices"

	"logicblox/internal/treap"
	"logicblox/internal/tuple"
)

func tupleOps() treap.Ops[tuple.Tuple] {
	return treap.Ops[tuple.Tuple]{
		Compare: func(a, b tuple.Tuple) int { return a.Compare(b) },
		Hash:    func(t tuple.Tuple) uint64 { return t.Hash() },
	}
}

// Relation is an immutable set of same-arity tuples. The zero Relation is
// not usable; construct with New or FromTuples.
type Relation struct {
	arity int
	t     treap.Tree[tuple.Tuple, struct{}]
}

// New returns an empty relation of the given arity.
func New(arity int) Relation {
	return Relation{arity: arity, t: treap.New[tuple.Tuple, struct{}](tupleOps())}
}

// FromTuples builds a relation of the given arity from tuples in any
// order; duplicates collapse under set semantics (of tuples that compare
// equal, the last kept, as an insert loop would). It is the one bulk
// constructor: the tuples are sorted — only when they are not already
// strictly ascending, as snapshot rows and scans in stored order are — and
// handed to treap.BuildSorted, so n distinct tuples cost n treap nodes.
// ts is neither reordered nor retained; its tuples are stored uncopied,
// so callers must not mutate them afterward.
func FromTuples(arity int, ts []tuple.Tuple) Relation {
	sorted := true
	for i, t := range ts {
		if len(t) != arity {
			panic("relation: arity mismatch on insert")
		}
		if sorted && i > 0 && ts[i-1].Compare(t) >= 0 {
			sorted = false
		}
	}
	if !sorted {
		ts = slices.Clone(ts)
		tuple.SortTuples(ts) // stable: the last of equal tuples stays last
		out := ts[:0]
		for _, t := range ts {
			if n := len(out); n > 0 && out[n-1].Equal(t) {
				out[n-1] = t
				continue
			}
			out = append(out, t)
		}
		ts = out
	}
	return Relation{arity: arity, t: treap.BuildSorted(tupleOps(), ts, make([]struct{}, len(ts)))}
}

// Arity returns the number of columns.
func (r Relation) Arity() int { return r.arity }

// Len returns the number of tuples.
func (r Relation) Len() int { return r.t.Len() }

// IsEmpty reports whether the relation has no tuples.
func (r Relation) IsEmpty() bool { return r.t.IsEmpty() }

// Ends returns the relation's first and last tuples in lexicographic
// order; ok is false when it is empty.
func (r Relation) Ends() (first, last tuple.Tuple, ok bool) {
	first, _, ok = r.t.Min()
	last, _, _ = r.t.Max()
	return first, last, ok
}

// Contains reports whether t is in the relation.
func (r Relation) Contains(t tuple.Tuple) bool { return r.t.Contains(t) }

// Insert returns a relation including t. The input tuple must have the
// relation's arity and is not copied; callers must not mutate it afterward.
func (r Relation) Insert(t tuple.Tuple) Relation {
	if len(t) != r.arity {
		panic("relation: arity mismatch on insert")
	}
	return Relation{arity: r.arity, t: r.t.Insert(t, struct{}{})}
}

// Delete returns a relation excluding t.
func (r Relation) Delete(t tuple.Tuple) Relation {
	return Relation{arity: r.arity, t: r.t.Delete(t)}
}

// Union returns the set union of two same-arity relations.
func (r Relation) Union(o Relation) Relation {
	return Relation{arity: r.arity, t: r.t.Union(o.t)}
}

// Intersect returns the set intersection.
func (r Relation) Intersect(o Relation) Relation {
	return Relation{arity: r.arity, t: r.t.Intersect(o.t)}
}

// Difference returns r minus o.
func (r Relation) Difference(o Relation) Relation {
	return Relation{arity: r.arity, t: r.t.Difference(o.t)}
}

// Equal reports whether r and o hold exactly the same tuples. Shared
// subtrees are pruned, so comparing a branch against its parent costs time
// proportional to their divergence (O(1) when identical).
func (r Relation) Equal(o Relation) bool { return r.t.Equal(o.t) }

// StructuralHash returns the memoized structural hash; equal relations
// have equal hashes (unique representation).
func (r Relation) StructuralHash() uint64 { return r.t.StructuralHash() }

// ForEach calls fn for every tuple in lexicographic order until fn
// returns false.
func (r Relation) ForEach(fn func(tuple.Tuple) bool) {
	r.t.Ascend(func(t tuple.Tuple, _ struct{}) bool { return fn(t) })
}

// Slice returns all tuples in lexicographic order.
func (r Relation) Slice() []tuple.Tuple {
	out := make([]tuple.Tuple, 0, r.Len())
	r.ForEach(func(t tuple.Tuple) bool { out = append(out, t); return true })
	return out
}

// Cursor is a pull iterator over a relation's tuples in lexicographic
// order — the same sequence Slice returns, without building the slice.
// The relation is immutable, so the cursor stays valid indefinitely.
type Cursor struct {
	it *treap.Iterator[tuple.Tuple, struct{}]
}

// Cursor returns a pull iterator positioned before the first tuple.
func (r Relation) Cursor() *Cursor { return &Cursor{it: r.t.Iterator()} }

// CursorAt returns a pull iterator positioned before the least tuple ≥
// probe, found in one descent: a probe of one value starts at the first
// tuple whose first column is ≥ it.
func (r Relation) CursorAt(probe tuple.Tuple) *Cursor { return &Cursor{it: r.t.Seek(probe)} }

// Next returns the next tuple in lexicographic order; ok is false once
// the relation is exhausted. The tuple is the stored (immutable) value —
// callers must not mutate it.
func (c *Cursor) Next() (t tuple.Tuple, ok bool) {
	if c.it.AtEnd() {
		return nil, false
	}
	t = c.it.Key()
	c.it.Next()
	return t, true
}

// Diff enumerates the differences between r (old) and o (new): onDel for
// tuples only in r, onIns for tuples only in o. Cost is proportional to
// the unshared structure between the versions (paper §3.1: "changes
// between versions can be enumerated efficiently").
func (r Relation) Diff(o Relation, onDel, onIns func(tuple.Tuple)) {
	r.t.DiffWith(o.t, nil,
		func(t tuple.Tuple, _ struct{}) { onDel(t) },
		func(t tuple.Tuple, _ struct{}) { onIns(t) },
		nil)
}

// Permuted returns the relation with columns reordered so that column i of
// the result is column perm[i] of r. It materializes a secondary index for
// a variable ordering that is inconsistent with the base column order
// (paper §3.2). The permuted tuples share one backing array.
func (r Relation) Permuted(perm []int) Relation {
	k := len(perm)
	vals := make([]tuple.Value, r.Len()*k)
	ts := make([]tuple.Tuple, 0, r.Len())
	r.ForEach(func(t tuple.Tuple) bool {
		p := tuple.Tuple(vals[len(ts)*k : (len(ts)+1)*k : (len(ts)+1)*k])
		for i, c := range perm {
			p[i] = t[c]
		}
		ts = append(ts, p)
		return true
	})
	return FromTuples(k, ts)
}

// Lookup returns the tuples whose first len(prefix) columns equal prefix,
// in lexicographic order.
func (r Relation) Lookup(prefix tuple.Tuple) []tuple.Tuple {
	var out []tuple.Tuple
	for it := r.t.Seek(prefix); !it.AtEnd(); {
		t := it.Key()
		if len(t) < len(prefix) || !t[:len(prefix)].Equal(prefix) {
			break
		}
		out = append(out, t)
		it.Next()
	}
	return out
}

// FuncGet treats r as a functional predicate R[k1..kn]=v whose last column
// is the value: it returns the value for the given key prefix, which must
// have length arity-1. If multiple values exist (a functional-dependency
// violation upstream) the smallest is returned.
func (r Relation) FuncGet(key tuple.Tuple) (tuple.Value, bool) {
	if len(key) != r.arity-1 {
		panic("relation: FuncGet key must have arity-1 columns")
	}
	ts := r.Lookup(key)
	if len(ts) == 0 {
		return tuple.Value{}, false
	}
	return ts[0][r.arity-1], true
}

// KeyConflict treats r as a functional predicate R[k1..kn]=v and reports
// the first two tuples that share a key but differ in value — a
// functional-dependency violation — in one ordered pass: tuples of one
// key are adjacent.
func (r Relation) KeyConflict() (a, b tuple.Tuple, found bool) {
	var prev tuple.Tuple
	r.ForEach(func(t tuple.Tuple) bool {
		if prev != nil && prev[:r.arity-1].Equal(t[:r.arity-1]) {
			a, b, found = prev, t, true
			return false
		}
		prev = t
		return true
	})
	return a, b, found
}

// MatchExists reports whether any tuple matches the pattern: column i must
// equal pattern[i] unless wild[i]. It narrows the scan with the longest
// ground prefix (negated-atom and constraint existence checks).
func (r Relation) MatchExists(pattern []tuple.Value, wild []bool) bool {
	if len(pattern) != r.arity {
		panic("relation: MatchExists pattern arity mismatch")
	}
	ground := 0
	for ground < r.arity && !wild[ground] {
		ground++
	}
	if ground == r.arity {
		return r.Contains(tuple.Tuple(pattern))
	}
	prefix := tuple.Tuple(pattern[:ground])
	found := false
	for it := r.t.Seek(prefix); !it.AtEnd(); {
		t := it.Key()
		if ground > 0 && !t[:ground].Equal(prefix) {
			break
		}
		match := true
		for i := ground; i < r.arity; i++ {
			if !wild[i] && !tuple.Equal(t[i], pattern[i]) {
				match = false
				break
			}
		}
		if match {
			found = true
			break
		}
		it.Next()
	}
	return found
}

// Sample returns a deterministic sample of approximately k tuples (every
// ⌈n/k⌉-th tuple in order), preserving sortedness. The query optimizer
// maintains such samples to compare candidate variable orderings
// (paper §3.2).
func (r Relation) Sample(k int) Relation {
	n := r.Len()
	if k <= 0 || n <= k {
		return r
	}
	stride := (n + k - 1) / k
	ts := make([]tuple.Tuple, 0, k)
	i := 0
	r.ForEach(func(t tuple.Tuple) bool {
		if i%stride == 0 {
			ts = append(ts, t)
		}
		i++
		return true
	})
	return FromTuples(r.arity, ts)
}
