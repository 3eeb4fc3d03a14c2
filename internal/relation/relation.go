// Package relation implements persistent relations: immutable sets of
// tuples stored as persistent tries, one treap per trie level, and
// presented to the join machinery through trie iterators (paper §3.1,
// §3.2).
//
// The tuples of a relation that share a prefix of d columns form a group;
// the whole relation is the group of the empty prefix. A group of one
// tuple is stored as that tuple. A larger group is a treap keyed by the
// value of column d, each key bound to its own group, one column longer.
// The rule depends only on the contents, and each treap is uniquely
// represented, so a relation is too: equal relations have equal shape
// and StructuralHash, and equality prunes on shared subtrees at every
// level.
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

// group is the set of a relation's tuples that share a prefix of d
// columns. The zero group is empty; a group of one tuple holds it in one;
// otherwise sub is the root of the trie level below the prefix: a treap
// keyed by column d whose values are the groups one column longer (at).
type group struct {
	one tuple.Tuple
	sub *treap.Node[tuple.Value, group]
}

// at returns the level of a group d columns below the root as a treap.
func (g group) at(d int) treap.Tree[tuple.Value, group] { return treap.Rooted(levelAt(d), g.sub) }

// levelOps are the Ops of the trie levels at depths 0 to 31; deeper
// levels make their own (levelAt).
var levelOps = func() (ops [32]*treap.Ops[tuple.Value, group]) {
	for d := range ops {
		ops[d] = newLevelOps(d)
	}
	return ops
}()

// levelAt returns the Ops of the level at depth d.
func levelAt(d int) *treap.Ops[tuple.Value, group] {
	if d < len(levelOps) {
		return levelOps[d]
	}
	return newLevelOps(d)
}

// newLevelOps orders the level at depth d by its keys' values and hashes
// each key's group into the level's structural hash; a key weighs as
// many tuples as its group holds, so a level's Len is its group's.
func newLevelOps(d int) *treap.Ops[tuple.Value, group] {
	return &treap.Ops[tuple.Value, group]{
		Compare:   tuple.Compare,
		Hash:      tuple.Value.Hash,
		ValueHash: func(g group) uint64 { return g.hash(d + 1) },
		Weight:    group.len,
	}
}

func (g group) len() int {
	if g.one != nil {
		return 1
	}
	return g.sub.Len()
}

// hash is the structural hash of a group d columns below the root. A
// single tuple hashes by its columns from d on: the levels above it hash
// the rest.
func (g group) hash(d int) uint64 {
	if g.one != nil {
		return g.one[d:].Hash()
	}
	return g.sub.StructuralHash()
}

func (g group) isEmpty() bool { return g.one == nil && g.sub == nil }

// grouped returns the group a level holds: empty, its only tuple, or the
// level itself.
func grouped(sub treap.Tree[tuple.Value, group]) group {
	switch sub.Len() {
	case 0:
		return group{}
	case 1:
		_, g, _ := sub.Min() // a group of one tuple
		return g
	}
	return group{sub: sub.Root()}
}

// single returns the group holding only t; a tuple of no columns is
// stored non-nil, so that it is told apart from the empty group.
func single(t tuple.Tuple) group {
	if t == nil {
		t = tuple.Tuple{}
	}
	return group{one: t}
}

// first and last return the least and greatest tuples of a group d
// columns below the root (nil when it is empty).
func (g group) first(d int) tuple.Tuple {
	for ; g.one == nil && g.sub != nil; d++ {
		_, g, _ = g.at(d).Min()
	}
	return g.one
}

func (g group) last(d int) tuple.Tuple {
	for ; g.one == nil && g.sub != nil; d++ {
		_, g, _ = g.at(d).Max()
	}
	return g.one
}

// contains reports whether the group, of the tuples sharing t's first d
// columns, holds t.
func (g group) contains(t tuple.Tuple, d int) bool {
	if g.isEmpty() {
		return false
	}
	for g.one == nil {
		var ok bool
		if g, ok = g.at(d).Get(t[d]); !ok {
			return false
		}
		d++
	}
	return g.one.Equal(t)
}

// insert returns the group, of the tuples sharing t's first d columns,
// with t added (replacing a tuple equal to it).
func (g group) insert(t tuple.Tuple, d int) group {
	switch {
	case g.one != nil:
		if g.one.Equal(t) {
			return single(t)
		}
		return pair(g.one, t, d)
	case g.sub == nil:
		return single(t)
	}
	lv := g.at(d)
	k, c, ok := lv.Find(t[d])
	if !ok {
		return group{sub: lv.Insert(t[d], single(t)).Root()}
	}
	return group{sub: lv.Insert(k, c.insert(t, d+1)).Root()}
}

// pair returns the group of two distinct tuples sharing their first d
// columns.
func pair(a, b tuple.Tuple, d int) group {
	lv := treap.New(levelAt(d))
	if tuple.Equal(a[d], b[d]) {
		return group{sub: lv.Insert(a[d], pair(a, b, d+1)).Root()}
	}
	return group{sub: lv.Insert(a[d], single(a)).Insert(b[d], single(b)).Root()}
}

// delete returns the group, of the tuples sharing t's first d columns,
// without t, and whether t was there. A level keeps the keys it stores.
func (g group) delete(t tuple.Tuple, d int) (group, bool) {
	switch {
	case g.one != nil:
		if g.one.Equal(t) {
			return group{}, true
		}
		return g, false
	case g.sub == nil:
		return g, false
	}
	lv := g.at(d)
	k, c, ok := lv.Find(t[d])
	if !ok {
		return g, false
	}
	if c, ok = c.delete(t, d+1); !ok {
		return g, false
	}
	if c.isEmpty() {
		return grouped(lv.Delete(k)), true
	}
	return grouped(lv.Insert(k, c)), true
}

// union, intersect and difference combine two groups of the tuples
// sharing one prefix of d columns, level by level: a key in both levels
// combines its two groups one column deeper.
func union(a, b group, d int) group {
	switch {
	case a.isEmpty():
		return b
	case b.isEmpty():
		return a
	case b.one != nil:
		if a.contains(b.one, d) {
			return a
		}
		return a.insert(b.one, d)
	case a.one != nil:
		if b.contains(a.one, d) {
			return b
		}
		return b.insert(a.one, d)
	}
	return group{sub: a.at(d).UnionWith(b.at(d), func(x, y group) group { return union(x, y, d+1) }).Root()}
}

func intersect(a, b group, d int) group {
	switch {
	case a.isEmpty() || b.isEmpty():
		return group{}
	case a.one != nil:
		if b.contains(a.one, d) {
			return a
		}
		return group{}
	case b.one != nil:
		if a.contains(b.one, d) {
			return b
		}
		return group{}
	}
	return grouped(a.at(d).IntersectWith(b.at(d), func(x, y group) (group, bool) {
		g := intersect(x, y, d+1)
		return g, !g.isEmpty()
	}))
}

func difference(a, b group, d int) group {
	switch {
	case a.isEmpty() || b.isEmpty():
		return a
	case a.one != nil:
		if b.contains(a.one, d) {
			return group{}
		}
		return a
	case b.one != nil:
		g, _ := a.delete(b.one, d)
		return g
	}
	return grouped(a.at(d).DifferenceWith(b.at(d), func(x, y group) (group, bool) {
		g := difference(x, y, d+1)
		return g, !g.isEmpty()
	}))
}

// equalGroups reports whether two groups d columns below the root hold
// the same tuples. A group of one tuple never equals a level, which holds
// two or more.
func equalGroups(a, b group, d int) bool {
	switch {
	case a.one != nil || b.one != nil:
		return a.one != nil && b.one != nil && a.one.Equal(b.one)
	case a.sub == b.sub:
		return a.at(d).Equal(b.at(d)) // shared: counted, and O(1)
	}
	return a.at(d).EqualWith(b.at(d), func(x, y group) bool { return equalGroups(x, y, d+1) })
}

// sameGroup reports whether two groups are literally one: a level's root
// or one stored tuple.
func sameGroup(a, b group) bool {
	if a.one != nil || b.one != nil {
		return len(a.one) > 0 && len(b.one) > 0 && &a.one[0] == &b.one[0]
	}
	return a.sub == b.sub
}

// diffGroups calls onDel for each tuple only in a and onIns for each only
// in b, two groups d columns below the root, pruning what the two share
// at every level.
func diffGroups(a, b group, d int, onDel, onIns func(tuple.Tuple)) {
	switch {
	case a.one != nil && b.one != nil:
		if !a.one.Equal(b.one) {
			onDel(a.one)
			onIns(b.one)
		}
	case a.one != nil:
		diffOne(a.one, b, d, onDel, onIns)
	case b.one != nil:
		diffOne(b.one, a, d, onIns, onDel)
	default:
		a.at(d).DiffWith(b.at(d), sameGroup,
			func(_ tuple.Value, g group) { g.each(d+1, onDel) },
			func(_ tuple.Value, g group) { g.each(d+1, onIns) },
			func(_ tuple.Value, x, y group) { diffGroups(x, y, d+1, onDel, onIns) })
	}
}

// diffOne diffs the group of one tuple t against g, d columns below the
// root: onGone(t) unless g holds it, and onNew for every other tuple of g.
func diffOne(t tuple.Tuple, g group, d int, onGone, onNew func(tuple.Tuple)) {
	found := false
	g.each(d, func(u tuple.Tuple) {
		if !found && u.Equal(t) {
			found = true
		} else {
			onNew(u)
		}
	})
	if !found {
		onGone(t)
	}
}

// each calls fn in order for every tuple of a group d columns below the
// root.
func (g group) each(d int, fn func(tuple.Tuple)) {
	c := cursorOf(g, d)
	for t, ok := c.Next(); ok; t, ok = c.Next() {
		fn(t)
	}
}

// builder builds groups from sorted tuples, keeping each level's keys and
// groups in scratch slices shared by the whole build.
type builder struct {
	keys []tuple.Value
	vals []group
}

// build returns the group of ts, strictly ascending tuples sharing their
// first d columns: each level is one treap.BuildSorted over the distinct
// values of column d.
func (b *builder) build(ts []tuple.Tuple, d int) group {
	switch len(ts) {
	case 0:
		return group{}
	case 1:
		return single(ts[0])
	}
	base := len(b.keys)
	for i := 0; i < len(ts); {
		key := ts[i][d]
		j := i + 1
		for j < len(ts) && tuple.Equal(ts[j][d], key) {
			j++
		}
		b.keys = append(b.keys, key)
		if j == i+1 {
			b.vals = append(b.vals, single(ts[i]))
		} else {
			k := len(b.vals)
			b.vals = append(b.vals, group{})
			g := b.build(ts[i:j], d+1) // uses the scratch past k and gives it back
			b.vals[k] = g
		}
		i = j
	}
	lv := treap.BuildSorted(levelAt(d), b.keys[base:], b.vals[base:])
	b.keys, b.vals = b.keys[:base], b.vals[:base]
	return group{sub: lv.Root()}
}

// Relation is an immutable set of same-arity tuples. The zero Relation is
// not usable; construct with New or FromTuples.
type Relation struct {
	arity int
	root  group
}

// New returns an empty relation of the given arity.
func New(arity int) Relation { return Relation{arity: arity} }

// FromTuples builds a relation of the given arity from tuples in any
// order; duplicates collapse under set semantics (of tuples that compare
// equal, the last kept, as an insert loop would). It is the one bulk
// constructor: the tuples are sorted — only when they are not already
// strictly ascending, as snapshot rows and scans in stored order are —
// and each trie level is built by one treap.BuildSorted, so the treap
// nodes it makes are the distinct prefixes not stored as a single tuple.
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
	var b builder
	return Relation{arity: arity, root: b.build(ts, 0)}
}

// Arity returns the number of columns.
func (r Relation) Arity() int { return r.arity }

// Len returns the number of tuples.
func (r Relation) Len() int { return r.root.len() }

// IsEmpty reports whether the relation has no tuples.
func (r Relation) IsEmpty() bool { return r.root.isEmpty() }

// Ends returns the relation's first and last tuples in lexicographic
// order; ok is false when it is empty.
func (r Relation) Ends() (first, last tuple.Tuple, ok bool) {
	if r.IsEmpty() {
		return nil, nil, false
	}
	return r.root.first(0), r.root.last(0), true
}

// Contains reports whether t is in the relation.
func (r Relation) Contains(t tuple.Tuple) bool {
	return len(t) == r.arity && r.root.contains(t, 0)
}

// Insert returns a relation including t. The input tuple must have the
// relation's arity and is not copied; callers must not mutate it afterward.
func (r Relation) Insert(t tuple.Tuple) Relation {
	if len(t) != r.arity {
		panic("relation: arity mismatch on insert")
	}
	return Relation{arity: r.arity, root: r.root.insert(t, 0)}
}

// Delete returns a relation excluding t.
func (r Relation) Delete(t tuple.Tuple) Relation {
	if len(t) != r.arity {
		return r
	}
	root, _ := r.root.delete(t, 0)
	return Relation{arity: r.arity, root: root}
}

// Union returns the set union of two same-arity relations.
func (r Relation) Union(o Relation) Relation {
	return Relation{arity: r.arity, root: union(r.root, o.root, 0)}
}

// Intersect returns the set intersection.
func (r Relation) Intersect(o Relation) Relation {
	return Relation{arity: r.arity, root: intersect(r.root, o.root, 0)}
}

// Difference returns r minus o.
func (r Relation) Difference(o Relation) Relation {
	return Relation{arity: r.arity, root: difference(r.root, o.root, 0)}
}

// Equal reports whether r and o hold exactly the same tuples. Shared
// subtrees are pruned at every level, so comparing a branch against its
// parent costs time proportional to their divergence (O(1) when
// identical).
func (r Relation) Equal(o Relation) bool { return equalGroups(r.root, o.root, 0) }

// StructuralHash returns the memoized structural hash; equal relations
// have equal hashes (unique representation), and it covers every level.
func (r Relation) StructuralHash() uint64 { return r.root.hash(0) }

// ForEach calls fn for every tuple in lexicographic order until fn
// returns false.
func (r Relation) ForEach(fn func(tuple.Tuple) bool) {
	c := r.Cursor()
	for t, ok := c.Next(); ok && fn(t); t, ok = c.Next() {
	}
}

// Slice returns all tuples in lexicographic order.
func (r Relation) Slice() []tuple.Tuple {
	out := make([]tuple.Tuple, 0, r.Len())
	r.root.each(0, func(t tuple.Tuple) { out = append(out, t) })
	return out
}

// Diff enumerates the differences between r (old) and o (new): onDel for
// tuples only in r, onIns for tuples only in o. Cost is proportional to
// the unshared structure between the versions, level by level (paper
// §3.1: "changes between versions can be enumerated efficiently").
func (r Relation) Diff(o Relation, onDel, onIns func(tuple.Tuple)) {
	diffGroups(r.root, o.root, 0, onDel, onIns)
}

// Permuted returns the relation with columns reordered so that column i of
// the result is column perm[i] of r. It materializes a secondary index for
// a variable ordering that is inconsistent with the base column order
// (paper §3.2). The permuted tuples share one backing array.
func (r Relation) Permuted(perm []int) Relation {
	k := len(perm)
	vals := make([]tuple.Value, r.Len()*k)
	ts := make([]tuple.Tuple, 0, r.Len())
	r.root.each(0, func(t tuple.Tuple) {
		p := tuple.Tuple(vals[len(ts)*k : (len(ts)+1)*k : (len(ts)+1)*k])
		for i, c := range perm {
			p[i] = t[c]
		}
		ts = append(ts, p)
	})
	return FromTuples(k, ts)
}

// groupOf returns the group of the tuples whose first len(prefix) columns
// equal prefix: one Get per level.
func (r Relation) groupOf(prefix tuple.Tuple) group {
	if len(prefix) > r.arity {
		return group{}
	}
	g := r.root
	for d, v := range prefix {
		if g.one != nil {
			if tuple.Tuple(g.one[d:len(prefix)]).Equal(prefix[d:]) {
				return g
			}
			return group{}
		}
		var ok bool
		if g, ok = g.at(d).Get(v); !ok {
			return group{}
		}
	}
	return g
}

// Lookup returns the tuples whose first len(prefix) columns equal prefix,
// in lexicographic order.
func (r Relation) Lookup(prefix tuple.Tuple) []tuple.Tuple {
	g := r.groupOf(prefix)
	if g.isEmpty() {
		return nil
	}
	out := make([]tuple.Tuple, 0, g.len())
	g.each(len(prefix), func(t tuple.Tuple) { out = append(out, t) })
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
	t := r.groupOf(key).first(len(key))
	if t == nil {
		return tuple.Value{}, false
	}
	return t[r.arity-1], true
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
// equal pattern[i] unless wild[i]. Each ground column is one Get in its
// level; only a wild column followed by a ground one walks its level
// (negated-atom and constraint existence checks).
func (r Relation) MatchExists(pattern []tuple.Value, wild []bool) bool {
	if len(pattern) != r.arity {
		panic("relation: MatchExists pattern arity mismatch")
	}
	return r.root.matches(pattern, wild, 0)
}

func (g group) matches(pattern []tuple.Value, wild []bool, d int) bool {
	switch {
	case g.one != nil:
		for i := d; i < len(pattern); i++ {
			if !wild[i] && !tuple.Equal(g.one[i], pattern[i]) {
				return false
			}
		}
		return true
	case g.sub == nil:
		return false
	case !wild[d]:
		c, ok := g.at(d).Get(pattern[d])
		return ok && c.matches(pattern, wild, d+1)
	case !slices.Contains(wild[d:], false):
		return true // a group is never empty below the root
	}
	found := false
	g.at(d).Ascend(func(_ tuple.Value, c group) bool {
		found = c.matches(pattern, wild, d+1)
		return !found
	})
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
	r.root.each(0, func(t tuple.Tuple) {
		if i%stride == 0 {
			ts = append(ts, t)
		}
		i++
	})
	return FromTuples(r.arity, ts)
}
