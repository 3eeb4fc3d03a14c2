// Package joins implements traditional pairwise join operators — hash join
// and sort-merge join — used as in-repo stand-ins for the conventional
// RDBMS engines the paper compares against in Figure 5. They execute the
// same (E ⋈ E) ⋈ E plan shape a pairwise optimizer would pick for the
// 3-clique query, so benchmarks isolate the algorithmic difference between
// worst-case-optimal and binary-join processing.
package joins

import (
	"logicblox/internal/relation"
	"logicblox/internal/tuple"
)

// hashKey builds a map key from selected columns.
func hashKey(t tuple.Tuple, cols []int) string {
	var b []byte
	for _, c := range cols {
		b = append(b, t[c].String()...)
		b = append(b, 0)
	}
	return string(b)
}

// HashJoin computes the equi-join of l and r on l[lCols[i]] = r[rCols[i]],
// returning concatenated tuples (all columns of l followed by all columns
// of r). The smaller input should be passed as l (the build side).
func HashJoin(l, r relation.Relation, lCols, rCols []int) []tuple.Tuple {
	build := make(map[string][]tuple.Tuple, l.Len())
	l.ForEach(func(t tuple.Tuple) bool {
		k := hashKey(t, lCols)
		build[k] = append(build[k], t)
		return true
	})
	var out []tuple.Tuple
	r.ForEach(func(t tuple.Tuple) bool {
		for _, lt := range build[hashKey(t, rCols)] {
			joined := make(tuple.Tuple, 0, len(lt)+len(t))
			joined = append(joined, lt...)
			joined = append(joined, t...)
			out = append(out, joined)
		}
		return true
	})
	return out
}

// MergeJoin computes the equi-join of l and r on their FIRST columns using
// the classical sort-merge algorithm (both relations are already stored in
// sorted order). Output tuples concatenate l and r columns.
func MergeJoin(l, r relation.Relation) []tuple.Tuple {
	ls, rs := l.Slice(), r.Slice()
	var out []tuple.Tuple
	i, j := 0, 0
	for i < len(ls) && j < len(rs) {
		c := tuple.Compare(ls[i][0], rs[j][0])
		switch {
		case c < 0:
			i++
		case c > 0:
			j++
		default:
			// Emit the cross product of the two runs sharing this key.
			key := ls[i][0]
			i2 := i
			for i2 < len(ls) && tuple.Equal(ls[i2][0], key) {
				i2++
			}
			j2 := j
			for j2 < len(rs) && tuple.Equal(rs[j2][0], key) {
				j2++
			}
			for a := i; a < i2; a++ {
				for b := j; b < j2; b++ {
					joined := make(tuple.Tuple, 0, len(ls[a])+len(rs[b]))
					joined = append(joined, ls[a]...)
					joined = append(joined, rs[b]...)
					out = append(out, joined)
				}
			}
			i, j = i2, j2
		}
	}
	return out
}

// TriangleCountHash counts triangles using the binary hash-join plan.
func TriangleCountHash(e relation.Relation) int {
	// Avoid materializing the projected triples; count the semi-joined paths.
	paths := HashJoin(e, e, []int{1}, []int{0})
	n := 0
	probe := make(tuple.Tuple, 2)
	for _, t := range paths {
		probe[0], probe[1] = t[0], t[3]
		if e.Contains(probe) {
			n++
		}
	}
	return n
}

// TriangleCountMerge counts triangles with a sort-merge based plan:
// E permuted to (b,a), merge-joined with E(b,c) on b, then semi-joined.
func TriangleCountMerge(e relation.Relation) int {
	ba := e.Permuted([]int{1, 0}) // (b, a)
	paths := MergeJoin(ba, e)     // (b, a, b, c)
	n := 0
	probe := make(tuple.Tuple, 2)
	for _, t := range paths {
		probe[0], probe[1] = t[1], t[3]
		if e.Contains(probe) {
			n++
		}
	}
	return n
}
