package tuple

import (
	"encoding/binary"
	"math"
	"strings"
)

// Tuple is an ordered sequence of values: one fact of an n-ary predicate.
// Tuples are treated as immutable once stored in a relation.
type Tuple []Value

// Compare orders tuples lexicographically. A proper prefix orders before
// its extensions.
func (t Tuple) Compare(u Tuple) int {
	n := len(t)
	if len(u) < n {
		n = len(u)
	}
	for i := 0; i < n; i++ {
		if c := Compare(t[i], u[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(t) < len(u):
		return -1
	case len(t) > len(u):
		return 1
	}
	return 0
}

// Equal reports whether t and u hold the same values.
func (t Tuple) Equal(u Tuple) bool { return t.Compare(u) == 0 }

// Clone returns an independent copy of the tuple.
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// Hash returns a 64-bit hash of the whole tuple.
func (t Tuple) Hash() uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, v := range t {
		h ^= v.Hash()
		h *= 0x100000001b3
		h ^= h >> 29
	}
	return h
}

// Permute returns the tuple reordered so that out[i] = t[perm[i]].
// It is used to build secondary indices over permuted column orders.
func (t Tuple) Permute(perm []int) Tuple {
	out := make(Tuple, len(perm))
	for i, p := range perm {
		out[i] = t[p]
	}
	return out
}

// String renders the tuple as "(v1, v2, …)".
func (t Tuple) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, v := range t {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(v.String())
	}
	b.WriteByte(')')
	return b.String()
}

// AppendKey appends a binary encoding of t to buf: a map key for grouping
// tuples by value. Two tuples encode alike exactly when Compare finds them
// equal — unlike String, which renders Int(1) and Float(1) alike and -0.0
// and 0.0 apart. Each value is its kind byte, then a length and the bytes
// of a string, or eight payload bytes (a float's with -0 as 0, NaNs alike).
func (t Tuple) AppendKey(buf []byte) []byte {
	for _, v := range t {
		buf = append(buf, byte(v.kind))
		n := v.num
		switch f := math.Float64frombits(n); {
		case v.kind == KindString:
			buf = binary.AppendUvarint(buf, uint64(len(v.str)))
			buf = append(buf, v.str...)
			continue
		case v.kind == KindFloat && f == 0:
			n = 0
		case v.kind == KindFloat && f != f:
			n = math.Float64bits(math.NaN())
		}
		buf = binary.LittleEndian.AppendUint64(buf, n)
	}
	return buf
}

// Of builds a tuple from values; a small convenience for tests and examples.
func Of(vs ...Value) Tuple { return Tuple(vs) }

// Ints builds a tuple of integer values.
func Ints(vs ...int64) Tuple {
	t := make(Tuple, len(vs))
	for i, v := range vs {
		t[i] = Int(v)
	}
	return t
}

// Strings builds a tuple of string values.
func Strings(vs ...string) Tuple {
	t := make(Tuple, len(vs))
	for i, v := range vs {
		t[i] = String(v)
	}
	return t
}

// SortTuples sorts ts in place in lexicographic order (insertion-free
// merge sort on an auxiliary buffer to keep the sort stable).
func SortTuples(ts []Tuple) {
	if len(ts) < 2 {
		return
	}
	buf := make([]Tuple, len(ts))
	mergeSort(ts, buf)
}

func mergeSort(ts, buf []Tuple) {
	n := len(ts)
	if n < 2 {
		return
	}
	m := n / 2
	mergeSort(ts[:m], buf[:m])
	mergeSort(ts[m:], buf[m:])
	copy(buf, ts)
	i, j := 0, m
	for k := 0; k < n; k++ {
		switch {
		case i >= m:
			ts[k] = buf[j]
			j++
		case j >= n:
			ts[k] = buf[i]
			i++
		case buf[i].Compare(buf[j]) <= 0:
			ts[k] = buf[i]
			i++
		default:
			ts[k] = buf[j]
			j++
		}
	}
}

// DedupSorted removes adjacent duplicates from a sorted slice of tuples,
// returning the shortened slice. LogiQL has set semantics, so relations
// never contain duplicates.
func DedupSorted(ts []Tuple) []Tuple {
	if len(ts) < 2 {
		return ts
	}
	out := ts[:1]
	for _, t := range ts[1:] {
		if !t.Equal(out[len(out)-1]) {
			out = append(out, t)
		}
	}
	return out
}
