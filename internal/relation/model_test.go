package relation

import (
	"math"
	"slices"
	"testing"

	"logicblox/internal/tuple"
)

// modelValue maps a byte to a value from small domains of every kind, so
// tuples repeat, Int(1) meets Float(1), -0.0 meets 0.0 and NaNs of two
// payloads meet (they compare equal).
func modelValue(b byte) tuple.Value {
	v := int64(b / 8 % 4)
	switch b % 8 {
	case 2:
		return tuple.Float(float64(v))
	case 3:
		switch v {
		case 0:
			return tuple.Float(math.Copysign(0, -1))
		case 1, 2:
			return tuple.Float(math.Float64frombits(0x7ff8_0000_0000_0000 | uint64(v)))
		}
		return tuple.Float(0.5)
	case 4:
		return tuple.String(string(rune('a' + v%3)))
	case 5:
		return tuple.Bool(v%2 == 1)
	}
	return tuple.Int(v % 3)
}

// model is the reference relation: its tuples strictly ascending.
type model []tuple.Tuple

func (m model) find(t tuple.Tuple) (int, bool) {
	return slices.BinarySearchFunc(m, t, tuple.Tuple.Compare)
}

func (m model) insert(t tuple.Tuple) model {
	i, ok := m.find(t)
	if ok {
		m = slices.Clone(m)
		m[i] = t
		return m
	}
	return slices.Insert(slices.Clone(m), i, t)
}

func (m model) delete(t tuple.Tuple) model {
	if i, ok := m.find(t); ok {
		return slices.Delete(slices.Clone(m), i, i+1)
	}
	return m
}

// filter returns the tuples of m whose presence in o is in.
func (m model) filter(o model, in bool) model {
	var out model
	for _, t := range m {
		if _, ok := o.find(t); ok == in {
			out = append(out, t)
		}
	}
	return out
}

func (m model) union(o model) model {
	out := slices.Clone(m)
	for _, t := range o.filter(m, false) {
		out = out.insert(t)
	}
	return out
}

func (m model) permuted(perm []int) model {
	var out model
	for _, t := range m {
		out = out.insert(t.Permute(perm))
	}
	return out
}

func hasPrefix(t, prefix tuple.Tuple) bool {
	return len(t) >= len(prefix) && t[:len(prefix)].Equal(prefix)
}

// sameTuples fails t unless got and want hold equal tuples in order.
func sameTuples(t *testing.T, what string, got []tuple.Tuple, want model) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s = %v, model %v", what, got, want)
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			t.Fatalf("%s = %v, model %v", what, got, want)
		}
	}
}

// FuzzRelationMatchesModel runs a sequence of Insert, Delete, Union,
// Intersect, Difference, FromTuples and Permuted over arity 1–4 against
// a sorted slice, checking every read after every step: Len, Contains,
// Ends, Slice, CursorAt, Lookup, FuncGet, MatchExists, KeyConflict and
// Diff against the previous version. At the end the relation must be
// Equal, with an equal StructuralHash, to the one FromTuples and a
// descending insert loop build from the model: unique representation.
// Each step takes arity+2 bytes: the op, a parameter, and a tuple.
func FuzzRelationMatchesModel(f *testing.F) {
	f.Add(uint8(2), []byte{0, 0, 1, 9, 0, 0, 1, 17, 0, 0, 9, 1, 1, 0, 1, 9, 4, 2, 1, 1, 5, 0, 0, 0})
	f.Add(uint8(0), []byte{0, 0, 24, 0, 0, 3, 0, 0, 11, 0, 0, 19, 0, 0, 2, 0, 0, 10, 1, 0, 11, 3, 1, 0})
	f.Add(uint8(3), []byte{0, 0, 1, 1, 1, 1, 0, 0, 1, 1, 1, 9, 0, 0, 1, 1, 9, 1, 5, 3, 1, 1, 1, 1, 2, 2, 1, 1, 9, 1, 6, 5, 1, 1, 1, 1})
	f.Add(uint8(1), []byte{0, 0, 1, 1, 0, 0, 1, 9, 0, 0, 9, 1, 6, 3, 1, 1, 3, 2, 9, 9, 1, 0, 1, 9, 4, 1, 1, 1})
	f.Fuzz(func(t *testing.T, arityByte uint8, script []byte) {
		arity := int(arityByte%4) + 1
		step := arity + 2
		script = script[:min(len(script), 64*step)]
		r, m := New(arity), model(nil)
		// others are the tuples a set operation or FromTuples takes: the
		// tuples of the next steps, as many as the parameter says.
		tupleAt := func(s []byte) tuple.Tuple {
			tp := make(tuple.Tuple, arity)
			for i := range tp {
				tp[i] = modelValue(s[i])
			}
			return tp
		}
		others := func(rest []byte, n int) []tuple.Tuple {
			var ts []tuple.Tuple
			for ; n > 0 && len(rest) >= step; rest, n = rest[step:], n-1 {
				ts = append(ts, tupleAt(rest[2:]))
			}
			return ts
		}
		for ; len(script) >= step; script = script[step:] {
			op, param, tp := script[0]%7, script[1], tupleAt(script[2:])
			prev, prevModel := r, m
			switch op {
			case 0:
				r, m = r.Insert(tp), m.insert(tp)
			case 1:
				r, m = r.Delete(tp), m.delete(tp)
			case 2, 3, 4:
				ts := others(script[step:], int(param%5))
				o, om := FromTuples(arity, ts), model(nil)
				for _, x := range ts {
					om = om.insert(x)
				}
				switch op {
				case 2:
					r, m = r.Union(o), m.union(om)
				case 3:
					r, m = r.Intersect(o), m.filter(om, true)
				default:
					r, m = r.Difference(o), m.filter(om, false)
				}
			case 5:
				ts := append(others(script[step:], int(param%5)), r.Slice()...)
				r, m = FromTuples(arity, ts), nil
				for _, x := range ts {
					m = m.insert(x)
				}
			case 6:
				perm := make([]int, arity)
				for i := range perm {
					perm[i] = (i + int(param)) % arity
				}
				if param&8 != 0 {
					slices.Reverse(perm)
				}
				r, m = r.Permuted(perm), m.permuted(perm)
			}
			checkModel(t, r, m, tp, param)
			var dels, inss []tuple.Tuple
			prev.Diff(r, func(x tuple.Tuple) { dels = append(dels, x) }, func(x tuple.Tuple) { inss = append(inss, x) })
			tuple.SortTuples(dels)
			tuple.SortTuples(inss)
			sameTuples(t, "Diff deletions", dels, prevModel.filter(m, false))
			sameTuples(t, "Diff insertions", inss, m.filter(prevModel, false))
		}
		built, loop := FromTuples(arity, m), New(arity)
		for i := len(m) - 1; i >= 0; i-- {
			loop = loop.Insert(m[i])
		}
		for _, o := range []Relation{built, loop} {
			if !r.Equal(o) || !o.Equal(r) || r.StructuralHash() != o.StructuralHash() {
				t.Fatalf("%v and %v: Equal %v, hashes %x and %x", r.Slice(), o.Slice(), r.Equal(o), r.StructuralHash(), o.StructuralHash())
			}
		}
	})
}

// checkModel compares every read of r with the model m, probing with tp
// and, as the parameter's bits pick, its prefixes and wildcards.
func checkModel(t *testing.T, r Relation, m model, tp tuple.Tuple, param byte) {
	t.Helper()
	arity := r.Arity()
	if r.Len() != len(m) || r.IsEmpty() != (len(m) == 0) {
		t.Fatalf("Len %d, IsEmpty %v; model %v", r.Len(), r.IsEmpty(), m)
	}
	sameTuples(t, "Slice", r.Slice(), m)
	for _, x := range append([]tuple.Tuple{tp}, m...) {
		if _, want := m.find(x); r.Contains(x) != want {
			t.Fatalf("Contains(%v) = %v in %v", x, !want, m)
		}
	}
	if first, last, ok := r.Ends(); ok != (len(m) > 0) || ok && (!first.Equal(m[0]) || !last.Equal(m[len(m)-1])) {
		t.Fatalf("Ends = %v, %v, %v; model %v", first, last, ok, m)
	}
	prefix := tp[:int(param)%(arity+1)]
	var got []tuple.Tuple
	c := r.CursorAt(prefix)
	for x, ok := c.Next(); ok; x, ok = c.Next() {
		got = append(got, x)
	}
	i, _ := slices.BinarySearchFunc(m, prefix, tuple.Tuple.Compare)
	sameTuples(t, "CursorAt("+prefix.String()+")", got, m[i:])
	var under model
	for _, x := range m {
		if hasPrefix(x, prefix) {
			under = append(under, x)
		}
	}
	sameTuples(t, "Lookup("+prefix.String()+")", r.Lookup(prefix), under)
	key := tp[:arity-1]
	v, ok := r.FuncGet(key)
	for _, x := range m {
		if hasPrefix(x, key) {
			if !ok || !tuple.Equal(v, x[arity-1]) {
				t.Fatalf("FuncGet(%v) = %v, %v; model %v", key, v, ok, m)
			}
			ok = false
			break
		}
	}
	if ok {
		t.Fatalf("FuncGet(%v) = %v in %v", key, v, m)
	}
	wild := make([]bool, arity)
	for i := range wild {
		wild[i] = param>>(i+3)&1 == 1
	}
	match := slices.ContainsFunc(m, func(x tuple.Tuple) bool {
		for i := range x {
			if !wild[i] && !tuple.Equal(x[i], tp[i]) {
				return false
			}
		}
		return true
	})
	if r.MatchExists(tp, wild) != match {
		t.Fatalf("MatchExists(%v, %v) = %v in %v", tp, wild, !match, m)
	}
	a, b, found := r.KeyConflict()
	for i := 1; i < len(m); i++ {
		if m[i-1][:arity-1].Equal(m[i][:arity-1]) {
			if !found || !a.Equal(m[i-1]) || !b.Equal(m[i]) {
				t.Fatalf("KeyConflict = %v, %v, %v; model %v", a, b, found, m)
			}
			found = false
			break
		}
	}
	if found {
		t.Fatalf("KeyConflict = %v, %v in %v", a, b, m)
	}
}
