package lftj

import (
	"math"
	"testing"

	"logicblox/internal/tuple"
)

// FuzzAffectedMatchesCovers checks the probe structure against the
// interval semantics it indexes: over intervals of predicates p and q of
// arity 1–3, recorded in stored column order (nil Cols) or through a
// permuted column sequence, Affected(p, t) holds exactly when some
// interval recorded for p Covers t. Values are ints, floats including
// ±0 (equal under tuple.Compare) and strings, so a prefix bucketed by
// its printed form (0 and -0 print differently; 1 and 1.0 alike) shows.
func FuzzAffectedMatchesCovers(f *testing.F) {
	f.Add(uint8(0), uint8(0), []byte{0, 0, 3, 4, 4}, []byte{4})
	f.Add(uint8(1), uint8(1), []byte{1, 2, 3, 0, 9, 9, 4, 1, 1, 4, 12}, []byte{4, 3, 2, 6})
	f.Add(uint8(2), uint8(2), []byte{5, 7, 1, 2, 0, 12, 6, 1, 3, 3, 5, 5}, []byte{3, 2, 1, 0, 4, 5})
	f.Add(uint8(1), uint8(0), []byte{}, []byte{1, 2})
	// A prefix 0.0 probed at -0.0, in stored and in permuted order, and a
	// prefix 1 probed at 1.0.
	f.Add(uint8(1), uint8(0), []byte{0, 1, 10, 11, 4}, []byte{3, 0})
	f.Add(uint8(1), uint8(1), []byte{2, 1, 10, 11, 4}, []byte{0, 3})
	f.Add(uint8(1), uint8(0), []byte{0, 1, 10, 11, 2}, []byte{5, 0})
	domain := []tuple.Value{
		tuple.Int(-1), tuple.Int(0), tuple.Int(1),
		tuple.Float(math.Copysign(0, -1)), tuple.Float(0), tuple.Float(1), tuple.Float(-1.5),
		tuple.String(""), tuple.String("0"), tuple.String("a"),
	}
	value := func(b byte) tuple.Value { return domain[int(b)%len(domain)] }
	// bound widens the domain with the open ends −∞ and +∞.
	bound := func(b byte) tuple.Value {
		switch int(b) % (len(domain) + 2) {
		case len(domain):
			return tuple.MinValue()
		case len(domain) + 1:
			return tuple.MaxValue()
		}
		return value(b)
	}
	f.Fuzz(func(t *testing.T, arity, rot uint8, ivs, probes []byte) {
		n := int(arity%3) + 1
		// perm rotates the columns; runs through it record permuted Cols.
		perm := make([]int, n)
		for i := range perm {
			perm[i] = (i + int(rot)) % n
		}
		idx := NewSensitivityIndex()
		var recorded []Interval // p's intervals
		// Each interval takes 4+d bytes: predicate/order, depth, lo, hi,
		// then d prefix values.
		for len(ivs) >= 4 && len(recorded) < 64 {
			d := int(ivs[1]) % n
			if len(ivs) < 4+d {
				break
			}
			iv := Interval{Lo: bound(ivs[2]), Hi: bound(ivs[3])}
			for _, b := range ivs[4 : 4+d] {
				iv.Prefix = append(iv.Prefix, value(b))
			}
			if ivs[0]&2 != 0 {
				iv.Cols = append([]int(nil), perm[:d+1]...)
			}
			pred := "p"
			if ivs[0]&1 != 0 {
				pred = "q"
			} else {
				recorded = append(recorded, iv)
			}
			idx.byPred[pred] = append(idx.byPred[pred], iv)
			idx.dirty = true
			ivs = ivs[4+d:]
		}
		for probes = probes[:min(len(probes), 32*n)]; len(probes) >= n; probes = probes[n:] {
			tp := make(tuple.Tuple, n)
			for i := range tp {
				tp[i] = value(probes[i])
			}
			want := false
			for _, iv := range recorded {
				if iv.Covers(tp) {
					want = true
					break
				}
			}
			if got := idx.Affected("p", tp); got != want {
				t.Fatalf("Affected(p, %v) = %v, want %v (p's intervals: %v)", tp, got, want, recorded)
			}
		}
	})
}
