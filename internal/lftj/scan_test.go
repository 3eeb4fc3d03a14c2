package lftj

import (
	"math/rand"
	"testing"

	"logicblox/internal/relation"
	"logicblox/internal/trie"
	"logicblox/internal/tuple"
)

// FuzzScanMatchesTrie checks a one-atom join's scan against the
// level-by-level trie walk of the same atom, which trie.Counting forces:
// over a relation of arity 1–4 and at most 64 tuples of small ints and
// strings, read in stored order or through a rotated secondary index,
// both emit the same bindings in the same order, and under a
// SensitivityIndex every probe is affected in both runs or in neither.
func FuzzScanMatchesTrie(f *testing.F) {
	f.Add(uint8(0), uint8(0), []byte{1, 2, 3}, []byte{4})
	f.Add(uint8(1), uint8(1), []byte{0, 1, 0, 3, 2, 1, 5, 5}, []byte{9, 9})
	f.Add(uint8(3), uint8(2), []byte{0, 1, 2, 3, 0, 1, 2, 4, 7, 1, 2, 3}, []byte{0, 1, 2, 3})
	f.Add(uint8(2), uint8(0), []byte{}, []byte{1, 2, 3})
	// value maps a byte to an int (even) or a string (odd) from a small
	// domain, so tuples share prefixes.
	value := func(b byte) tuple.Value {
		if b&1 == 1 {
			return tuple.String(string(rune('a' + b>>1%4)))
		}
		return tuple.Int(int64(b>>1%6) - 2)
	}
	f.Fuzz(func(t *testing.T, arity, rot uint8, facts, probes []byte) {
		n := int(arity%4) + 1
		facts = facts[:min(len(facts), 64*n)]
		probes = probes[:min(len(probes), 16*n)]
		stored := relation.New(n)
		for ; len(facts) >= n; facts = facts[n:] {
			tp := make(tuple.Tuple, n)
			for i := range tp {
				tp[i] = value(facts[i])
			}
			stored = stored.Insert(tp)
		}
		// perm rotates the stored columns; nil reads them in stored order.
		var perm []int
		if r := int(rot) % n; r > 0 {
			for i := 0; i < n; i++ {
				perm = append(perm, (i+r)%n)
			}
		}
		read := stored
		if perm != nil {
			read = stored.Permuted(perm)
		}
		vars := make([]int, n)
		for i := range vars {
			vars[i] = i
		}
		run := func(it trie.Iterator) ([]tuple.Tuple, *SensitivityIndex, Metrics) {
			idx := NewSensitivityIndex()
			j, err := NewJoin(n, []Atom{{Pred: "R", Iter: it, Vars: vars, Cols: perm}}, idx)
			if err != nil {
				t.Fatal(err)
			}
			var m Metrics
			j.SetMetrics(&m)
			return drainIter(j), idx, m
		}
		scanned, scanIdx, m := run(read.Iterator())
		walked, walkIdx, _ := run(trie.Counting(read.Iterator(), &trie.OpCounter{}))
		if m.Seeks != 0 || m.Nexts != int64(read.Len()) || m.SensRecords != 1 {
			t.Fatalf("scan of %d tuples: %+v, want 0 seeks, %d nexts, 1 sensitivity record", read.Len(), m, read.Len())
		}
		if len(scanned) != len(walked) {
			t.Fatalf("scan yielded %d bindings, trie walk %d", len(scanned), len(walked))
		}
		for i := range scanned {
			if !scanned[i].Equal(walked[i]) {
				t.Fatalf("binding %d: scan %v, trie walk %v", i, scanned[i], walked[i])
			}
		}
		check := func(p tuple.Tuple) {
			if s, w := scanIdx.Affected("R", p), walkIdx.Affected("R", p); s != w {
				t.Fatalf("Affected(R%v): scan %v, trie walk %v\nscan: %v\nwalk: %v", p, s, w, scanIdx.Intervals("R"), walkIdx.Intervals("R"))
			}
		}
		stored.ForEach(func(p tuple.Tuple) bool { check(p); return true })
		for ; len(probes) >= n; probes = probes[n:] {
			p := make(tuple.Tuple, n)
			for i := range p {
				p[i] = value(probes[i])
			}
			check(p)
		}
	})
}

// TestBoundedScanMatchesTrie checks the bounded scan — a one-atom join
// with ranges on its first variable — against the leapfrog over the same
// atom and ranges, which trie.Counting forces: over random relations of
// small ints and strings and random ranges (one or two, empty ones
// included), both emit the same bindings in the same order, and the scan
// makes one seek and at most one next past the rows it yields.
func TestBoundedScanMatchesTrie(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	value := func() tuple.Value {
		if rng.Intn(4) == 0 {
			return tuple.String(string(rune('a' + rng.Intn(4))))
		}
		return tuple.Int(int64(rng.Intn(12)) - 3)
	}
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(3) + 1
		stored := relation.New(n)
		for i := rng.Intn(40); i > 0; i-- {
			tp := make(tuple.Tuple, n)
			for c := range tp {
				tp[c] = value()
			}
			stored = stored.Insert(tp)
		}
		vars := make([]int, n)
		for i := range vars {
			vars[i] = i
		}
		bounds := make([][2]tuple.Value, rng.Intn(2)+1)
		for i := range bounds {
			bounds[i] = [2]tuple.Value{value(), value()}
		}
		run := func(it trie.Iterator) ([]tuple.Tuple, Metrics) {
			atoms := []Atom{{Pred: "R", Iter: it, Vars: vars}}
			for _, b := range bounds {
				atoms = append(atoms, Atom{Pred: "$range", Iter: trie.NewRangeIterator(b[0], b[1]), Vars: []int{0}})
			}
			j, err := NewJoin(n, atoms, nil)
			if err != nil {
				t.Fatal(err)
			}
			var m Metrics
			j.SetMetrics(&m)
			return drainIter(j), m
		}
		scanned, m := run(stored.Iterator())
		walked, _ := run(trie.Counting(stored.Iterator(), &trie.OpCounter{}))
		if len(scanned) != len(walked) {
			t.Fatalf("trial %d, ranges %v over %v: scan %v, trie walk %v", trial, bounds, stored.Slice(), scanned, walked)
		}
		for i := range scanned {
			if !scanned[i].Equal(walked[i]) {
				t.Fatalf("trial %d, ranges %v: binding %d: scan %v, trie walk %v", trial, bounds, i, scanned[i], walked[i])
			}
		}
		if m.Seeks != 1 || m.Nexts > int64(len(scanned))+1 {
			t.Fatalf("trial %d: bounded scan of %d rows made %+v, want 1 seek and at most %d nexts", trial, len(scanned), m, len(scanned)+1)
		}
	}
}
