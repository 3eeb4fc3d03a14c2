package main

import (
	"crypto/sha256"
	"fmt"
	"testing"
)

// dataHash digests a generated dataset byte for byte.
func dataHash(d *dataset) [32]byte {
	h := sha256.New()
	for _, k := range d.sortedKeys() {
		fmt.Fprintf(h, "s %d %d %d %d\n", k.p, k.s, k.wk, d.sales[k])
	}
	for p, v := range d.price {
		fmt.Fprintf(h, "p %d %d\n", p, v)
	}
	for _, e := range d.edges {
		fmt.Fprintf(h, "e %d %d\n", e[0], e[1])
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// The inputs are a pure function of (seed, workload): two generations
// with one seed are byte-identical, two seeds differ.
func TestGenerationIsDeterministic(t *testing.T) {
	for _, sp := range specs {
		sp := sp.scaled(20)
		if a, b := dataHash(generate(1, sp)), dataHash(generate(1, sp)); a != b {
			t.Errorf("%s: two datasets from seed 1 differ", sp.name)
		}
		if a, b := dataHash(generate(1, sp)), dataHash(generate(2, sp)); a == b {
			t.Errorf("%s: seeds 1 and 2 gave the same dataset", sp.name)
		}
		if a, b := opsHash(1, sp), opsHash(1, sp); a != b {
			t.Errorf("%s: two op sequences from seed 1 differ: %s vs %s", sp.name, a, b)
		}
		if a, b := opsHash(1, sp), opsHash(2, sp); a == b {
			t.Errorf("%s: seeds 1 and 2 gave the same op sequence", sp.name)
		}
	}
}

// Writes keep |sales| within a few facts of its loaded size, every
// delete names a fact that is there, and clients own disjoint stores.
func TestWritesAreBalancedAndDisjoint(t *testing.T) {
	for _, name := range []string{"tx-write", "tx-mixed"} {
		sp, _ := specByName(name)
		sp = sp.scaled(20)
		d := generate(1, sp)
		owner := map[int64]int{}
		for c := 0; c < sp.clients; c++ {
			g := newOpGen(1, sp, d, c)
			present := map[salesKey]int64{}
			for i := 0; i < 400; i++ {
				for _, o := range g.next() {
					for _, w := range o.writes {
						if prev, ok := owner[w.key.s]; ok && prev != c {
							t.Fatalf("%s: store %d written by clients %d and %d", name, w.key.s, prev, c)
						}
						owner[w.key.s] = c
						_, loaded := d.sales[w.key]
						_, extra := present[w.key]
						switch {
						case w.del && !extra:
							t.Fatalf("%s: delete of %v, which is not there", name, w.key)
						case w.del:
							delete(present, w.key)
						case !loaded:
							present[w.key] = w.n
						}
						if w.n < 0 || w.n >= maxUnits {
							t.Fatalf("%s: units %d out of range", name, w.n)
						}
					}
				}
				if len(present) > 64 {
					t.Fatalf("%s: %d extra facts present, the generator caps them at 64", name, len(present))
				}
			}
		}
	}
}

func TestCountTriangles(t *testing.T) {
	edges := [][2]int64{{0, 1}, {1, 2}, {0, 2}, {2, 3}, {1, 3}, {3, 4}}
	if got := countTriangles(edges); got != 2 {
		t.Fatalf("countTriangles = %d, want 2 (0-1-2 and 1-2-3)", got)
	}
}
