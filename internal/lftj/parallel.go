package lftj

import (
	"sync"

	"logicblox/internal/relation"
	"logicblox/internal/trie"
	"logicblox/internal/tuple"
)

// Domain decomposition (paper §3.2): the first join variable's domain is
// split into disjoint ranges — chosen from quantiles of a predicate
// sample — and an independent leapfrog triejoin runs per range on its own
// iterators, in parallel. Because the ranges partition the first
// variable, the union of the partial results is exactly the join.

// Quantiles picks up to parts−1 cut points from the first column of a
// sample relation, splitting the domain into parts ranges of roughly
// equal sample mass.
func Quantiles(sample relation.Relation, parts int) []tuple.Value {
	if parts <= 1 {
		return nil
	}
	var firsts []tuple.Value // distinct and ascending: the sample is sorted
	sample.ForEach(func(t tuple.Tuple) bool {
		if n := len(firsts); n == 0 || !tuple.Equal(firsts[n-1], t[0]) {
			firsts = append(firsts, t[0])
		}
		return true
	})
	if len(firsts) < parts {
		return nil
	}
	cuts := make([]tuple.Value, 0, parts-1)
	for i := 1; i < parts; i++ {
		cuts = append(cuts, firsts[i*len(firsts)/parts])
	}
	return cuts
}

// PartitionedRun executes the join in parallel over a domain
// decomposition of the first join variable: cuts split the domain into
// len(cuts)+1 ranges; mkAtoms must build a fresh, independent atom list
// per partition (iterators are stateful). emit is called concurrently
// from partition workers and must be safe for concurrent use — or use
// PartitionedCount.
func PartitionedRun(numVars int, mkAtoms func() []Atom, cuts []tuple.Value,
	workers int, emit func(binding tuple.Tuple) bool) error {
	if workers < 1 {
		workers = 1
	}
	bounds := makeBounds(cuts)
	errs := make([]error, len(bounds))
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for i, b := range bounds {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, lo, hi tuple.Value) {
			defer wg.Done()
			defer func() { <-sem }()
			atoms := mkAtoms()
			atoms = append(atoms, Atom{
				Pred: "$range", Iter: trie.NewRangeIterator(lo, hi), Vars: []int{0},
			})
			j, err := NewJoin(numVars, atoms, nil)
			if err != nil {
				errs[i] = err
				return
			}
			j.Run(emit)
		}(i, b[0], b[1])
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func makeBounds(cuts []tuple.Value) [][2]tuple.Value {
	lo := tuple.MinValue()
	var out [][2]tuple.Value
	for _, c := range cuts {
		out = append(out, [2]tuple.Value{lo, c})
		lo = c
	}
	out = append(out, [2]tuple.Value{lo, tuple.MaxValue()})
	return out
}

// PartitionedCount counts the join results across a domain decomposition.
func PartitionedCount(numVars int, mkAtoms func() []Atom, cuts []tuple.Value, workers int) (int, error) {
	var mu sync.Mutex
	n := 0
	err := PartitionedRun(numVars, mkAtoms, cuts, workers, func(tuple.Tuple) bool {
		mu.Lock()
		n++
		mu.Unlock()
		return true
	})
	return n, err
}
