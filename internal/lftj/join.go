package lftj

import (
	"fmt"

	"logicblox/internal/trie"
	"logicblox/internal/tuple"
)

// Atom is one conjunct of an equi-join: a predicate presented as a trie
// iterator plus the mapping from its trie levels to join variables.
// Vars[d] names the join variable bound at trie depth d; the sequence must
// be strictly increasing so the atom's column order is consistent with the
// join's variable order (atoms that are not consistent must be joined
// through a secondary index, paper §3.2).
type Atom struct {
	Pred string // predicate identity, used for sensitivity recording
	Iter trie.Iterator
	Vars []int
	// Cols, when non-nil, maps trie depths to the predicate's stored
	// columns: depth d of Iter reads stored column Cols[d]. Set for atoms
	// joined through a permuted secondary index so sensitivity intervals
	// can be translated back to stored column order; nil means identity.
	Cols []int
}

// Join is a leapfrog triejoin over a set of atoms under a fixed variable
// order. Conceptually it is a backtracking search through the trie of
// potential variable bindings: at each variable a unary leapfrog
// enumerates the values on which all participating atoms agree.
type Join struct {
	numVars int
	atoms   []Atom
	levels  [][]int           // levels[v] = indices of atoms participating at variable v
	iters   [][]trie.Iterator // reusable iterator slices per variable
	binding tuple.Tuple       // current prefix of variable bindings
	scan    scanPlan          // the scan, when the join is one (scan.sc != nil)
	rec     *recording
	m       *Metrics // optional work counters (may be nil)
	it      Iter     // the join's one cursor, reset by Iter
	// ids and its back levels and iters (and per-variable counts, after
	// the levels in ids); Reset reuses all of them.
	ids []int
	its []trie.Iterator
}

// NewJoin validates the atoms and builds a join over numVars variables
// (numbered 0..numVars-1 in the chosen variable order). idx, if non-nil,
// receives the sensitivity intervals of every subsequent Run.
func NewJoin(numVars int, atoms []Atom, idx *SensitivityIndex) (*Join, error) {
	j := &Join{}
	if err := j.Reset(numVars, atoms, idx); err != nil {
		return nil, err
	}
	return j, nil
}

// Reset makes j the join NewJoin(numVars, atoms, idx) builds, reusing
// the storage of its previous join: a caller that evaluates join after
// join through one Join allocates only when a join outgrows the largest
// before it. Any cursor of the previous join is invalidated.
func (j *Join) Reset(numVars int, atoms []Atom, idx *SensitivityIndex) error {
	total := 0
	for _, a := range atoms {
		total += len(a.Vars)
	}
	// ids holds every level's atom indices, then one count per variable.
	ids := grow(j.ids, total+numVars)
	counts := ids[total:]
	clear(counts)
	for _, a := range atoms {
		if len(a.Vars) != a.Iter.Arity() {
			return fmt.Errorf("lftj: atom %s has %d vars for arity %d", a.Pred, len(a.Vars), a.Iter.Arity())
		}
		if a.Cols != nil && len(a.Cols) != len(a.Vars) {
			return fmt.Errorf("lftj: atom %s has %d cols for %d vars", a.Pred, len(a.Cols), len(a.Vars))
		}
		for d, v := range a.Vars {
			if v < 0 || v >= numVars {
				return fmt.Errorf("lftj: atom %s references variable %d out of range", a.Pred, v)
			}
			if d > 0 && a.Vars[d-1] >= v {
				return fmt.Errorf("lftj: atom %s variable order %v inconsistent with join order (secondary index required)", a.Pred, a.Vars)
			}
			counts[v]++
		}
	}
	*j = Join{
		numVars: numVars,
		atoms:   atoms,
		levels:  grow(j.levels, numVars),
		iters:   grow(j.iters, numVars),
		binding: grow(j.binding, numVars),
		it:      Iter{lfs: grow(j.it.lfs, numVars)},
		ids:     ids,
		its:     grow(j.its, total),
	}
	for v, off := 0, 0; v < numVars; v++ {
		if counts[v] == 0 {
			return fmt.Errorf("lftj: variable %d is bound by no atom", v)
		}
		j.levels[v] = ids[off : off : off+counts[v]]
		j.iters[v] = j.its[off : off+counts[v] : off+counts[v]]
		off += counts[v]
	}
	for ai, a := range atoms {
		for _, v := range a.Vars {
			j.levels[v] = append(j.levels[v], ai)
		}
	}
	j.scan = planScan(atoms, numVars)
	if idx != nil {
		j.rec = newRecording(j, idx)
	}
	return nil
}

// grow returns s resliced to n elements, reallocated when its capacity is
// short.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Run enumerates all satisfying assignments in lexicographic order of the
// variable order, calling emit for each. The binding tuple passed to emit
// is reused between calls; clone it to retain it. Returning false from
// emit aborts the enumeration.
func (j *Join) Run(emit func(binding tuple.Tuple) bool) {
	it := j.Iter()
	defer it.Close()
	for b, ok := it.Next(); ok; b, ok = it.Next() {
		if !emit(b) {
			return
		}
	}
}

// scanPlan is a join of one atom binding every variable, whose iterator
// is a trie.Scanner, and of ranges on its first variable: it reads the
// atom's tuples whose first column lies in [lo, hi) in one ordered pass.
type scanPlan struct {
	atom    int // index of the scanned atom
	sc      trie.Scanner
	lo, hi  tuple.Value
	bounded bool // some range restricts the first variable
}

// planScan returns the scan plan of atoms, the zero scanPlan when the
// join is not one. The validation in NewJoin makes a lone atom of full
// arity's Vars the identity, so a range on variable 0 bounds its first
// column.
func planScan(atoms []Atom, numVars int) scanPlan {
	scan, lo, hi, bounded := -1, tuple.MinValue(), tuple.MaxValue(), false
	for i, a := range atoms {
		if r, ok := a.Iter.(*trie.RangeIterator); ok && a.Vars[0] == 0 {
			rlo, rhi := r.Bounds()
			if tuple.Less(lo, rlo) {
				lo = rlo
			}
			if tuple.Less(rhi, hi) {
				hi = rhi
			}
			bounded = true
			continue
		}
		if _, ok := a.Iter.(trie.Scanner); !ok || scan >= 0 || a.Iter.Arity() != numVars {
			return scanPlan{}
		}
		scan = i
	}
	if scan < 0 {
		return scanPlan{}
	}
	return scanPlan{atom: scan, sc: atoms[scan].Iter.(trie.Scanner), lo: lo, hi: hi, bounded: bounded}
}

// Iter is a pull-based cursor over the join's satisfying assignments: the
// explicit-state form of the backtracking search Run performs, so a
// consumer can draw one binding at a time (streaming query execution)
// instead of receiving a callback per result. Bindings come out in the
// same lexicographic order Run emits them. A one-atom join is a scan: see
// scanNext.
type Iter struct {
	j *Join
	// lfs[v] is the unary leapfrog currently open at variable v; entries
	// 0..depth are live.
	lfs []Leapfrog
	// depth is the deepest open level; -1 before the first Next (and for
	// the degenerate zero-variable join), -2 once exhausted or closed.
	depth   int
	started bool
	pull    func() (tuple.Tuple, bool) // the scan, once started
}

// Iter returns the join's cursor, reset to before the first binding. The
// join's atom iterators are stateful, so at most one Iter (or Run) may be
// active per Join at a time — each call restarts the one cursor; Close
// unwinds any levels still open (it is called implicitly when the cursor
// runs to exhaustion).
func (j *Join) Iter() *Iter {
	j.it = Iter{j: j, lfs: j.it.lfs, depth: -1}
	return &j.it
}

// open descends into variable level v: every participating atom's trie
// iterator is opened (recording the sensitivity of the landing, exactly
// as the recursive Run did) and a unary leapfrog is initialized over them.
func (it *Iter) open(v int) {
	j := it.j
	iters := j.iters[v]
	for i, ai := range j.levels[v] {
		ait := j.atoms[ai].Iter
		ait.Open()
		if j.rec != nil {
			if ait.AtEnd() {
				j.rec.record(ait, tuple.MinValue(), tuple.Value{}, true)
			} else {
				j.rec.record(ait, tuple.MinValue(), ait.Key(), false)
			}
		}
		iters[i] = ait
	}
	it.lfs[v] = Leapfrog{iters: iters, rec: j.rec, m: j.m}
	it.lfs[v].init()
	it.depth = v
}

// up backtracks out of the current level.
func (it *Iter) up() {
	for _, ai := range it.j.levels[it.depth] {
		it.j.atoms[ai].Iter.Up()
	}
	it.depth--
}

// Next advances to the next satisfying assignment. The returned binding
// is reused between calls (clone it to retain it); ok is false once the
// join is exhausted.
func (it *Iter) Next() (binding tuple.Tuple, ok bool) {
	j := it.j
	if it.depth == -2 {
		return nil, false
	}
	if j.scan.sc != nil {
		return it.scanNext()
	}
	if j.numVars == 0 {
		// Degenerate boolean join: satisfied iff every atom is nonempty,
		// which is vacuously true here because zero-arity atoms cannot
		// participate (arity ≥ 1 enforced by Vars validation).
		it.depth = -2
		return nil, true
	}
	if !it.started {
		it.started = true
		it.open(0)
	} else {
		// Resume past the binding handed out last time.
		it.lfs[it.depth].Next()
	}
	for {
		// Backtrack out of exhausted levels, advancing the parent.
		for it.depth >= 0 && it.lfs[it.depth].AtEnd() {
			it.up()
			if it.depth >= 0 {
				it.lfs[it.depth].Next()
			}
		}
		if it.depth < 0 {
			it.depth = -2
			return nil, false
		}
		j.binding[it.depth] = it.lfs[it.depth].Key()
		if it.depth == j.numVars-1 {
			return j.binding, true
		}
		it.open(it.depth + 1)
	}
}

// scanNext is Next for a scan (see scanPlan): it pulls whole tuples from
// the atom's scan, which starts at the lower bound (one Metrics.Seeks when
// there is one) and stops at the first tuple at or past the upper bound
// (one Metrics.Nexts per tuple pulled). The binding it returns is the
// stored tuple itself. It records one sensitivity interval over the
// atom's whole key line, which is the union of what the trie walk
// records, so Affected answers the same or more.
func (it *Iter) scanNext() (tuple.Tuple, bool) {
	j, p := it.j, &it.j.scan
	if !it.started {
		it.started, it.pull = true, p.sc.Scan(p.lo)
		j.rec.recordAll(&j.atoms[p.atom])
		if j.m != nil && p.bounded {
			j.m.Seeks++
		}
	}
	t, ok := it.pull()
	if ok && j.m != nil {
		j.m.Nexts++
	}
	if !ok || (p.bounded && tuple.Compare(t[0], p.hi) >= 0) {
		it.depth = -2
		return nil, false
	}
	return t, true
}

// Close unwinds any still-open trie levels (restoring every atom iterator
// to its root) and marks the cursor exhausted. Safe to call repeatedly.
func (it *Iter) Close() {
	for it.depth >= 0 {
		it.up()
	}
	it.depth = -2
}

// Count runs the join and returns the number of satisfying assignments.
func (j *Join) Count() int {
	n := 0
	j.Run(func(tuple.Tuple) bool { n++; return true })
	return n
}

// Collect runs the join and returns all bindings (cloned).
func (j *Join) Collect() []tuple.Tuple {
	var out []tuple.Tuple
	j.Run(func(b tuple.Tuple) bool { out = append(out, b.Clone()); return true })
	return out
}
