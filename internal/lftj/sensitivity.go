package lftj

import (
	"slices"
	"sort"
	"strconv"
	"strings"

	"logicblox/internal/trie"
	"logicblox/internal/tuple"
)

// Interval is a sensitivity interval: a region of one predicate's trie in
// which an insertion or deletion could change the outcome of a join run
// (paper §3.2). Prefix fixes the keys of the trie levels above; [Lo, Hi]
// bounds the keys at the interval's level. Lo = tuple.MinValue() encodes
// −∞ and Hi = tuple.MaxValue() encodes +∞.
//
// Cols maps the interval's trie levels onto the predicate's stored
// columns: Prefix[i] constrains t[Cols[i]] and [Lo, Hi] bounds
// t[Cols[len(Prefix)]]. A nil Cols means the identity mapping — the run
// read the predicate in its natural column order. Runs over a permuted
// secondary index (paper §3.2) record non-nil Cols so that probes, which
// always present tuples in stored order, still land in the right region.
type Interval struct {
	Prefix tuple.Tuple
	Lo, Hi tuple.Value
	Cols   []int
}

// Covers reports whether a change to tuple t (of the interval's
// predicate, in stored column order) falls inside the interval: t
// matches Prefix on the interval's columns and the interval-level column
// lies in [Lo, Hi].
func (iv Interval) Covers(t tuple.Tuple) bool {
	d := len(iv.Prefix)
	if iv.Cols == nil {
		if d >= len(t) {
			return false
		}
		for i := 0; i < d; i++ {
			if !tuple.Equal(t[i], iv.Prefix[i]) {
				return false
			}
		}
		return tuple.Compare(iv.Lo, t[d]) <= 0 && tuple.Compare(t[d], iv.Hi) <= 0
	}
	if len(iv.Cols) != d+1 {
		return false
	}
	for i := 0; i < d; i++ {
		c := iv.Cols[i]
		if c >= len(t) || !tuple.Equal(t[c], iv.Prefix[i]) {
			return false
		}
	}
	rc := iv.Cols[d]
	if rc >= len(t) {
		return false
	}
	return tuple.Compare(iv.Lo, t[rc]) <= 0 && tuple.Compare(t[rc], iv.Hi) <= 0
}

func (iv Interval) String() string {
	var b strings.Builder
	b.WriteByte('[')
	if len(iv.Prefix) > 0 {
		b.WriteString(iv.Prefix.String())
		b.WriteByte(' ')
	}
	if iv.Lo.IsNull() {
		b.WriteString("-inf")
	} else {
		b.WriteString(iv.Lo.String())
	}
	b.WriteString(", ")
	if tuple.Equal(iv.Hi, tuple.MaxValue()) {
		b.WriteString("+inf")
	} else {
		b.WriteString(iv.Hi.String())
	}
	b.WriteByte(']')
	return b.String()
}

// SensitivityIndex accumulates the sensitivity intervals of join runs,
// grouped by predicate. It answers the question central to both
// incremental maintenance and transaction repair: "could this change have
// affected that computation?"
//
// Probes are served from a lazily built lookup structure: intervals are
// bucketed by (predicate, column signature, prefix), sorted by lower
// bound with a running maximum of upper bounds, so Affected is one hash
// lookup plus a binary search per signature instead of a scan. Prefixes
// are keyed by their AppendKey encoding, which is equal exactly when
// tuple.Compare is: a printed prefix would tell 0.0 from -0.0 and merge 1
// with 1.0.
type SensitivityIndex struct {
	byPred map[string][]Interval
	lookup map[string][]*colSig
	dirty  bool
}

// colSig groups one predicate's intervals recorded under one column
// sequence: the prefix columns, then the interval-level column. An
// identity interval (nil Cols) at depth d files under 0..d.
type colSig struct {
	cols     []int
	byPrefix map[string]*bucket
}

// bucket holds the intervals sharing one (pred, cols, prefix), sorted by
// Lo, with maxHi[i] = max(Hi[0..i]) for O(log n) stabbing queries.
type bucket struct {
	lo    []tuple.Value
	maxHi []tuple.Value
}

// stab reports whether v falls in any of the bucket's intervals.
func (b *bucket) stab(v tuple.Value) bool {
	n := len(b.lo)
	pos := sort.Search(n, func(i int) bool { return tuple.Compare(b.lo[i], v) > 0 }) - 1
	return pos >= 0 && tuple.Compare(b.maxHi[pos], v) >= 0
}

// NewSensitivityIndex returns an empty index.
func NewSensitivityIndex() *SensitivityIndex {
	return &SensitivityIndex{byPred: make(map[string][]Interval)}
}

// Add records an interval for pred. The prefix is cloned.
func (x *SensitivityIndex) Add(pred string, prefix tuple.Tuple, lo, hi tuple.Value) {
	x.byPred[pred] = append(x.byPred[pred], Interval{Prefix: prefix.Clone(), Lo: lo, Hi: hi})
	x.dirty = true
}

// AddColumn records, for pred, the region of tuples whose stored column
// col lies in [lo, hi], whatever their other columns hold.
func (x *SensitivityIndex) AddColumn(pred string, col int, lo, hi tuple.Value) {
	iv := Interval{Lo: lo, Hi: hi}
	if col != 0 {
		iv.Cols = []int{col}
	}
	x.byPred[pred] = append(x.byPred[pred], iv)
	x.dirty = true
}

// AddPoint records a single-tuple sensitivity (used for membership probes
// of negated atoms and for written keys).
func (x *SensitivityIndex) AddPoint(pred string, t tuple.Tuple) {
	if len(t) == 0 {
		x.byPred[pred] = append(x.byPred[pred], Interval{Lo: tuple.MinValue(), Hi: tuple.MaxValue()})
		x.dirty = true
		return
	}
	last := len(t) - 1
	x.byPred[pred] = append(x.byPred[pred], Interval{Prefix: t[:last].Clone(), Lo: t[last], Hi: t[last]})
	x.dirty = true
}

// Affected reports whether a change to tuple t of predicate pred falls in
// any recorded interval.
func (x *SensitivityIndex) Affected(pred string, t tuple.Tuple) bool {
	x.rebuildLookup()
	var key []byte
	for _, sig := range x.lookup[pred] {
		d := len(sig.cols) - 1
		if slices.ContainsFunc(sig.cols, func(c int) bool { return c >= len(t) }) {
			continue
		}
		key = key[:0]
		for _, c := range sig.cols[:d] {
			key = t[c : c+1].AppendKey(key)
		}
		if b, ok := sig.byPrefix[string(key)]; ok && b.stab(t[sig.cols[d]]) {
			return true
		}
	}
	return false
}

// rebuildLookup (re)derives the probe structure after mutations.
func (x *SensitivityIndex) rebuildLookup() {
	if !x.dirty && x.lookup != nil {
		return
	}
	x.lookup = make(map[string][]*colSig, len(x.byPred))
	var ident []int // 0, 1, 2, …: the identity signature's columns
	var sigKey []byte
	type sigGroup struct {
		cols     []int
		byPrefix map[string][]Interval
	}
	for pred, ivs := range x.byPred {
		groups := map[string]*sigGroup{}
		for _, iv := range ivs {
			cols := iv.Cols
			if cols == nil {
				n := len(iv.Prefix) + 1
				for len(ident) < n {
					ident = append(ident, len(ident))
				}
				cols = ident[:n:n]
			}
			sigKey = sigKey[:0]
			for _, c := range cols {
				sigKey = append(strconv.AppendInt(sigKey, int64(c), 10), ',')
			}
			g, ok := groups[string(sigKey)]
			if !ok {
				g = &sigGroup{cols: cols, byPrefix: map[string][]Interval{}}
				groups[string(sigKey)] = g
			}
			pk := string(iv.Prefix.AppendKey(nil))
			g.byPrefix[pk] = append(g.byPrefix[pk], iv)
		}
		sigs := make([]*colSig, 0, len(groups))
		for _, g := range groups {
			sig := &colSig{cols: g.cols, byPrefix: make(map[string]*bucket, len(g.byPrefix))}
			for pk, ivs := range g.byPrefix {
				sig.byPrefix[pk] = newBucket(ivs)
			}
			sigs = append(sigs, sig)
		}
		x.lookup[pred] = sigs
	}
	x.dirty = false
}

// newBucket builds the stabbing structure over one interval group.
func newBucket(group []Interval) *bucket {
	sort.Slice(group, func(i, j int) bool { return tuple.Less(group[i].Lo, group[j].Lo) })
	b := &bucket{lo: make([]tuple.Value, len(group)), maxHi: make([]tuple.Value, len(group))}
	for i, iv := range group {
		b.lo[i] = iv.Lo
		b.maxHi[i] = iv.Hi
		if i > 0 && tuple.Less(b.maxHi[i], b.maxHi[i-1]) {
			b.maxHi[i] = b.maxHi[i-1]
		}
	}
	return b
}

// Len returns the total number of recorded intervals.
func (x *SensitivityIndex) Len() int {
	n := 0
	for _, ivs := range x.byPred {
		n += len(ivs)
	}
	return n
}

// Reset drops all recorded intervals.
func (x *SensitivityIndex) Reset() {
	x.byPred = make(map[string][]Interval)
	x.lookup = nil
	x.dirty = false
}

// Intervals returns the intervals recorded for pred, sorted for stable
// presentation (by prefix, then lower bound).
func (x *SensitivityIndex) Intervals(pred string) []Interval {
	ivs := append([]Interval(nil), x.byPred[pred]...)
	sort.Slice(ivs, func(i, j int) bool {
		if c := ivs[i].Prefix.Compare(ivs[j].Prefix); c != 0 {
			return c < 0
		}
		return tuple.Less(ivs[i].Lo, ivs[j].Lo)
	})
	return ivs
}

// Preds returns the predicates with recorded intervals, sorted.
func (x *SensitivityIndex) Preds() []string {
	var out []string
	for p := range x.byPred {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// recording adapts join-run iterator movements into sensitivity-index
// entries. It maps each atom's iterator back to the atom so the interval's
// prefix (the atom's ancestor keys) can be read from the current binding.
type recording struct {
	j    *Join
	idx  *SensitivityIndex
	atom map[trie.Iterator]*Atom
}

func newRecording(j *Join, idx *SensitivityIndex) *recording {
	r := &recording{j: j, idx: idx, atom: make(map[trie.Iterator]*Atom, len(j.atoms))}
	for i := range j.atoms {
		r.atom[j.atoms[i].Iter] = &j.atoms[i]
	}
	return r
}

// record notes that iterator it moved within [lo, hi] (hi open-ended when
// openEnded) at its current depth, under the atom's current ancestor keys.
// The nil *recording is a valid no-op, so callers on paths where no
// recorder is attached pay a pointer test instead of building the
// interval (the prefix allocation below must never happen without a
// recorder).
func (r *recording) record(it trie.Iterator, lo, hi tuple.Value, openEnded bool) {
	if r == nil {
		return
	}
	a, ok := r.atom[it]
	if !ok {
		return
	}
	d := it.Depth()
	if d < 0 {
		return
	}
	var prefix tuple.Tuple
	if d > 0 {
		prefix = make(tuple.Tuple, d)
		for i := 0; i < d; i++ {
			prefix[i] = r.j.binding[a.Vars[i]]
		}
	}
	if openEnded {
		hi = tuple.MaxValue()
	}
	r.add(a, Interval{Prefix: prefix, Lo: lo, Hi: hi}, d)
}

// recordAll notes that a scan read the whole of atom a: one interval
// covering every key at depth 0. The nil *recording is a no-op.
func (r *recording) recordAll(a *Atom) {
	if r != nil {
		r.add(a, Interval{Lo: tuple.MinValue(), Hi: tuple.MaxValue()}, 0)
	}
}

// add appends iv, recorded at trie depth d of atom a, to the index.
func (r *recording) add(a *Atom, iv Interval, d int) {
	// For an atom bound through a permuted secondary index, the prefix
	// values above are in plan-column order; carry the stored-column
	// mapping so probes (which see stored-order tuples) can still match.
	if a.Cols != nil {
		iv.Cols = append([]int(nil), a.Cols[:d+1]...)
	}
	r.idx.byPred[a.Pred] = append(r.idx.byPred[a.Pred], iv)
	r.idx.dirty = true
	if r.j.m != nil {
		r.j.m.SensRecords++
	}
}
