package ivm

import (
	"container/list"
	"fmt"
	"strings"
	"sync"

	"logicblox/internal/compiler"
	"logicblox/internal/engine"
	"logicblox/internal/obs"
	"logicblox/internal/relation"
)

// memoCapacity is how many strata a Memo remembers; the least recently
// used one is evicted past it. A fixed bound, not an option.
const memoCapacity = 64

// Memo remembers the last evaluation of each stratum the walk had to
// evaluate whole (paper §3.1: versions share structure, so what changed
// between two of them enumerates cheaply): the relations its rules read
// and the heads they derived from them. A stratum's heads are a function
// of its rules and the relations it reads, and nothing else, so an entry
// is keyed by the stratum's fingerprint — each rule's source in stratum
// order, and each head's arity — and not by the program around it. When
// the walk meets the same rules again with no known delta (a re-added
// block, a branch's copy of a view, a repeated query's auxiliary rules),
// it installs the remembered heads and maintains them by the diff between
// the remembered inputs and the current ones, through the walk's own
// operators, instead of evaluating the stratum again (Rederive).
//
// Every value an entry holds is a persistent relation, so an entry costs
// a pointer per predicate, and it retains at most one extra version of
// each input. A Memo is safe for concurrent use: the walks of every
// branch of a lineage share one.
type Memo struct {
	mu      sync.Mutex
	entries map[string]*list.Element // fingerprint → element of recency
	recency list.List                // of *memoEntry, most recently used first
}

// memoEntry is one remembered evaluation; it is never modified once
// stored.
type memoEntry struct {
	key    string
	inputs map[string]relation.Relation // every predicate the rules read but do not derive
	heads  map[string]relation.Relation
}

// NewMemo returns an empty memo.
func NewMemo() *Memo { return &Memo{entries: map[string]*list.Element{}} }

func (m *Memo) get(key string) *memoEntry {
	m.mu.Lock()
	defer m.mu.Unlock()
	el := m.entries[key]
	if el == nil {
		return nil
	}
	m.recency.MoveToFront(el)
	return el.Value.(*memoEntry)
}

// put stores e in place of its fingerprint's entry and reports whether it
// evicted another fingerprint's.
func (m *Memo) put(e *memoEntry) (evicted bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if el := m.entries[e.key]; el != nil {
		el.Value = e
		m.recency.MoveToFront(el)
		return false
	}
	m.entries[e.key] = m.recency.PushFront(e)
	if m.recency.Len() <= memoCapacity {
		return false
	}
	last := m.recency.Remove(m.recency.Back()).(*memoEntry)
	delete(m.entries, last.key)
	return true
}

// fingerprint is a stratum's memo key: each rule's source, in stratum
// order, with its head's arity.
func fingerprint(stratum []*compiler.RulePlan) string {
	var b strings.Builder
	for _, r := range stratum {
		fmt.Fprintf(&b, "%d/%d/%s", r.HeadArity, len(r.Source), r.Source)
	}
	return b.String()
}

// memoizes reports whether the walk may answer the stratum from the memo:
// it has one, records no sensitivity, and the stratum derives no query
// answer (always computed from the stored relations) and predicts nothing
// (a prediction reads the model registry, not relations).
func (m *Maintainer) memoizes(stratum []*compiler.RulePlan) bool {
	if m.memo == nil || m.ctx.Recording() {
		return false
	}
	for _, r := range stratum {
		if r.HeadName == "_" || r.Predict != nil {
			return false
		}
	}
	return true
}

// What a memo lookup came to, as the memo label of the stratum's span
// reads.
const (
	memoHit      = "hit"      // the remembered heads, maintained by the inputs' diff
	memoMiss     = "miss"     // no entry, or an input of another arity
	memoFallback = "fallback" // the diff passed the crossover, or no operator takes it
)

// fromMemo brings a stratum the walk would re-evaluate whole up to date
// under its stratum span sp, from the memo's entry for its fingerprint
// when there is one. With every input equal to the entry's it installs
// the entry's heads as they are. With inputs that moved, it diffs each
// against the entry's version — pruning on shared subtrees — and, unless
// the changes pass the crossover (engine.PastCrossover against the
// inputs' total size) or the operator maintain picks for them
// re-evaluates anyway, installs the entry's heads and maintains them by
// those diffs, the entry's inputs their before-images. The diffs are
// relative to the entry, not to the transaction's receiver, so they stay
// in this call: the walk records the heads against its own before-images
// as for any operator. Otherwise it re-evaluates the stratum whole. The
// walk remembers the result either way.
func (m *Maintainer) fromMemo(sp *obs.Span, stratum []*compiler.RulePlan) (by string, err error) {
	outcome := memoMiss
	defer func() {
		sp.SetLabel("memo", outcome)
		switch outcome {
		case memoHit:
			m.Stats.MemoHits++
		case memoMiss:
			m.Stats.MemoMisses++
		default:
			m.Stats.MemoFallbacks++
		}
	}()
	e := m.memo.get(fingerprint(stratum))
	if e == nil || !m.sameArities(e) {
		return m.maintain(sp, stratum, false, nil, nil)
	}
	outcome = memoFallback
	acc, n, ok := m.diffInputs(e)
	sp.SetAttr("memo_diff", int64(n))
	if !ok || len(acc) > 0 && m.operator(stratum, true, acc) == byReeval {
		return m.maintain(sp, stratum, false, nil, nil)
	}
	for h, r := range e.heads {
		m.ctx.Set(h, r)
	}
	if len(acc) > 0 {
		if by, err = m.maintain(sp, stratum, true, acc, e.inputs); by == byReeval {
			return by, err // RefoldStratum re-evaluated whole after all
		}
	}
	outcome = memoHit
	return byMemo, err
}

// sameArities reports whether every input of e has its entry's arity in
// the context.
func (m *Maintainer) sameArities(e *memoEntry) bool {
	for name, was := range e.inputs {
		if m.ctx.Relation(name).Arity() != was.Arity() {
			return false
		}
	}
	return true
}

// diffInputs returns the exact delta from each input's version in e to
// its current content, for the inputs that moved, and the number of
// changes enumerated. It stops with ok=false as soon as the changes pass
// the crossover against the inputs' current total size; the difference
// of an input's sizes bounds its diff from below, so an input that
// cannot stay under it is not enumerated.
func (m *Maintainer) diffInputs(e *memoEntry) (acc map[string]Delta, n int, ok bool) {
	size := 0
	for name := range e.inputs {
		size += m.ctx.Relation(name).Len()
	}
	acc = map[string]Delta{}
	for name, was := range e.inputs {
		now := m.ctx.Relation(name)
		if engine.PastCrossover(n+abs(now.Len()-was.Len()), size) {
			return nil, n, false
		}
		d := engine.DeltaOf(was, now)
		if n += len(d.Del) + len(d.Ins); engine.PastCrossover(n, size) {
			return nil, n, false
		}
		if !d.Empty() {
			acc[name] = d
		}
	}
	return acc, n, true
}

// remember stores the stratum's current inputs and heads as the memo's
// entry for its fingerprint.
func (m *Maintainer) remember(stratum []*compiler.RulePlan) {
	e := &memoEntry{key: fingerprint(stratum), inputs: map[string]relation.Relation{}, heads: map[string]relation.Relation{}}
	for _, r := range stratum {
		e.heads[r.HeadName] = m.ctx.Relation(r.HeadName)
	}
	for _, r := range stratum {
		for _, names := range [][]string{r.BodyNames, r.NegNames} {
			for _, name := range names {
				if _, own := e.heads[name]; !own {
					e.inputs[name] = m.ctx.Relation(name)
				}
			}
		}
	}
	if m.memo.put(e) {
		m.Stats.MemoEvictions++
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
