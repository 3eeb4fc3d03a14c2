// Package ivm implements incremental view maintenance (paper T3, §3.2):
// keeping the derived predicates of an evaluation context up to date under
// changes to what they read, stratum by stratum, on the engine's stratum
// operators (engine.Context.ReevalStratum, PropagateStratum and
// RefoldStratum).
//
// The stratum — one predicate with all its rules, or a recursive clique
// (compiler.Program.Strata) — is the maintenance unit: nothing is stored
// per rule. Every maintainer runs one walk over the strata: it skips a
// stratum the change does not reach, brings a touched one up to date by
// the operator its mode picks (the maintained_by label of the stratum's
// span), and records every head that moved the same way, storing it as a
// patch of its previous version. The three modes are benchmarked against
// each other in the E4 experiment:
//
//   - Recompute: every touched stratum is re-evaluated in full (the "HANA
//     approach" the paper argues against).
//   - Counting: classical delta rules with support counting (Gupta,
//     Mumick & Subrahmanian, SIGMOD'93) for non-recursive strata.
//   - DRed: delete-and-rederive with a restricted re-derive. The
//     transaction path (core's rederive) runs this mode through Rederive:
//     it keeps no state between passes but its caller's Memo, which
//     remembers the strata it had to evaluate whole, so that the same
//     rules met again are maintained by the diff of their inputs.
//
// Counting and DRed maintain a stratum through the delta forms of its
// rules, which engine.Context.EnumerateDelta enumerates exactly: every
// binding the change created with +1, every one it destroyed with −1. A
// non-recursive aggregate stratum is maintained group by group
// (RefoldStratum): an int sum or count group is updated from its stored
// value by those signed bindings at O(|Δ|) cost (maintained_by=signed);
// any other touched group is folded again (refold). A stratum that predicts, and a recursive
// clique holding an aggregate, are re-evaluated whole.
package ivm

import (
	"fmt"

	"logicblox/internal/compiler"
	"logicblox/internal/engine"
	"logicblox/internal/relation"
	"logicblox/internal/tuple"
)

// Mode selects a maintenance strategy.
type Mode int

// Maintenance strategies.
const (
	Recompute Mode = iota
	Counting
	DRed
)

func (m Mode) String() string {
	switch m {
	case Recompute:
		return "recompute"
	case Counting:
		return "counting"
	case DRed:
		return "dred"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Delta is a batch of changes to one predicate.
type Delta = engine.Delta

// Maintainer keeps the derived predicates of a program up to date under
// batches of base-predicate changes.
type Maintainer struct {
	mode Mode
	ctx  *engine.Context
	memo *Memo // strata evaluated whole before (Rederive's; nil: none)

	// counting state: per-rule derivation counts and per-predicate
	// support totals.
	ruleCounts map[int]map[string]*crec
	support    map[string]map[string]*crec

	// Stats accumulate work counters for benchmarking.
	Stats Stats
}

// Stats counts the work a maintenance pass performed.
type Stats struct {
	RulesEvaluated    int // full or delta rule evaluations; a re-folded rule counts once
	RulesSkipped      int // rules of untouched strata, untouched rules of a counted one
	RederiveChecks    int // DRed's restricted re-derive evaluations
	StrataReevaluated int // strata re-evaluated whole, re-fold fallbacks included
	GroupsSigned      int // aggregate groups updated by their signed delta
	GroupsRefolded    int // aggregate groups re-folded
	MemoHits          int // strata answered from the memo (Memo)
	MemoMisses        int // strata the memo held nothing for
	MemoFallbacks     int // strata the memo held but re-evaluated whole
	MemoEvictions     int // memo entries evicted
}

type crec struct {
	t tuple.Tuple
	n int
}

// NewMaintainer evaluates the program once — the walk with every head
// changed — and returns a maintainer in the given mode.
func NewMaintainer(prog *compiler.Program, base map[string]relation.Relation, mode Mode) (*Maintainer, error) {
	m := &Maintainer{
		mode:       mode,
		ctx:        engine.NewContext(prog, base, engine.Options{}),
		ruleCounts: map[int]map[string]*crec{},
		support:    map[string]map[string]*crec{},
	}
	all := map[string]bool{}
	for _, name := range prog.IDBPreds {
		all[name] = true
	}
	if err := m.walk(all, map[string]Delta{}, map[string]relation.Relation{}); err != nil {
		return nil, err
	}
	return m, nil
}

// Relation returns the current content of a predicate.
func (m *Maintainer) Relation(name string) relation.Relation { return m.ctx.Relation(name) }

// Apply maintains the derived predicates under the given base-predicate
// deltas and returns the deltas of every changed predicate (base and
// derived).
func (m *Maintainer) Apply(deltas map[string]Delta) (map[string]Delta, error) {
	m.Stats = Stats{}
	defer m.observeApply(deltas)()
	acc := map[string]Delta{}
	old := map[string]relation.Relation{}
	// Apply base deltas, remembering old versions. Deltas are normalized
	// to their effective changes first: under set semantics, deleting an
	// absent tuple, re-inserting a present one, or repeating a change
	// within the batch alters nothing — but if passed through verbatim it
	// would corrupt the counting mode's derivation counts (a redundant
	// insertion adds support that no later deletion can retract).
	for name, d := range deltas {
		if d.Empty() {
			continue
		}
		cur := m.ctx.Relation(name)
		upd := cur
		var eff Delta
		for _, t := range d.Del {
			if upd.Contains(t) {
				upd = upd.Delete(t)
				eff.Del = append(eff.Del, t)
			}
		}
		for _, t := range d.Ins {
			if !upd.Contains(t) {
				upd = upd.Insert(t)
				eff.Ins = append(eff.Ins, t)
			}
		}
		if eff.Empty() {
			continue
		}
		old[name] = cur
		m.ctx.Set(name, upd)
		acc[name] = eff
	}
	if len(acc) == 0 {
		return acc, nil
	}
	return acc, m.walk(nil, acc, old)
}
