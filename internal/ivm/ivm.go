// Package ivm implements incremental view maintenance (paper T3, §3.2):
// keeping the derived predicates of an evaluation context up to date under
// changes to what they read, stratum by stratum, on the engine's stratum
// operators (engine.Context.ReevalStratum and PropagateStratum).
//
// The stratum — one predicate with all its rules, or a recursive clique
// (compiler.Program.Strata) — is the maintenance unit: a derived predicate
// is re-evaluated whole or not at all. RederiveStratum re-evaluates the
// strata a staleness test selects and leaves the others alone. The
// transaction path (core's rederive) runs it with a name-level test, and
// two of the Maintainer's four modes are further tests. The modes are
// benchmarked against each other in the E4 experiment:
//
//   - Recompute: every stratum is stale (the "HANA approach" the paper
//     argues against).
//   - Counting: classical delta rules with support counting (Gupta,
//     Mumick & Subrahmanian, SIGMOD'93) for non-recursive strata.
//   - DRed: delete-and-rederive with pinned rederivability checks.
//   - Sensitivity: the LogicBlox approach — sensitivity indices recorded
//     by leapfrog runs decide which strata a change can affect at all;
//     unaffected ones are skipped without touching their joins, so
//     maintenance work tracks the trace edit distance of the evaluation.
//
// Counting and DRed maintain a stratum through the delta forms of its
// rules; one that has none — it aggregates or predicts — is recomputed.
package ivm

import (
	"fmt"

	"logicblox/internal/compiler"
	"logicblox/internal/engine"
	"logicblox/internal/lftj"
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
	Sensitivity
)

func (m Mode) String() string {
	switch m {
	case Recompute:
		return "recompute"
	case Counting:
		return "counting"
	case DRed:
		return "dred"
	case Sensitivity:
		return "sensitivity"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Delta is a batch of changes to one predicate.
type Delta struct {
	Ins []tuple.Tuple
	Del []tuple.Tuple
}

// Empty reports whether the delta changes nothing.
func (d Delta) Empty() bool { return len(d.Ins) == 0 && len(d.Del) == 0 }

// Maintainer keeps the derived predicates of a program up to date under
// batches of base-predicate changes.
type Maintainer struct {
	prog *compiler.Program
	mode Mode
	ctx  *engine.Context

	// counting state: per-rule derivation counts and per-predicate
	// support totals.
	ruleCounts map[int]map[string]*crec
	support    map[string]map[string]*crec

	// sensitivity state: one recorded trace per stratum, keyed by the ID
	// of its first rule.
	sens map[int]*lftj.SensitivityIndex

	// Stats accumulate work counters for benchmarking.
	Stats Stats
}

// Stats counts the work a maintenance pass performed.
type Stats struct {
	RulesEvaluated int // full or delta rule evaluations
	RulesSkipped   int // rules skipped by the sensitivity filter
	RederiveChecks int // DRed rederivability probes
}

type crec struct {
	t tuple.Tuple
	n int
}

// NewMaintainer evaluates the program once and returns a maintainer in
// the given mode.
func NewMaintainer(prog *compiler.Program, base map[string]relation.Relation, mode Mode) (*Maintainer, error) {
	m := &Maintainer{
		prog:       prog,
		mode:       mode,
		ruleCounts: map[int]map[string]*crec{},
		support:    map[string]map[string]*crec{},
		sens:       map[int]*lftj.SensitivityIndex{},
	}
	m.ctx = engine.NewContext(prog, base, engine.Options{})
	switch mode {
	case Counting:
		if err := m.initialCountingEval(); err != nil {
			return nil, err
		}
	case Sensitivity:
		// Nothing has a trace yet, so every stratum is stale.
		if err := m.rederive(m.traceStale(nil), map[string]Delta{}, map[string]relation.Relation{}); err != nil {
			return nil, err
		}
	default:
		if err := m.ctx.EvalAll(); err != nil {
			return nil, err
		}
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
	var err error
	switch m.mode {
	case Recompute:
		err = m.rederive(func([]*compiler.RulePlan) bool { return true }, acc, old)
	case Counting:
		err = m.applyCounting(acc, old)
	case DRed:
		err = m.applyDRed(acc, old)
	case Sensitivity:
		err = m.rederive(m.traceStale(acc), acc, old)
	}
	return acc, err
}

// recordHeads reports what a maintenance step did to derived predicates
// given their before-images: the difference of every head to its current
// content goes through recordMoved.
func (m *Maintainer) recordHeads(acc map[string]Delta, old, before map[string]relation.Relation) {
	for head, was := range before {
		mv := Moved{Before: was}
		was.Diff(m.ctx.Relation(head),
			func(t tuple.Tuple) { mv.Del = append(mv.Del, t) },
			func(t tuple.Tuple) { mv.Ins = append(mv.Ins, t) })
		m.recordMoved(acc, old, head, mv)
	}
}

// recordMoved is the one place a maintenance step reports a moved head: a
// head whose content changed gets its before-image remembered in old (the
// first one wins — delta rules of later strata read the pre-batch state)
// and its delta appended to acc.
func (m *Maintainer) recordMoved(acc map[string]Delta, old map[string]relation.Relation, head string, mv Moved) {
	if mv.Empty() {
		return
	}
	if _, ok := old[head]; !ok {
		old[head] = mv.Before
	}
	d := acc[head]
	d.Del = append(d.Del, mv.Del...)
	d.Ins = append(d.Ins, mv.Ins...)
	acc[head] = d
}

// changedIn adapts a delta batch to compiler.RulePlan.ReadsAny: the
// predicate names that have a non-empty pending delta.
func changedIn(acc map[string]Delta) func(name string) bool {
	return func(name string) bool { return !acc[name].Empty() }
}
