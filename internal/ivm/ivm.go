// Package ivm implements incremental view maintenance (paper T3, §3.2).
//
// Four strategies are provided, benchmarked against each other in the E4
// experiment:
//
//   - Recompute: re-evaluate every derived predicate from scratch (the
//     "HANA approach" the paper argues against).
//   - Counting: classical delta rules with support counting (Gupta,
//     Mumick & Subrahmanian, SIGMOD'93) for non-recursive strata.
//   - DRed: delete-and-rederive with pinned rederivability checks.
//   - Sensitivity: the LogicBlox approach — per-rule sensitivity indices
//     recorded by leapfrog runs decide which rules a change can affect at
//     all; unaffected rules are skipped without touching their joins, so
//     maintenance work tracks the trace edit distance of the evaluation.
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

	// sensitivity state: one index per rule (per stratum for recursive
	// strata) and per-rule result relations.
	ruleSens    map[int]*lftj.SensitivityIndex
	stratumSens map[int]*lftj.SensitivityIndex
	ruleRel     map[int]relation.Relation

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
		prog:        prog,
		mode:        mode,
		ruleCounts:  map[int]map[string]*crec{},
		support:     map[string]map[string]*crec{},
		ruleSens:    map[int]*lftj.SensitivityIndex{},
		stratumSens: map[int]*lftj.SensitivityIndex{},
		ruleRel:     map[int]relation.Relation{},
	}
	m.ctx = engine.NewContext(prog, base, engine.Options{})
	switch mode {
	case Counting:
		if err := m.initialCountingEval(); err != nil {
			return nil, err
		}
	case Sensitivity:
		if err := m.initialSensitivityEval(); err != nil {
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
		err = m.applyRecompute(acc)
	case Counting:
		err = m.applyCounting(acc, old)
	case DRed:
		err = m.applyDRed(acc, old)
	case Sensitivity:
		err = m.applySensitivity(acc, old)
	}
	return acc, err
}

// applyRecompute throws away all derived state and re-evaluates.
func (m *Maintainer) applyRecompute(acc map[string]Delta) error {
	oldDerived := map[string]relation.Relation{}
	for _, name := range m.prog.IDBPreds {
		oldDerived[name] = m.ctx.Relation(name)
		m.ctx.Set(name, relation.New(oldDerived[name].Arity()))
	}
	for _, stratum := range m.prog.Strata {
		m.Stats.RulesEvaluated += len(stratum)
	}
	if err := m.ctx.EvalAll(); err != nil {
		return err
	}
	for _, name := range m.prog.IDBPreds {
		recordDiff(acc, name, oldDerived[name], m.ctx.Relation(name))
	}
	return nil
}

// recordDiff appends the difference between two versions of name to acc.
func recordDiff(acc map[string]Delta, name string, before, after relation.Relation) {
	d := acc[name]
	before.Diff(after,
		func(t tuple.Tuple) { d.Del = append(d.Del, t) },
		func(t tuple.Tuple) { d.Ins = append(d.Ins, t) })
	if !d.Empty() {
		acc[name] = d
	}
}

// changedIn adapts a delta batch to compiler.RulePlan.ReadsAny: the
// predicate names that have a non-empty pending delta.
func changedIn(acc map[string]Delta) func(name string) bool {
	return func(name string) bool { return !acc[name].Empty() }
}
