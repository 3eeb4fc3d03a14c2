package core

import (
	"context"
	"fmt"

	"logicblox/internal/compiler"
	"logicblox/internal/engine"
	"logicblox/internal/lftj"
	"logicblox/internal/obs"
	"logicblox/internal/relation"
	"logicblox/internal/tuple"
)

// Transaction repair (paper §3.4): an exec transaction run in recording
// mode keeps, per reactive stratum, the sensitivity intervals of every
// read (LFTJ iterator movements, membership probes, functional lookups)
// and the content of its heads — delta predicates, so exactly what it
// derived. When the transaction loses the optimistic-commit CAS, the
// record is intersected against the winner's write set — the tuple-level
// diff between the loser's snapshot and the new head. Strata before the
// first affected one replay from the record (their heads are portable to
// the new head); the rest, all of them when the first is affected,
// re-evaluate. The frame application, view re-derivation and constraint
// check then run against the new head exactly as a fresh execution
// would, so a repaired commit is indistinguishable from a serial
// re-execution.

// recordedStratum is the record of one reactive stratum: its reads and
// the content of its heads, which are delta predicates and so hold
// exactly what the stratum derived.
type recordedStratum struct {
	sens  *lftj.SensitivityIndex
	heads map[string]relation.Relation
}

// ExecRecord is the replayable record of an exec transaction produced by
// ExecRecordedCtx: the snapshot it ran against, its compiled program, and
// the per-stratum read intervals and heads. A record stays valid
// against any later head of the same logic — the write-set diff is always
// taken against the original snapshot — so repeated conflicts can
// re-attempt repair with the same record.
type ExecRecord struct {
	snapshot *Workspace
	combined *compiler.Program
	strata   []recordedStratum
}

// RepairStats reports what a repair attempt did.
type RepairStats struct {
	// StrataTotal and StrataReused count the transaction's reactive
	// strata and how many replayed from the record without re-evaluation.
	StrataTotal, StrataReused int
	// ChangedTuples is the winner write-set size (tuples differing between
	// the loser's snapshot and the new head) probed against the recorded
	// read intervals.
	ChangedTuples int
}

// ExecRecordedCtx runs an exec transaction like ExecCtx, additionally
// returning the repair record for use on commit conflict. Recording costs
// the sensitivity-interval bookkeeping, which is why it is opt-in.
func (ws *Workspace) ExecRecordedCtx(rctx context.Context, src string) (*ExecResult, *ExecRecord, error) {
	return ws.execCtx(rctx, src, true)
}

// Repair re-commits a conflicted transaction against newHead by
// re-deriving only what its reads actually touched, with the record's
// compiled program — no parse, no compile. It returns
// ErrRepairNotApplicable (wrapped) only when the logic or a predicate
// arity changed between snapshot and new head; any other error is the
// transaction's own failure on newHead. On success the result is
// exactly what re-executing the transaction source on newHead would
// produce.
func (rec *ExecRecord) Repair(rctx context.Context, newHead *Workspace) (*ExecResult, RepairStats, error) {
	stats := RepairStats{StrataTotal: len(rec.strata)}
	reg := newHead.Observer()
	reg.Counter("core.repair.attempts").Inc()
	if newHead.prog != rec.snapshot.prog {
		reg.Counter("core.repair.fallback.schema").Inc()
		return nil, stats, fmt.Errorf("%w: logic changed between snapshot and new head", ErrRepairNotApplicable)
	}
	changes, ok := relationChanges(rec.snapshot, newHead)
	if !ok {
		reg.Counter("core.repair.fallback.schema").Inc()
		return nil, stats, fmt.Errorf("%w: predicate arity changed between snapshot and new head", ErrRepairNotApplicable)
	}
	for _, ts := range changes {
		stats.ChangedTuples += len(ts)
	}
	reg.Counter("core.repair.changes_probed").Add(int64(stats.ChangedTuples))

	// Find the first stratum whose recorded reads intersect the winner's
	// writes: everything before it replays from the record, everything
	// from it on re-evaluates against the new head.
	k := len(rec.strata)
	for si, st := range rec.strata {
		if stratumAffected(st.sens, changes) {
			k = si
			break
		}
	}
	stats.StrataReused = k

	sp, done := newHead.txSpan(rctx, "repair")
	sp.SetAttr("strata_reused", int64(k))
	sp.SetAttr("strata_reevaluated", int64(len(rec.strata)-k))
	sp.SetAttr("changes_probed", int64(stats.ChangedTuples))
	res, err := rec.replay(rctx, newHead, k, sp)
	done(err)
	if err != nil {
		return nil, stats, err
	}
	reg.Counter("core.repair.repaired").Inc()
	reg.Counter("core.repair.strata_reused").Add(int64(k))
	reg.Counter("core.repair.strata_reevaluated").Add(int64(len(rec.strata) - k))
	return res, stats, nil
}

// replay runs the transaction against target: strata before k install
// their recorded heads (none of their reads are affected), strata from k
// on are re-evaluated, and the shared apply phase then finishes the
// transaction as usual.
func (rec *ExecRecord) replay(rctx context.Context, target *Workspace, k int, sp *obs.Span) (*ExecResult, error) {
	run, err := target.runReactive(rctx, rec.combined, rec.strata[:k], nil, sp)
	if err != nil {
		return nil, fmt.Errorf("exec repair: %w", err)
	}
	return target.applyReactive(rctx, run, sp)
}

// relationChanges diffs every predicate (base and derived — reactive
// bodies read views too) between two workspace versions, returning the
// changed tuples per name. ok=false when the versions disagree on a
// predicate's arity, in which case the record cannot be probed soundly
// and repair declines.
func relationChanges(a, b *Workspace) (map[string][]tuple.Tuple, bool) {
	ra, rb := a.relations(), b.relations()
	out := map[string][]tuple.Tuple{}
	for name, x := range ra {
		y, ok := rb[name]
		if !ok {
			y = relation.New(x.Arity())
		}
		if x.Arity() != y.Arity() {
			return nil, false
		}
		d := engine.DeltaOf(x, y)
		if ts := append(d.Del, d.Ins...); len(ts) > 0 {
			out[name] = ts
		}
	}
	for name, y := range rb {
		if _, ok := ra[name]; ok {
			continue
		}
		var ts []tuple.Tuple
		y.ForEach(func(t tuple.Tuple) bool { ts = append(ts, t); return true })
		if len(ts) > 0 {
			out[name] = ts
		}
	}
	return out, true
}

// stratumAffected reports whether any changed tuple falls inside the
// stratum's recorded read intervals. Reads record under the name the
// rule body used, so both the plain and the @start decorations of a
// changed predicate are probed.
func stratumAffected(idx *lftj.SensitivityIndex, changes map[string][]tuple.Tuple) bool {
	for name, ts := range changes {
		for _, t := range ts {
			if idx.Affected(name, t) || idx.Affected(name+compiler.DecorAtStart, t) {
				return true
			}
		}
	}
	return false
}
