package ivm

import (
	"logicblox/internal/compiler"
	"logicblox/internal/lftj"
)

// Sensitivity-guided maintenance (the LogicBlox strategy, paper §3.2):
// every evaluation of a stratum records the sensitivity intervals of its
// leapfrog runs; a change batch first probes those intervals, and strata
// whose recorded trace the changes cannot intersect are skipped without
// running any join. Affected strata are re-derived by RederiveStratum,
// recording a fresh trace.

// traceStale is Sensitivity's staleness test: a stratum is stale when it
// has no recorded trace yet (the initial evaluation) or a pending change
// falls inside it. A stale stratum is evaluated next, so the test installs
// the fresh index that evaluation records into.
func (m *Maintainer) traceStale(acc map[string]Delta) Stale {
	return func(stratum []*compiler.RulePlan) bool {
		id := stratum[0].ID
		if idx := m.sens[id]; idx != nil && !deltaHits(idx, acc) {
			return false
		}
		m.sens[id] = lftj.NewSensitivityIndex()
		m.ctx.SetSensitivityIndex(m.sens[id])
		return true
	}
}

// deltaHits reports whether any pending change intersects idx.
func deltaHits(idx *lftj.SensitivityIndex, acc map[string]Delta) bool {
	for name, d := range acc {
		for _, t := range d.Ins {
			if idx.Affected(name, t) {
				return true
			}
		}
		for _, t := range d.Del {
			if idx.Affected(name, t) {
				return true
			}
		}
	}
	return false
}
