package ivm

import "logicblox/internal/lftj"

// Sensitivity-guided maintenance (the LogicBlox strategy, paper §3.2):
// every evaluation of a stratum records the sensitivity intervals of its
// leapfrog runs; a change batch first probes those intervals, and strata
// whose recorded trace the changes cannot intersect are skipped without
// running any join. The walk installs a fresh index right before it
// re-evaluates an affected stratum, so the evaluation records the next
// trace.

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
