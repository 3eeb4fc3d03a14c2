package obs

import (
	"sort"
	"sync/atomic"
	"time"
)

// RuleStats is the per-rule profile record the engine accumulates into:
// one per rule source text, shared across evaluations (full, semi-naive
// delta, and maintenance re-runs) and across the programs that compile
// the rule. All fields are updated atomically; the nil *RuleStats is a
// valid no-op.
type RuleStats struct {
	head   string
	source string

	evals       atomic.Int64 // full rule evaluations
	deltaEvals  atomic.Int64 // semi-naive / IVM delta evaluations
	tuples      atomic.Int64 // head tuples produced (pre-dedup vs current)
	seeks       atomic.Int64 // LFTJ iterator seeks
	nexts       atomic.Int64 // LFTJ iterator nexts
	sensRecords atomic.Int64 // sensitivity intervals recorded
	nanos       atomic.Int64 // total evaluation time
}

// AddEval records one full evaluation of the rule.
func (s *RuleStats) AddEval(d time.Duration, tuples int64) {
	if s == nil {
		return
	}
	s.evals.Add(1)
	s.tuples.Add(tuples)
	s.nanos.Add(int64(d))
}

// AddDeltaEval records one delta (semi-naive or maintenance) evaluation.
func (s *RuleStats) AddDeltaEval(d time.Duration, tuples int64) {
	if s == nil {
		return
	}
	s.deltaEvals.Add(1)
	s.tuples.Add(tuples)
	s.nanos.Add(int64(d))
}

// AddJoin folds the join-level metrics of one enumeration into the rule.
func (s *RuleStats) AddJoin(seeks, nexts, sensRecords int64) {
	if s == nil {
		return
	}
	s.seeks.Add(seeks)
	s.nexts.Add(nexts)
	s.sensRecords.Add(sensRecords)
}

// RuleSnapshot is the structured value of one rule's profile.
type RuleSnapshot struct {
	Head        string        `json:"head"`
	Source      string        `json:"source"`
	Evals       int64         `json:"evals"`
	DeltaEvals  int64         `json:"delta_evals,omitempty"`
	Tuples      int64         `json:"tuples"`
	Seeks       int64         `json:"seeks"`
	Nexts       int64         `json:"nexts"`
	SensRecords int64         `json:"sens_records,omitempty"`
	EvalTime    time.Duration `json:"eval_time_ns"`
}

// maxRuleProfiles bounds the registry's rule profiles. Every distinct
// exec or query source is a rule of its own, so a long-running server
// would otherwise add a profile per new request text forever; sources
// past the bound all record into the one otherRule profile.
const maxRuleProfiles = 1024

// otherRule is the head and source of the profile that collects the
// rules registered past maxRuleProfiles.
const otherRule = "(other)"

// Rule returns (creating if needed) the profile record for the rule with
// this source text, or nil on a nil registry. head labels the rule in
// snapshots; the first registration wins.
func (r *Registry) Rule(head, source string) *RuleStats {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.rules[source]
	if ok {
		return s
	}
	if len(r.rules) >= maxRuleProfiles {
		head, source = otherRule, otherRule
		if s, ok = r.rules[source]; ok {
			return s
		}
	}
	s = &RuleStats{head: head, source: source}
	r.rules[source] = s
	return s
}

// ruleSnapshotsLocked copies all rule profiles, most expensive first.
func (r *Registry) ruleSnapshotsLocked() []RuleSnapshot {
	if len(r.rules) == 0 {
		return nil
	}
	out := make([]RuleSnapshot, 0, len(r.rules))
	for _, s := range r.rules {
		out = append(out, RuleSnapshot{
			Head:        s.head,
			Source:      s.source,
			Evals:       s.evals.Load(),
			DeltaEvals:  s.deltaEvals.Load(),
			Tuples:      s.tuples.Load(),
			Seeks:       s.seeks.Load(),
			Nexts:       s.nexts.Load(),
			SensRecords: s.sensRecords.Load(),
			EvalTime:    time.Duration(s.nanos.Load()),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].EvalTime != out[j].EvalTime {
			return out[i].EvalTime > out[j].EvalTime
		}
		return out[i].Source < out[j].Source
	})
	return out
}
