package optimizer

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"logicblox/internal/compiler"
	"logicblox/internal/relation"
)

// PlanStore is a persistent per-rule plan cache: it remembers the
// variable order the sampling optimizer chose for a rule (keyed by a
// structural fingerprint that survives recompilation) together with the
// input cardinalities at plan-choice time and the iterator-operation
// costs the engine actually observed executing the plan. On the next
// compile or fixpoint re-entry the cached order is reused outright;
// sample-based ChooseOrder re-runs only when the observed per-evaluation
// cost drifts past driftFactor times the cost recorded when the plan was
// chosen, or when an input relation's cardinality changes by more than
// cardRatio. This closes the measure→decide→re-measure loop the paper's
// §3.2 sampling optimizer leaves open: real profiles replace sample
// replay as the keep-or-replan signal once they exist.
type PlanStore struct {
	mu      sync.Mutex
	entries map[string]*planEntry

	hits        int64 // cached order reused
	misses      int64 // no entry: full ChooseOrder sampling ran
	redecisions int64 // entry was stale (drift / cardinality): re-sampled
	invalidated int64 // entries dropped by schema-change invalidation
}

// The plan cache's staleness tests.
const (
	// driftFactor re-triggers sampling when a rule evaluation's observed
	// iterator operations exceed driftFactor × the baseline recorded when
	// the plan was chosen.
	driftFactor = 2.0
	// cardRatio re-triggers sampling when any input relation's cardinality
	// grows or shrinks by more than this ratio relative to plan-choice time.
	cardRatio = 2.0
	// driftFloor is the minimum baseline (in iterator operations) the drift
	// test applies to: below it, absolute costs are noise and a 2× blowup
	// is meaningless.
	driftFloor = 64
)

type planEntry struct {
	fingerprint string
	head        string
	source      string
	order       []int
	sampleCost  int            // sample-replay cost at choice time
	evaluated   int            // candidate orders tried at choice time
	cards       map[string]int // input cardinalities at choice time
	preds       []string       // base names of body predicates (invalidation)

	// Observed (obs-fed) cost model: per-evaluation iterator operations
	// measured by the engine executing this plan for real. The first
	// observation after plan choice becomes the baseline; later
	// evaluations exceeding driftFactor × baseline mark the entry stale.
	// history keeps the most recent observations (up to historyCap) so
	// drift is visible as a trajectory, not just its endpoints.
	baselineOps int64
	lastOps     int64
	obsEvals    int64
	obsOps      int64
	history     []int64
	hits        int64
	stale       bool
}

// historyCap bounds the per-plan drift history: enough to see a trend
// build toward the driftFactor threshold, small enough to cost nothing.
const historyCap = 16

// pushHistory appends ops to the bounded observation history.
func (e *planEntry) pushHistory(ops int64) {
	if len(e.history) == historyCap {
		copy(e.history, e.history[1:])
		e.history = e.history[:historyCap-1]
	}
	e.history = append(e.history, ops)
}

// NewPlanStore returns an empty plan cache.
func NewPlanStore() *PlanStore {
	return &PlanStore{entries: map[string]*planEntry{}}
}

// Fingerprint identifies a rule across recompilations: head, source
// text, join-variable count, and the sorted multiset of body predicate
// names. It is invariant under ReorderRule, so the original plan and any
// reordered variant of it share an entry.
func Fingerprint(r *compiler.RulePlan) string {
	names := make([]string, 0, len(r.Atoms))
	for _, a := range r.Atoms {
		names = append(names, a.Name)
	}
	sort.Strings(names)
	return fmt.Sprintf("%s\x00%s\x00%d\x00%s", r.HeadName, r.Source, r.NumJoinVars, strings.Join(names, ","))
}

// Choose returns the best plan for the rule, reusing the cached order
// when it is still trusted. cached reports whether sampling was skipped.
// Trivial rules (≤1 join variable) pass through without touching the
// store, mirroring ChooseOrder.
func (s *PlanStore) Choose(r *compiler.RulePlan, rels func(name string) relation.Relation) (res *Result, cached bool, err error) {
	if s == nil {
		res, err = ChooseOrder(r, rels, Options{})
		return res, false, err
	}
	if r.NumJoinVars <= 1 || len(r.Atoms) == 0 {
		return &Result{Plan: r, Order: identity(r.NumJoinVars)}, false, nil
	}
	fp := Fingerprint(r)
	cards := inputCards(r, rels)

	s.mu.Lock()
	e, ok := s.entries[fp]
	if ok && !e.stale && cardsFresh(e.cards, cards) {
		order := append([]int(nil), e.order...)
		cost := e.sampleCost
		e.hits++
		s.hits++
		s.mu.Unlock()
		plan, rerr := compiler.ReorderRule(r, order)
		if rerr != nil {
			return nil, false, rerr
		}
		return &Result{Plan: plan, Order: order, Cost: cost, Evaluated: 0}, true, nil
	}
	if ok {
		s.redecisions++
	} else {
		s.misses++
	}
	s.mu.Unlock()

	res, err = ChooseOrder(r, rels, Options{})
	if err != nil {
		return nil, false, err
	}
	preds := make([]string, 0, len(r.Atoms))
	seen := map[string]bool{}
	for _, a := range r.Atoms {
		base := compiler.BaseName(a.Name)
		if !seen[base] {
			seen[base] = true
			preds = append(preds, base)
		}
	}
	s.mu.Lock()
	s.entries[fp] = &planEntry{
		fingerprint: fp,
		head:        r.HeadName,
		source:      r.Source,
		order:       append([]int(nil), res.Order...),
		sampleCost:  res.Cost,
		evaluated:   res.Evaluated,
		cards:       cards,
		preds:       preds,
	}
	s.mu.Unlock()
	return res, false, nil
}

// Observe feeds one real rule evaluation's iterator-operation count back
// into the cache. The first observation after plan choice fixes the
// baseline of the obs-fed cost model; a later evaluation exceeding
// driftFactor × baseline marks the entry stale, so the next Choose
// re-runs sampling instead of trusting the cached order.
func (s *PlanStore) Observe(r *compiler.RulePlan, ops int64) {
	if s == nil {
		return
	}
	fp := Fingerprint(r)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[fp]
	if !ok {
		return
	}
	e.obsEvals++
	e.obsOps += ops
	e.lastOps = ops
	e.pushHistory(ops)
	if e.baselineOps == 0 {
		e.baselineOps = ops
		if e.baselineOps < driftFloor {
			e.baselineOps = driftFloor
		}
		return
	}
	if float64(ops) > driftFactor*float64(e.baselineOps) {
		e.stale = true
	}
}

// InvalidatePreds drops every cached plan whose rule reads one of the
// named predicates (base names). An addblock or removeblock calls this
// with the heads whose rules it changed, so stale plans never outlive the
// logic they were chosen for.
func (s *PlanStore) InvalidatePreds(names map[string]bool) {
	if s == nil || len(names) == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for fp, e := range s.entries {
		drop := names[compiler.BaseName(e.head)]
		for _, p := range e.preds {
			if drop {
				break
			}
			drop = names[p]
		}
		if drop {
			delete(s.entries, fp)
			s.invalidated++
		}
	}
}

// InvalidateAll empties the cache.
func (s *PlanStore) InvalidateAll() {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.invalidated += int64(len(s.entries))
	s.entries = map[string]*planEntry{}
}

// Len returns the number of cached plans.
func (s *PlanStore) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// StoreStats summarize the cache's traffic since creation.
type StoreStats struct {
	Hits        int64 `json:"hits"`
	Misses      int64 `json:"misses"`
	Redecisions int64 `json:"redecisions"`
	Invalidated int64 `json:"invalidated"`
}

// Stats returns the cache's traffic counters.
func (s *PlanStore) Stats() StoreStats {
	if s == nil {
		return StoreStats{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return StoreStats{Hits: s.hits, Misses: s.misses, Redecisions: s.redecisions, Invalidated: s.invalidated}
}

// PlanSnapshot is the structured value of one cached plan.
type PlanSnapshot struct {
	// Fingerprint is the store key: the structural rule fingerprint the
	// plan is cached under (stable across recompilations).
	Fingerprint string `json:"fingerprint"`
	Head        string `json:"head"`
	Source      string `json:"source"`
	Order       []int  `json:"order"`
	SampleCost  int    `json:"sample_cost"`
	Evaluated   int    `json:"evaluated"`
	Hits        int64  `json:"hits"`
	ObsEvals    int64  `json:"obs_evals"`
	ObsOps      int64  `json:"obs_ops"`
	BaselineOps int64  `json:"baseline_ops"`
	LastOps     int64  `json:"last_ops"`
	// History is the trajectory of per-evaluation iterator-operation
	// counts (most recent last, bounded): how the plan's observed cost
	// moved relative to BaselineOps over time.
	History []int64 `json:"history,omitempty"`
	Stale   bool    `json:"stale,omitempty"`
}

// Snapshot copies every cached plan, sorted by head then source.
func (s *PlanStore) Snapshot() []PlanSnapshot {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]PlanSnapshot, 0, len(s.entries))
	for _, e := range s.entries {
		out = append(out, PlanSnapshot{
			Fingerprint: e.fingerprint,
			Head:        e.head,
			Source:      e.source,
			Order:       append([]int(nil), e.order...),
			SampleCost:  e.sampleCost,
			Evaluated:   e.evaluated,
			Hits:        e.hits,
			ObsEvals:    e.obsEvals,
			ObsOps:      e.obsOps,
			BaselineOps: e.baselineOps,
			LastOps:     e.lastOps,
			History:     append([]int64(nil), e.history...),
			Stale:       e.stale,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Head != out[j].Head {
			return out[i].Head < out[j].Head
		}
		return out[i].Source < out[j].Source
	})
	return out
}

// SavedPlan is the durable form of one cached plan: everything needed to
// reuse the chosen order after a restart, keyed by the structural rule
// fingerprint (which survives recompilation). Observed-cost baselines are
// carried along so drift detection stays armed across restarts.
type SavedPlan struct {
	Fingerprint string
	Head        string
	Source      string
	Order       []int
	SampleCost  int
	Cards       map[string]int
	Preds       []string
	BaselineOps int64
	// History carries the recent observed-cost trajectory across
	// restarts, so a reloaded store still shows how the plan has been
	// trending (absent in snapshots written before the field existed;
	// gob leaves it nil, which reads as "no observations yet").
	History []int64
}

// Export returns the durable state of every fresh cached plan (stale
// entries are dropped: they would be re-sampled anyway). Database.Save
// embeds the result in snapshots so learned orders survive restarts.
func (s *PlanStore) Export() []SavedPlan {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]SavedPlan, 0, len(s.entries))
	for fp, e := range s.entries {
		if e.stale {
			continue
		}
		cards := make(map[string]int, len(e.cards))
		for k, v := range e.cards {
			cards[k] = v
		}
		out = append(out, SavedPlan{
			Fingerprint: fp,
			Head:        e.head,
			Source:      e.source,
			Order:       append([]int(nil), e.order...),
			SampleCost:  e.sampleCost,
			Cards:       cards,
			Preds:       append([]string(nil), e.preds...),
			BaselineOps: e.baselineOps,
			History:     append([]int64(nil), e.history...),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Fingerprint < out[j].Fingerprint })
	return out
}

// Seed installs previously exported plans into the cache (skipping
// fingerprints already present). Restored entries behave exactly like
// freshly chosen ones: they are reused while input cardinalities stay
// within cardRatio of the saved values and observed costs stay under
// driftFactor × the saved baseline.
func (s *PlanStore) Seed(plans []SavedPlan) {
	if s == nil || len(plans) == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, p := range plans {
		if _, ok := s.entries[p.Fingerprint]; ok {
			continue
		}
		cards := make(map[string]int, len(p.Cards))
		for k, v := range p.Cards {
			cards[k] = v
		}
		s.entries[p.Fingerprint] = &planEntry{
			fingerprint: p.Fingerprint,
			head:        p.Head,
			source:      p.Source,
			order:       append([]int(nil), p.Order...),
			sampleCost:  p.SampleCost,
			cards:       cards,
			preds:       append([]string(nil), p.Preds...),
			baselineOps: p.BaselineOps,
			history:     append([]int64(nil), p.History...),
		}
	}
}

// FormatPlanTable renders a plan-store snapshot as an aligned text table
// (the REPL's :plans command).
func FormatPlanTable(stats StoreStats, plans []PlanSnapshot) string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan cache: %d plans, %d hits, %d misses, %d redecisions, %d invalidated\n",
		len(plans), stats.Hits, stats.Misses, stats.Redecisions, stats.Invalidated)
	if len(plans) == 0 {
		return b.String()
	}
	fmt.Fprintf(&b, "%-14s %-12s %10s %6s %9s %9s %6s %-22s  %s\n",
		"HEAD", "ORDER", "SAMPLECOST", "HITS", "OBS_OPS", "BASELINE", "STALE", "DRIFT", "SOURCE")
	for _, p := range plans {
		order := make([]string, len(p.Order))
		for i, o := range p.Order {
			order[i] = fmt.Sprint(o)
		}
		stale := ""
		if p.Stale {
			stale = "stale"
		}
		src := p.Source
		if len(src) > 60 {
			src = src[:57] + "..."
		}
		fmt.Fprintf(&b, "%-14s %-12s %10d %6d %9d %9d %6s %-22s  %s\n",
			p.Head, strings.Join(order, ","), p.SampleCost, p.Hits, p.ObsOps, p.BaselineOps, stale,
			formatDrift(p.BaselineOps, p.History), src)
	}
	return b.String()
}

// formatDrift renders a plan's observed-cost trajectory compactly: the
// most recent observations (oldest first) followed by the ratio of the
// latest one to the baseline, e.g. "70,80,160 (2.5x)".
func formatDrift(baseline int64, history []int64) string {
	if len(history) == 0 {
		return "-"
	}
	show := history
	if len(show) > 5 {
		show = show[len(show)-5:]
	}
	parts := make([]string, len(show))
	for i, h := range show {
		parts[i] = fmt.Sprint(h)
	}
	out := strings.Join(parts, ",")
	if baseline > 0 {
		out += fmt.Sprintf(" (%.1fx)", float64(history[len(history)-1])/float64(baseline))
	}
	return out
}

// inputCards snapshots the cardinality of each distinct body predicate.
func inputCards(r *compiler.RulePlan, rels func(name string) relation.Relation) map[string]int {
	out := make(map[string]int, len(r.Atoms))
	for _, a := range r.Atoms {
		if _, ok := out[a.Name]; !ok {
			out[a.Name] = rels(a.Name).Len()
		}
	}
	return out
}

// cardsFresh reports whether current input cardinalities are within
// cardRatio of the ones recorded at plan-choice time. The +1 smoothing keeps
// empty-relation transitions from dividing by zero while still flagging
// 0→many growth.
func cardsFresh(old, cur map[string]int) bool {
	for name, c := range cur {
		o, ok := old[name]
		if !ok {
			return false
		}
		grow := float64(c+1) / float64(o+1)
		if grow > cardRatio || grow < 1/cardRatio {
			return false
		}
	}
	return true
}
