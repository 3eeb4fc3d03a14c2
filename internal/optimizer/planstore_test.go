package optimizer_test

import (
	"strings"
	"testing"

	"logicblox/internal/compiler"
	"logicblox/internal/optimizer"
	"logicblox/internal/relation"
	"logicblox/internal/tuple"
)

// planBase builds a joinable r/s pair sized so sampling has signal.
func planBase(n int64) map[string]relation.Relation {
	r := relation.New(2)
	s := relation.New(2)
	for i := int64(0); i < n; i++ {
		r = r.Insert(tuple.Ints(i%40, i%60))
		s = s.Insert(tuple.Ints(i%60, i%80))
	}
	return map[string]relation.Relation{"r": r, "s": s}
}

func relsOf(base map[string]relation.Relation) func(string) relation.Relation {
	return func(name string) relation.Relation { return base[name] }
}

func TestPlanStoreHitSkipsSampling(t *testing.T) {
	_, rule := compileRule(t, `out(a, c) <- r(a, b), s(b, c).`)
	base := planBase(500)
	store := optimizer.NewPlanStore()

	res1, cached, err := store.Choose(rule, relsOf(base))
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Fatal("first Choose must miss")
	}
	if res1.Evaluated == 0 {
		t.Fatal("first Choose should have sampled candidate orders")
	}

	res2, cached, err := store.Choose(rule, relsOf(base))
	if err != nil {
		t.Fatal(err)
	}
	if !cached {
		t.Fatal("second Choose must hit the cache")
	}
	if res2.Evaluated != 0 {
		t.Fatalf("cached Choose re-sampled %d candidates", res2.Evaluated)
	}
	if len(res2.Order) != len(res1.Order) {
		t.Fatalf("order mismatch: %v vs %v", res2.Order, res1.Order)
	}
	for i := range res1.Order {
		if res1.Order[i] != res2.Order[i] {
			t.Fatalf("cached order %v differs from chosen %v", res2.Order, res1.Order)
		}
	}
	st := store.Stats()
	if st.Misses != 1 || st.Hits != 1 || st.Redecisions != 0 {
		t.Fatalf("stats = %+v, want 1 miss / 1 hit", st)
	}
	if store.Len() != 1 {
		t.Fatalf("store holds %d entries, want 1", store.Len())
	}
}

func TestPlanStoreDriftTriggersResample(t *testing.T) {
	_, rule := compileRule(t, `out(a, c) <- r(a, b), s(b, c).`)
	base := planBase(500)
	store := optimizer.NewPlanStore()

	if _, _, err := store.Choose(rule, relsOf(base)); err != nil {
		t.Fatal(err)
	}
	// First observation fixes the baseline; a within-budget second one
	// keeps the plan trusted.
	store.Observe(rule, 1000)
	store.Observe(rule, 1500)
	if _, cached, err := store.Choose(rule, relsOf(base)); err != nil || !cached {
		t.Fatalf("cached=%v err=%v, want trusted cache hit", cached, err)
	}
	// A 3× blowup past DriftFactor (2.0) marks the entry stale.
	store.Observe(rule, 3000)
	_, cached, err := store.Choose(rule, relsOf(base))
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Fatal("drifted plan must be re-sampled, not reused")
	}
	st := store.Stats()
	if st.Redecisions != 1 {
		t.Fatalf("stats = %+v, want 1 redecision", st)
	}
	// Re-sampling resets the baseline: the store trusts the new plan.
	if _, cached, _ := store.Choose(rule, relsOf(base)); !cached {
		t.Fatal("fresh re-decision should be reusable")
	}
}

func TestPlanStoreDriftFloor(t *testing.T) {
	_, rule := compileRule(t, `out(a, c) <- r(a, b), s(b, c).`)
	base := planBase(200)
	store := optimizer.NewPlanStore()
	if _, _, err := store.Choose(rule, relsOf(base)); err != nil {
		t.Fatal(err)
	}
	// Tiny baselines are floored at 64 ops, so a 10→100 "10× blowup" in
	// absolute noise does not evict the plan (100 ≤ 2×64).
	store.Observe(rule, 10)
	store.Observe(rule, 100)
	if _, cached, _ := store.Choose(rule, relsOf(base)); !cached {
		t.Fatal("sub-floor drift must not trigger re-sampling")
	}
	store.Observe(rule, 129) // > 2×64
	if _, cached, _ := store.Choose(rule, relsOf(base)); cached {
		t.Fatal("past-floor drift must trigger re-sampling")
	}
}

func TestPlanStoreCardinalityTriggersResample(t *testing.T) {
	_, rule := compileRule(t, `out(a, c) <- r(a, b), s(b, c).`)
	base := planBase(300)
	store := optimizer.NewPlanStore()
	if _, _, err := store.Choose(rule, relsOf(base)); err != nil {
		t.Fatal(err)
	}
	// Growing r by 3× exceeds CardRatio (2.0): the cached plan's
	// cardinality assumptions no longer hold.
	grown := planBase(300)
	big := grown["r"]
	for i := int64(0); i < 2000; i++ {
		big = big.Insert(tuple.Ints(1000+i, i%60))
	}
	grown["r"] = big
	_, cached, err := store.Choose(rule, relsOf(grown))
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Fatal("cardinality shift must trigger re-sampling")
	}
	if st := store.Stats(); st.Redecisions != 1 {
		t.Fatalf("stats = %+v, want 1 redecision", st)
	}
}

func TestPlanStoreInvalidatePreds(t *testing.T) {
	_, rule := compileRule(t, `out(a, c) <- r(a, b), s(b, c).`)
	base := planBase(200)
	store := optimizer.NewPlanStore()
	if _, _, err := store.Choose(rule, relsOf(base)); err != nil {
		t.Fatal(err)
	}
	// Unrelated predicates leave the entry alone.
	store.InvalidatePreds(map[string]bool{"unrelated": true})
	if store.Len() != 1 {
		t.Fatal("unrelated invalidation dropped the plan")
	}
	// A body predicate drops it.
	store.InvalidatePreds(map[string]bool{"s": true})
	if store.Len() != 0 {
		t.Fatal("body-predicate invalidation kept the plan")
	}
	if st := store.Stats(); st.Invalidated != 1 {
		t.Fatalf("stats = %+v, want 1 invalidated", st)
	}
	// The head predicate drops it too.
	if _, _, err := store.Choose(rule, relsOf(base)); err != nil {
		t.Fatal(err)
	}
	store.InvalidatePreds(map[string]bool{"out": true})
	if store.Len() != 0 {
		t.Fatal("head-predicate invalidation kept the plan")
	}
}

func TestPlanStoreInvalidateAll(t *testing.T) {
	_, rule := compileRule(t, `out(a, c) <- r(a, b), s(b, c).`)
	base := planBase(200)
	store := optimizer.NewPlanStore()
	if _, _, err := store.Choose(rule, relsOf(base)); err != nil {
		t.Fatal(err)
	}
	store.InvalidateAll()
	if store.Len() != 0 {
		t.Fatal("InvalidateAll left entries behind")
	}
	if st := store.Stats(); st.Invalidated != 1 {
		t.Fatalf("stats = %+v, want 1 invalidated", st)
	}
}

func TestPlanStoreTrivialRulePassesThrough(t *testing.T) {
	_, rule := compileRule(t, `out(x) <- r(x).`)
	store := optimizer.NewPlanStore()
	res, cached, err := store.Choose(rule, func(string) relation.Relation { return relation.New(1) })
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Fatal("trivial rule reported as cache hit")
	}
	if res.Plan == nil {
		t.Fatal("nil plan for trivial rule")
	}
	if store.Len() != 0 {
		t.Fatal("trivial rule should not occupy the store")
	}
	if st := store.Stats(); st != (optimizer.StoreStats{}) {
		t.Fatalf("trivial rule moved counters: %+v", st)
	}
}

func TestPlanStoreNilReceiver(t *testing.T) {
	var store *optimizer.PlanStore
	_, rule := compileRule(t, `out(a, c) <- r(a, b), s(b, c).`)
	base := planBase(100)
	res, cached, err := store.Choose(rule, relsOf(base))
	if err != nil {
		t.Fatal(err)
	}
	if cached || res == nil {
		t.Fatal("nil store must fall back to plain ChooseOrder")
	}
	store.Observe(rule, 100)
	store.InvalidatePreds(map[string]bool{"r": true})
	store.InvalidateAll()
	if store.Len() != 0 || store.Stats() != (optimizer.StoreStats{}) || store.Snapshot() != nil {
		t.Fatal("nil store accessors must be zero-valued")
	}
}

func TestFingerprintInvariantUnderReorder(t *testing.T) {
	_, rule := compileRule(t, `out(a, b, c) <- r(a, b), s(b, c), t(c).`)
	fp := optimizer.Fingerprint(rule)
	for _, order := range optimizer.CandidateOrders(rule.NumJoinVars, 0) {
		plan, err := compiler.ReorderRule(rule, order)
		if err != nil {
			t.Fatalf("order %v: %v", order, err)
		}
		if got := optimizer.Fingerprint(plan); got != fp {
			t.Fatalf("order %v changed fingerprint: %q vs %q", order, got, fp)
		}
	}
	// A different rule must not collide.
	_, other := compileRule(t, `out2(a, c) <- r(a, b), s(b, c).`)
	if optimizer.Fingerprint(other) == fp {
		t.Fatal("distinct rules share a fingerprint")
	}
}

func TestPlanStoreSnapshotAndFormat(t *testing.T) {
	_, rule := compileRule(t, `out(a, c) <- r(a, b), s(b, c).`)
	base := planBase(300)
	store := optimizer.NewPlanStore()
	if _, _, err := store.Choose(rule, relsOf(base)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := store.Choose(rule, relsOf(base)); err != nil {
		t.Fatal(err)
	}
	store.Observe(rule, 500)
	snaps := store.Snapshot()
	if len(snaps) != 1 {
		t.Fatalf("snapshot has %d plans, want 1", len(snaps))
	}
	p := snaps[0]
	if p.Head != "out" || p.Hits != 1 || p.ObsEvals != 1 || p.ObsOps != 500 {
		t.Fatalf("snapshot = %+v", p)
	}
	table := optimizer.FormatPlanTable(store.Stats(), snaps)
	for _, want := range []string{"plan cache: 1 plans", "1 hits", "1 misses", "out"} {
		if !strings.Contains(table, want) {
			t.Fatalf("table missing %q:\n%s", want, table)
		}
	}
}

func TestPlanStoreDriftHistory(t *testing.T) {
	_, rule := compileRule(t, `out(a, c) <- r(a, b), s(b, c).`)
	base := planBase(300)
	store := optimizer.NewPlanStore()
	if _, _, err := store.Choose(rule, relsOf(base)); err != nil {
		t.Fatal(err)
	}

	// Before any observation the history is empty and renders as "-".
	if h := store.Snapshot()[0].History; len(h) != 0 {
		t.Fatalf("fresh plan has history %v", h)
	}

	// Each Observe appends, oldest first, within the drift budget
	// (baseline fixes at 100; 120 and 150 stay under DriftFactor 2×).
	for _, ops := range []int64{100, 120, 150} {
		store.Observe(rule, ops)
	}
	h := store.Snapshot()[0].History
	if len(h) != 3 || h[0] != 100 || h[1] != 120 || h[2] != 150 {
		t.Fatalf("history = %v, want [100 120 150]", h)
	}

	// The ring is bounded: after many observations only the most recent
	// 16 survive, still oldest-first.
	for i := int64(0); i < 30; i++ {
		store.Observe(rule, 100+i)
	}
	h = store.Snapshot()[0].History
	if len(h) != 16 {
		t.Fatalf("history length = %d, want 16 (bounded ring)", len(h))
	}
	if h[len(h)-1] != 129 || h[0] != 114 {
		t.Fatalf("ring kept wrong window: %v", h)
	}
}

func TestPlanStoreHistorySurvivesExportSeed(t *testing.T) {
	_, rule := compileRule(t, `out(a, c) <- r(a, b), s(b, c).`)
	base := planBase(300)
	store := optimizer.NewPlanStore()
	if _, _, err := store.Choose(rule, relsOf(base)); err != nil {
		t.Fatal(err)
	}
	store.Observe(rule, 100)
	store.Observe(rule, 130)

	saved := store.Export()
	if len(saved) != 1 {
		t.Fatalf("exported %d plans, want 1", len(saved))
	}
	if h := saved[0].History; len(h) != 2 || h[0] != 100 || h[1] != 130 {
		t.Fatalf("exported history = %v, want [100 130]", h)
	}

	restored := optimizer.NewPlanStore()
	restored.Seed(saved)
	snaps := restored.Snapshot()
	if len(snaps) != 1 {
		t.Fatalf("restored %d plans, want 1", len(snaps))
	}
	if h := snaps[0].History; len(h) != 2 || h[0] != 100 || h[1] != 130 {
		t.Fatalf("restored history = %v, want [100 130]", h)
	}
	// Restored history keeps accumulating in the same ring.
	restored.Observe(rule, 150)
	if h := restored.Snapshot()[0].History; len(h) != 3 || h[2] != 150 {
		t.Fatalf("post-seed history = %v, want [100 130 150]", h)
	}
}

func TestFormatPlanTableDriftColumn(t *testing.T) {
	_, rule := compileRule(t, `out(a, c) <- r(a, b), s(b, c).`)
	base := planBase(300)
	store := optimizer.NewPlanStore()
	if _, _, err := store.Choose(rule, relsOf(base)); err != nil {
		t.Fatal(err)
	}

	// With no observations yet the drift cell is a placeholder.
	table := optimizer.FormatPlanTable(store.Stats(), store.Snapshot())
	if !strings.Contains(table, "DRIFT") {
		t.Fatalf("table missing DRIFT header:\n%s", table)
	}

	for _, ops := range []int64{100, 120, 150} {
		store.Observe(rule, ops)
	}
	table = optimizer.FormatPlanTable(store.Stats(), store.Snapshot())
	if !strings.Contains(table, "100,120,150") {
		t.Fatalf("table missing drift trajectory:\n%s", table)
	}
	if !strings.Contains(table, "(1.5x)") {
		t.Fatalf("table missing drift ratio:\n%s", table)
	}
}
