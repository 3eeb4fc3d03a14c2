package engine

import (
	"context"
	"errors"
	"testing"

	"logicblox/internal/obs"
	"logicblox/internal/optimizer"
	"logicblox/internal/relation"
	"logicblox/internal/tuple"
)

func adaptiveBase() map[string]relation.Relation {
	r := relation.New(2)
	s := relation.New(2)
	for i := int64(0); i < 4000; i++ {
		r = r.Insert(tuple.Ints(i%200, i%300))
		s = s.Insert(tuple.Ints(i%300, i%400))
	}
	tt := relation.New(1)
	tt = tt.Insert(tuple.Ints(17))
	return map[string]relation.Relation{"r": r, "s": s, "t": tt}
}

// TestPlanStoreWarmCacheSkipsChooseOrder pins the tentpole behavior: a
// fresh engine context (a new transaction or recompile) sharing a warmed
// plan store must reuse the cached variable order without re-running
// sample-based ChooseOrder, and the reuse must be visible in the obs
// counters and the rule's profile.
func TestPlanStoreWarmCacheSkipsChooseOrder(t *testing.T) {
	prog := mustCompile(t, `q(a, b, c) <- r(a, b), s(b, c), t(c).`)
	base := adaptiveBase()
	rule := prog.Rules[0]
	store := optimizer.NewPlanStore()
	reg := obs.NewRegistry()

	want, err := NewContext(prog, base, Options{}).EvalRule(rule, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Cold: the first context pays one sampling run.
	cold := NewContext(prog, base, Options{Plans: store, Obs: reg})
	got, err := cold.EvalRule(rule, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("cold adaptive eval differs: %d vs %d tuples", got.Len(), want.Len())
	}
	snap := reg.Snapshot()
	if n := snap.Counters["optimizer.choose_order.calls"]; n != 1 {
		t.Fatalf("cold eval ran ChooseOrder %d times, want 1", n)
	}
	if n := snap.Counters["optimizer.plan.misses"]; n != 1 {
		t.Fatalf("cold eval recorded %d misses, want 1", n)
	}

	// Warm: three new contexts over the same data skip sampling entirely.
	for i := 0; i < 3; i++ {
		warm := NewContext(prog, base, Options{Plans: store, Obs: reg})
		got, err := warm.EvalRule(rule, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("warm adaptive eval differs: %d vs %d tuples", got.Len(), want.Len())
		}
	}
	snap = reg.Snapshot()
	if n := snap.Counters["optimizer.choose_order.calls"]; n != 1 {
		t.Fatalf("warm evals re-ran ChooseOrder: %d calls, want 1", n)
	}
	if n := snap.Counters["optimizer.plan.hits"]; n != 3 {
		t.Fatalf("warm evals recorded %d hits, want 3", n)
	}
	st := store.Stats()
	if st.Misses != 1 || st.Hits != 3 || st.Redecisions != 0 {
		t.Fatalf("store stats = %+v, want 1 miss / 3 hits", st)
	}

	// The rule profile exposes the decision: an order string plus how
	// often it was freshly chosen vs reused.
	var found bool
	for _, rp := range snap.Rules {
		if rp.Head != "q" {
			continue
		}
		found = true
		if rp.PlanOrder == "" {
			t.Fatalf("rule profile has no plan order: %+v", rp)
		}
		if rp.PlanChosen != 1 || rp.PlanCached != 3 {
			t.Fatalf("rule profile plan counts = chosen %d / cached %d, want 1/3", rp.PlanChosen, rp.PlanCached)
		}
	}
	if !found {
		t.Fatal("no rule profile for q")
	}
}

// TestPlanStoreFeedsObservations checks enumerate() closes the loop: real
// evaluations report their iterator-operation counts back to the store.
func TestPlanStoreFeedsObservations(t *testing.T) {
	prog := mustCompile(t, `q(a, b, c) <- r(a, b), s(b, c), t(c).`)
	base := adaptiveBase()
	rule := prog.Rules[0]
	store := optimizer.NewPlanStore()

	// No obs registry attached: observations must still flow.
	ctx := NewContext(prog, base, Options{Plans: store})
	if _, err := ctx.EvalRule(rule, nil); err != nil {
		t.Fatal(err)
	}
	snaps := store.Snapshot()
	if len(snaps) != 1 {
		t.Fatalf("store holds %d plans, want 1", len(snaps))
	}
	if snaps[0].ObsEvals == 0 || snaps[0].ObsOps == 0 {
		t.Fatalf("no observations fed back: %+v", snaps[0])
	}
	if snaps[0].BaselineOps == 0 {
		t.Fatalf("baseline not established: %+v", snaps[0])
	}
}

// TestPlanStoreIgnoresPartialEvaluations: an evaluation that did not run to
// exhaustion (here: cancelled mid-join) has counted only part of the plan's
// cost. Fed to the store as the first observation it would become the
// baseline, and every later complete evaluation would exceed the drift
// threshold, mark the plan stale and re-sample — plan-cache thrash caused by
// one timed-out request.
func TestPlanStoreIgnoresPartialEvaluations(t *testing.T) {
	prog := mustCompile(t, `q(a, b, c) <- r(a, b), s(b, c).`) // thousands of iterator operations, far above the drift floor
	base := adaptiveBase()
	rule := prog.Rules[0]
	store := optimizer.NewPlanStore()

	rctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctx := NewContext(prog, base, Options{Plans: store, Ctx: rctx})
	chosen, _, err := store.Choose(rule, ctx.Relation)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ctx.Bindings(chosen.Plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := b.Next(); !ok {
		t.Fatalf("no first binding: %v", b.Err())
	}
	cancel()
	if _, ok := b.Next(); ok || !errors.Is(b.Err(), context.Canceled) {
		t.Fatalf("cancelled cursor: ok=%v err=%v, want context.Canceled", ok, b.Err())
	}
	b.Close()
	if snap := store.Snapshot()[0]; snap.ObsEvals != 0 || snap.BaselineOps != 0 {
		t.Fatalf("partial evaluation was observed: %+v", snap)
	}

	// Two complete evaluations: the first sets the baseline, the second
	// matches it, so the plan stays trusted and is reused.
	for i := 0; i < 2; i++ {
		if _, err := NewContext(prog, base, Options{Plans: store}).EvalRule(rule, nil); err != nil {
			t.Fatal(err)
		}
	}
	if snap := store.Snapshot()[0]; snap.Stale || snap.ObsEvals != 2 || snap.BaselineOps != snap.LastOps {
		t.Fatalf("complete evaluations after a partial one: %+v", snap)
	}
	if st := store.Stats(); st.Redecisions != 0 {
		t.Fatalf("plan re-sampled after a cancelled evaluation: %+v", st)
	}
}
