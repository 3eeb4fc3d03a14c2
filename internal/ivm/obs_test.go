package ivm

import (
	"testing"

	"logicblox/internal/obs"
	"logicblox/internal/relation"
	"logicblox/internal/tuple"
)

// TestMaintainerObservability checks that maintenance passes publish
// ivm.* counters — the walk's skip of the untouched r stratum among them
// — a per-pass span, and an apply-duration histogram.
func TestMaintainerObservability(t *testing.T) {
	prog := mustProgram(t, `
		q(x, z) <- e(x, y), e(y, z).
		r(x) <- f(x).`)
	base := map[string]relation.Relation{
		"e": relation.FromTuples(2, []tuple.Tuple{tuple.Ints(1, 2), tuple.Ints(2, 3)}),
		"f": relation.FromTuples(1, []tuple.Tuple{tuple.Ints(7)}),
	}
	m, err := NewMaintainer(prog, base, DRed)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	m.SetObserver(reg)
	if m.Observer() != reg {
		t.Fatal("SetObserver not visible")
	}

	if _, err := m.Apply(map[string]Delta{"e": {Ins: []tuple.Tuple{tuple.Ints(3, 4)}}}); err != nil {
		t.Fatal(err)
	}
	// An empty batch is not counted as a pass.
	if _, err := m.Apply(map[string]Delta{"e": {}}); err != nil {
		t.Fatal(err)
	}

	s := reg.Snapshot()
	if s.Counters["ivm.applies"] != 2 {
		t.Fatalf("ivm.applies = %d, want 2: %v", s.Counters["ivm.applies"], s.Counters)
	}
	if s.Counters["ivm.delta.ins"] != 1 || s.Counters["ivm.delta.del"] != 0 {
		t.Fatalf("delta counters = %v", s.Counters)
	}
	if s.Counters["ivm.rules.evaluated"] == 0 {
		t.Fatalf("no maintenance evaluations counted: %v", s.Counters)
	}
	if s.Counters["ivm.rules.skipped"] == 0 {
		t.Fatalf("no skips counted: %v", s.Counters)
	}
	if s.Histograms["ivm.apply.duration"].Count != 2 {
		t.Fatalf("apply histogram = %+v", s.Histograms["ivm.apply.duration"])
	}
	tr, ok := reg.LastTrace()
	if !ok || tr.Name != "ivm.apply.dred" {
		t.Fatalf("last trace = %+v ok=%v", tr, ok)
	}
}

// TestInsertPropagationRunsEngineRounds: Counting and DRed propagate an
// insertion into a recursive view with the engine's semi-naive loop, so
// its round counter moves across the Apply.
func TestInsertPropagationRunsEngineRounds(t *testing.T) {
	prog := mustProgram(t, `
		path(x, y) <- edge(x, y).
		path(x, z) <- path(x, y), edge(y, z).`)
	for _, mode := range []Mode{Counting, DRed} {
		base := map[string]relation.Relation{
			"edge": relation.FromTuples(2, []tuple.Tuple{tuple.Ints(1, 2), tuple.Ints(2, 3)}),
		}
		m, err := NewMaintainer(prog, base, mode)
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		m.SetObserver(reg)
		before := reg.Snapshot().Counters["engine.fixpoint.rounds"]
		if _, err := m.Apply(map[string]Delta{"edge": {Ins: []tuple.Tuple{tuple.Ints(3, 4)}}}); err != nil {
			t.Fatal(err)
		}
		if after := reg.Snapshot().Counters["engine.fixpoint.rounds"]; after <= before {
			t.Fatalf("%v: engine.fixpoint.rounds %d -> %d across an insert into a recursive view", mode, before, after)
		}
		if !m.Relation("path").Contains(tuple.Ints(1, 4)) {
			t.Fatalf("%v: path = %v", mode, m.Relation("path").Slice())
		}
	}
}
