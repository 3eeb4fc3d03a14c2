package engine

import (
	"testing"

	"logicblox/internal/obs"
	"logicblox/internal/relation"
	"logicblox/internal/tuple"
)

// TestEvalRecordsRuleProfiles checks that an instrumented evaluation
// produces one profile per rule with nonzero time, tuple counts matching
// the result, and nonzero LFTJ seek/next counters for a real join.
func TestEvalRecordsRuleProfiles(t *testing.T) {
	prog := mustCompile(t, `
		path(x, y) <- edge(x, y).
		path(x, z) <- path(x, y), edge(y, z).`)
	edges := relation.New(2)
	for i := int64(0); i < 10; i++ {
		edges = edges.Insert(tuple.Ints(i, i+1))
	}
	reg := obs.NewRegistry()
	ctx := NewContext(prog, map[string]relation.Relation{"edge": edges}, Options{Obs: reg})
	if err := ctx.EvalAll(); err != nil {
		t.Fatal(err)
	}

	s := reg.Snapshot()
	if len(s.Rules) != 2 {
		t.Fatalf("rules profiled = %d, want 2: %+v", len(s.Rules), s.Rules)
	}
	var totalTuples, totalSeeks, totalNexts int64
	for _, r := range s.Rules {
		if r.Head != "path" {
			t.Fatalf("unexpected rule head %q", r.Head)
		}
		if r.Evals == 0 {
			t.Fatalf("rule %q never evaluated: %+v", r.Source, r)
		}
		if r.EvalTime <= 0 {
			t.Fatalf("rule %q has no eval time: %+v", r.Source, r)
		}
		totalTuples += r.Tuples
		totalSeeks += r.Seeks
		totalNexts += r.Nexts
	}
	// Every tuple of the closure was produced by some rule evaluation
	// (semi-naive may produce more across rounds, never fewer).
	if closure := int64(ctx.Relation("path").Len()); totalTuples < closure {
		t.Fatalf("tuples profiled = %d < closure size %d", totalTuples, closure)
	}
	// The recursive rule runs a two-atom leapfrog join: it must have
	// advanced iterators.
	if totalSeeks == 0 && totalNexts == 0 {
		t.Fatal("no LFTJ seeks or nexts recorded")
	}
	if n := s.Counters["engine.fixpoint.rounds"]; n == 0 {
		t.Fatal("no fixpoint rounds counted for a recursive program")
	}
}

// TestEvalTrace checks the span tree shape: engine.eval → one span per
// stratum → one span per rule evaluation.
func TestEvalTrace(t *testing.T) {
	prog := mustCompile(t, `
		a(x) <- base(x).
		b(x) <- a(x).`)
	reg := obs.NewRegistry()
	ctx := NewContext(prog, map[string]relation.Relation{
		"base": relOf(1, tuple.Ints(1), tuple.Ints(2)),
	}, Options{Obs: reg})
	if err := ctx.EvalAll(); err != nil {
		t.Fatal(err)
	}

	root, ok := reg.LastTrace()
	if !ok {
		t.Fatal("no trace recorded")
	}
	if root.Name != "engine.eval" {
		t.Fatalf("root span = %q", root.Name)
	}
	if len(root.Children) != 2 {
		t.Fatalf("stratum spans = %d, want 2", len(root.Children))
	}
	ruleSpans := 0
	for _, st := range root.Children {
		if st.Name != "stratum" {
			t.Fatalf("child span = %q, want stratum", st.Name)
		}
		for _, rs := range st.Children {
			if rs.Name != "rule:a" && rs.Name != "rule:b" {
				t.Fatalf("rule span = %q", rs.Name)
			}
			ruleSpans++
		}
	}
	if ruleSpans != 2 {
		t.Fatalf("rule spans = %d, want 2", ruleSpans)
	}
}

// TestUninstrumentedEvalUnchanged checks that with no registry attached
// nothing is recorded and evaluation still works.
func TestUninstrumentedEvalUnchanged(t *testing.T) {
	prog := mustCompile(t, `b(x) <- a(x).`)
	ctx := NewContext(prog, map[string]relation.Relation{
		"a": relOf(1, tuple.Ints(1)),
	}, Options{})
	if ctx.Observer() != nil {
		t.Fatal("context picked up an observer with none installed")
	}
	if err := ctx.EvalAll(); err != nil {
		t.Fatal(err)
	}
	if ctx.Relation("b").Len() != 1 {
		t.Fatal("evaluation broken without observer")
	}
}

// TestSetObserverSwitch checks SetObserver redirects profiling to a new
// registry.
func TestSetObserverSwitch(t *testing.T) {
	prog := mustCompile(t, `b(x) <- a(x).`)
	first := obs.NewRegistry()
	ctx := NewContext(prog, map[string]relation.Relation{
		"a": relOf(1, tuple.Ints(1)),
	}, Options{Obs: first})
	if err := ctx.EvalAll(); err != nil {
		t.Fatal(err)
	}
	second := obs.NewRegistry()
	ctx.SetObserver(second)
	if err := ctx.EvalAll(); err != nil {
		t.Fatal(err)
	}
	if len(first.Snapshot().Rules) != 1 || len(second.Snapshot().Rules) != 1 {
		t.Fatalf("rule profiles not split across registries: first=%+v second=%+v",
			first.Snapshot().Rules, second.Snapshot().Rules)
	}
}
