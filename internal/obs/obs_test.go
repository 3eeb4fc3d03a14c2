package obs

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x")
	c.Add(3)
	c.Inc()
	if got := c.Value(); got != 4 {
		t.Fatalf("counter = %d, want 4", got)
	}
	if r.Counter("x") != c {
		t.Fatal("Counter not idempotent per name")
	}
	g := r.Gauge("y")
	g.Set(7)
	g.Set(5)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}
	s := r.Snapshot()
	if s.Counters["x"] != 4 || s.Gauges["y"] != 5 {
		t.Fatalf("snapshot = %+v", s)
	}
}

func TestHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("d")
	h.Observe(100 * time.Nanosecond)
	h.Observe(3 * time.Microsecond)
	h.Observe(time.Millisecond)
	s := h.snapshot()
	if s.Count != 3 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.Min != 100*time.Nanosecond || s.Max != time.Millisecond {
		t.Fatalf("min/max = %v/%v", s.Min, s.Max)
	}
	if want := (100*time.Nanosecond + 3*time.Microsecond + time.Millisecond) / 3; s.Mean() != want {
		t.Fatalf("mean = %v, want %v", s.Mean(), want)
	}
	// 100ns lands in bucket (64,128]: upper bound 128.
	if s.Buckets[128] != 1 {
		t.Fatalf("bucket[128] = %d, buckets = %v", s.Buckets[128], s.Buckets)
	}
	// Sub-resolution and negative observations clamp to 1ns, not 0.
	h2 := r.Histogram("zero")
	h2.Observe(0)
	if z := h2.snapshot(); z.Min != 1 || z.Max != 1 || z.Count != 1 {
		t.Fatalf("zero-duration snapshot = %+v", z)
	}
}

func TestRuleStats(t *testing.T) {
	r := NewRegistry()
	rs := r.Rule("path", "path(x, z) <- path(x, y), edge(y, z).")
	if r.Rule("ignored", "path(x, z) <- path(x, y), edge(y, z).") != rs {
		t.Fatal("Rule not idempotent per source")
	}
	rs.AddEval(2*time.Microsecond, 10)
	rs.AddDeltaEval(time.Microsecond, 4)
	rs.AddJoin(5, 9, 2)
	s := r.Snapshot()
	if len(s.Rules) != 1 {
		t.Fatalf("rules = %+v", s.Rules)
	}
	got := s.Rules[0]
	if got.Head != "path" || got.Evals != 1 || got.DeltaEvals != 1 ||
		got.Tuples != 14 || got.Seeks != 5 || got.Nexts != 9 || got.SensRecords != 2 ||
		got.EvalTime != 3*time.Microsecond {
		t.Fatalf("rule snapshot = %+v", got)
	}
}

func TestRuleSnapshotOrder(t *testing.T) {
	r := NewRegistry()
	r.Rule("cheap", "cheap(x) <- a(x).").AddEval(time.Microsecond, 1)
	r.Rule("costly", "costly(x) <- b(x).").AddEval(time.Millisecond, 1)
	s := r.Snapshot()
	if len(s.Rules) != 2 || s.Rules[0].Head != "costly" {
		t.Fatalf("rules not sorted by eval time: %+v", s.Rules)
	}
}

// TestRuleProfilesBounded: every distinct exec or query source is a rule
// of its own, so the registry keeps at most maxRuleProfiles of them and
// records every later source into the one otherRule profile.
func TestRuleProfilesBounded(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < maxRuleProfiles+10; i++ {
		r.Rule("q", fmt.Sprintf("+q(%d).", i)).AddEval(time.Microsecond, 1)
	}
	if r.Rule("q", "+q(0).") == r.Rule("q", "+q(-1).") {
		t.Fatal("a source registered under the bound shares the overflow profile")
	}
	s := r.Snapshot()
	if len(s.Rules) != maxRuleProfiles+1 {
		t.Fatalf("profiles = %d, want %d plus %s", len(s.Rules), maxRuleProfiles, otherRule)
	}
	var other *RuleSnapshot
	for i := range s.Rules {
		if s.Rules[i].Source == otherRule {
			other = &s.Rules[i]
		}
	}
	if other == nil || other.Head != otherRule || other.Evals != 10 {
		t.Fatalf("overflow profile = %+v, want %s with the 10 evaluations past the bound", other, otherRule)
	}
}

func TestSpans(t *testing.T) {
	r := NewRegistry()
	root := r.StartSpan("tx.exec")
	child := root.Child("rederive")
	child.SetAttr("dirty", 3)
	child.SetAttr("dirty", 4) // overwrite
	child.AddAttr("rules", 2)
	child.AddAttr("rules", 3) // accumulate
	child.End()
	grand := child.Child("late") // children may attach after End; tolerated
	grand.End()
	root.End()
	root.End() // double End is a no-op

	snap, ok := r.LastTrace()
	if !ok {
		t.Fatal("no trace recorded")
	}
	if snap.Name != "tx.exec" || len(snap.Children) != 1 {
		t.Fatalf("trace = %+v", snap)
	}
	c := snap.Children[0]
	attrs := map[string]int64{}
	for _, a := range c.Attrs {
		attrs[a.Key] = a.Val
	}
	if attrs["dirty"] != 4 || attrs["rules"] != 5 {
		t.Fatalf("child attrs = %v", c.Attrs)
	}
	if root.Duration() <= 0 {
		t.Fatal("root duration not recorded")
	}
}

func TestTraceRingBounded(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < traceRingSize+5; i++ {
		r.StartSpan("t").End()
	}
	s := r.Snapshot()
	if len(s.Traces) != traceRingSize {
		t.Fatalf("traces = %d, want %d", len(s.Traces), traceRingSize)
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	// Every accessor on a nil registry returns a usable nil handle.
	r.Counter("a").Add(1)
	r.Counter("a").Inc()
	r.Gauge("b").Set(2)
	r.Histogram("c").Observe(time.Second)
	r.Rule("h", "src").AddEval(time.Second, 1)
	r.Rule("h", "src").AddDeltaEval(time.Second, 1)
	r.Rule("h", "src").AddJoin(1, 2, 3)
	r.Reset()
	sp := r.StartSpan("root")
	if sp != nil {
		t.Fatal("nil registry returned a live span")
	}
	sp.SetAttr("k", 1)
	sp.AddAttr("k", 1)
	sp.Child("c").End()
	sp.End()
	if d := sp.Duration(); d != 0 {
		t.Fatalf("nil span duration = %v", d)
	}
	if s := r.Snapshot(); len(s.Counters) != 0 || len(s.Rules) != 0 || len(s.Traces) != 0 {
		t.Fatalf("nil snapshot = %+v", s)
	}
	if _, ok := r.LastTrace(); ok {
		t.Fatal("nil registry has a trace")
	}
}

func TestNoopAllocationFree(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	rs := r.Rule("h", "")
	var sp *Span
	if n := testing.AllocsPerRun(100, func() {
		c.Add(1)
		rs.AddEval(time.Microsecond, 1)
		rs.AddJoin(1, 1, 1)
		sp.SetAttr("k", 1)
		sp.Child("c").End()
	}); n != 0 {
		t.Fatalf("no-op path allocates %v per run", n)
	}
}

func TestConcurrentRecording(t *testing.T) {
	r := NewRegistry()
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rs := r.Rule("r", "src")
			for i := 0; i < per; i++ {
				r.Counter("c").Inc()
				r.Histogram("h").Observe(time.Duration(i+1) * time.Nanosecond)
				rs.AddEval(time.Nanosecond, 1)
				rs.AddJoin(1, 2, 3)
				sp := r.StartSpan("s")
				sp.Child("k").End()
				sp.End()
			}
		}()
	}
	wg.Wait()
	s := r.Snapshot()
	n := int64(workers * per)
	if s.Counters["c"] != n {
		t.Fatalf("counter = %d, want %d", s.Counters["c"], n)
	}
	if s.Histograms["h"].Count != n || s.Histograms["h"].Min != 1 {
		t.Fatalf("histogram = %+v", s.Histograms["h"])
	}
	if got := s.Rules[0]; got.Evals != n || got.Tuples != n || got.Seeks != n || got.Nexts != 2*n {
		t.Fatalf("rule = %+v", got)
	}
}

func TestResetAndDefault(t *testing.T) {
	r := NewRegistry()
	r.Counter("x").Inc()
	r.StartSpan("t").End()
	r.Reset()
	if s := r.Snapshot(); len(s.Counters) != 0 || len(s.Traces) != 0 {
		t.Fatalf("post-reset snapshot = %+v", s)
	}

	if Default() != nil {
		t.Fatal("default registry should start nil")
	}
	SetDefault(r)
	if Default() != r {
		t.Fatal("SetDefault not visible")
	}
	SetDefault(nil)
	if Default() != nil {
		t.Fatal("SetDefault(nil) did not clear")
	}
}

func TestWriteJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("tx.exec.commit").Add(2)
	r.Histogram("tx.exec.duration").Observe(time.Millisecond)
	r.Rule("path", "path(x, y) <- edge(x, y).").AddEval(time.Microsecond, 3)
	r.StartSpan("tx.exec").End()
	var b strings.Builder
	if err := r.Snapshot().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal([]byte(b.String()), &back); err != nil {
		t.Fatalf("round-trip: %v\n%s", err, b.String())
	}
	if back.Counters["tx.exec.commit"] != 2 || len(back.Rules) != 1 || len(back.Traces) != 1 {
		t.Fatalf("round-tripped snapshot = %+v", back)
	}
}

func TestFormatters(t *testing.T) {
	r := NewRegistry()
	if got := FormatRuleTable(r.Snapshot()); !strings.Contains(got, "no rule evaluations") {
		t.Fatalf("empty table = %q", got)
	}
	r.Rule("path", "path(x, z) <- path(x, y), edge(y, z).").AddEval(42*time.Microsecond, 6)
	r.Rule("path", "path(x, z) <- path(x, y), edge(y, z).").AddJoin(10, 18, 0)
	r.Counter("tx.exec.commit").Inc()
	r.Gauge("treap.nodes_allocated").Set(9)
	r.Histogram("tx.exec.duration").Observe(time.Millisecond)
	sp := r.StartSpan("tx.exec")
	c := sp.Child("rederive")
	c.SetAttr("dirty", 1)
	c.End()
	sp.End()
	s := r.Snapshot()

	table := FormatRuleTable(s)
	for _, want := range []string{"RULE HEAD", "SEEKS", "path", "42.0µs", "TOTAL"} {
		if !strings.Contains(table, want) {
			t.Fatalf("table missing %q:\n%s", want, table)
		}
	}
	counters := FormatCounters(s)
	for _, want := range []string{"tx.exec.commit", "treap.nodes_allocated", "tx.exec.duration", "count=1"} {
		if !strings.Contains(counters, want) {
			t.Fatalf("counters missing %q:\n%s", want, counters)
		}
	}
	tree := FormatSpanTree(s.Traces[0])
	for _, want := range []string{"tx.exec", "  rederive", "dirty=1"} {
		if !strings.Contains(tree, want) {
			t.Fatalf("tree missing %q:\n%s", want, tree)
		}
	}
}
