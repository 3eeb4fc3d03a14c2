package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

func TestPercentileAndQuartiles(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	if got := percentile(append([]float64(nil), xs...), 0.5); got != 5 {
		t.Errorf("p50 = %v, want 5 (nearest rank)", got)
	}
	if got := percentile(append([]float64(nil), xs...), 0.95); got != 10 {
		t.Errorf("p95 = %v, want 10", got)
	}
	if got := median(append([]float64(nil), xs...)); got != 5.5 {
		t.Errorf("median = %v, want 5.5", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles(append([]float64(nil), xs...))
	if math.Abs(q1-2.75) > 1e-9 || math.Abs(q3-8.25) > 1e-9 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{name: "cycle_p50_ms", unit: "ms", better: "lower", bound: 0.10}
	higher := metricDef{name: "ops_per_s", unit: "1/s", better: "higher", bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102}
	for _, tc := range []struct {
		d    metricDef
		a, b []float64
		want string
	}{
		{lower, steady, []float64{100, 100, 101, 99, 100}, "unchanged"},
		{lower, steady, []float64{120, 121, 119, 120, 122}, "worse"},
		{lower, steady, []float64{80, 81, 79, 80, 82}, "better"},
		{higher, steady, []float64{80, 81, 79, 80, 82}, "worse"},
		{higher, steady, []float64{120, 121, 119, 120, 122}, "better"},
		{lower, []float64{100, 130, 70, 100, 115}, []float64{125, 126, 124, 125, 127}, "unresolved"},
	} {
		if got, _, _ := verdict(tc.d, tc.a, tc.b); got != tc.want {
			t.Errorf("verdict(%s, %v → %v) = %s, want %s", tc.d.name, tc.a, tc.b, got, tc.want)
		}
	}
	exact := metricDef{name: "journal_bytes_per_commit", unit: "B", better: "lower"}
	if got, _, _ := verdict(exact, []float64{150, 150}, []float64{151, 151}); got != "worse" {
		t.Errorf("an exact count that grew is %s, want worse", got)
	}
}

// BENCHMARK.json and the metric tables in metrics.go say the same thing.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d specs", len(doc.Workloads), len(specs))
	}
	for i, w := range doc.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, gen.go has %q / %q", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, the limit is 200", w.Name, len(w.Why))
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in metrics.go", kind, len(got), len(want))
		}
		for i, m := range got {
			d := want[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, metrics.go has %+v", kind, i, m, d)
			}
			if bounded && (m.Bound == nil || *m.Bound != d.bound || d.bound <= 0 || d.bound > 0.25) {
				t.Errorf("%s: bound of %s is %v in BENCHMARK.json, %v in metrics.go (must be in (0, 0.25])", kind, d.name, m.Bound, d.bound)
			}
			if !bounded && m.Bound != nil {
				t.Errorf("%s: %s has a bound; per-layer metrics have none", kind, d.name)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd, true)
	check("per_layer", doc.PerLayer, perLayer, false)
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the -seconds default is %d", doc.RunSeconds, defaultSeconds)
	}
}
