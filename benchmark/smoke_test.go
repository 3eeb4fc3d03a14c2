package main

import (
	"io"
	"testing"
)

// workloadScoped says which scoped metrics each workload must report.
var workloadScoped = map[string][]string{
	"tx-write": {"cycle_p95_ms", "exec_p50_ms", "exec_p95_ms", "journal_bytes_per_commit", "failed_frac"},
	"tx-mixed": {"exec_p50_ms", "exec_p95_ms", "query_p50_ms", "query_p95_ms", "prefix_p50_ms", "journal_bytes_per_commit", "failed_frac"},
	"analytic": {"scan_rows_per_s", "join_p50_ms", "agg_p50_ms", "range_p50_ms", "failed_frac"},
	"workbook": {"exec_p50_ms", "query_p50_ms", "branch_p50_ms", "addblock_p50_ms", "journal_bytes_per_commit", "failed_frac"},
}

// The -quick suite runs every code path of the full one — set-up, timed
// cycles, journal tail, SIGKILL restarts, both oracle passes and the
// traced ladder — on data ÷ 20.
func TestQuickSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("starts lb-serve subprocesses")
	}
	logw = io.Discard
	p, err := locate()
	if err != nil {
		t.Fatal(err)
	}
	if err := buildServer(p); err != nil {
		t.Fatal(err)
	}
	rep, err := runSuite(p, runConfig{seed: 1, seconds: defaultSeconds, quick: true}, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Workloads) != len(specs) {
		t.Fatalf("%d workloads in the report, want %d", len(rep.Workloads), len(specs))
	}
	for _, w := range rep.Workloads {
		if !w.Correct || w.Failed != 0 {
			t.Errorf("%s: correct=%v failed=%d problems=%v", w.Workload, w.Correct, w.Failed, w.Problems)
		}
		if len(w.OpsSHA256) != 64 {
			t.Errorf("%s: ops_sha256 = %q", w.Workload, w.OpsSHA256)
		}
		need := func(m map[string]value, name string) {
			d, _ := defByName(name)
			v, ok := m[name]
			if !ok {
				t.Errorf("%s: metric %s is missing", w.Workload, name)
			} else if v.Unit == "" || v.Unit != d.unit {
				t.Errorf("%s: metric %s has unit %q, want %q", w.Workload, name, v.Unit, d.unit)
			}
		}
		for _, d := range endToEnd {
			need(w.EndToEnd, d.name)
			if w.EndToEnd[d.name].Value <= 0 {
				t.Errorf("%s: %s = %v; driver-checked metrics are never 0", w.Workload, d.name, w.EndToEnd[d.name].Value)
			}
		}
		for _, name := range workloadScoped[w.Workload] {
			need(w.EndToEnd, name)
		}
		if w.EndToEnd["failed_frac"].Value != 0 {
			t.Errorf("%s: failed_frac = %v", w.Workload, w.EndToEnd["failed_frac"].Value)
		}
		for _, d := range perLayer {
			need(w.PerLayer, d.name)
		}
	}
}

// A write the server acknowledged but the model never saw (or the
// reverse) must fail the oracle.
func TestOracleCatchesAMismatch(t *testing.T) {
	if testing.Short() {
		t.Skip("starts an lb-serve subprocess")
	}
	logw = io.Discard
	p, err := locate()
	if err != nil {
		t.Fatal(err)
	}
	if err := buildServer(p); err != nil {
		t.Fatal(err)
	}
	sp, _ := specByName("tx-write")
	h, err := newHarness(p, sp, runConfig{seed: 1, seconds: 1, quick: true})
	if err != nil {
		t.Fatal(err)
	}
	defer h.cleanup()
	if _, err := h.setup(0); err != nil {
		t.Fatal(err)
	}
	h.oracle("on the loaded data")
	if !h.res.Correct {
		t.Fatalf("oracle failed on untouched data: %v", h.res.Problems)
	}
	h.model.sales[salesKey{0, 0, 0}]++
	h.oracle("with a model one unit off")
	if h.res.Correct {
		t.Fatal("oracle accepted a model that disagrees with the server")
	}
}
