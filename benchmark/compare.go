package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// -compare and -summary read reports written by suite runs. A side is
// one report file or a directory of them; several reports of one commit
// give each metric a median and quartiles, so a verdict can tell a
// change from run-to-run spread.

func loadReports(path string) ([]*report, error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	files := []string{path}
	if info.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "report*.json")); err != nil {
			return nil, err
		}
		sort.Strings(files)
	}
	var out []*report
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r report
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		out = append(out, &r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no report*.json files", path)
	}
	return out, nil
}

// series is every reported value of one (workload, metric).
type series map[[2]string][]float64

func collect(reps []*report) series {
	s := series{}
	for _, r := range reps {
		for _, w := range r.Workloads {
			for _, m := range []map[string]value{w.EndToEnd, w.PerLayer} {
				for name, v := range m {
					k := [2]string{w.Workload, name}
					s[k] = append(s[k], v.Value)
				}
			}
		}
	}
	return s
}

// summaryRow is one (workload, metric) of a -summary.
type summaryRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	N        int     `json:"n"`
	Median   float64 `json:"median"`
	Q1       float64 `json:"q1"`
	Q3       float64 `json:"q3"`
	RelIQR   float64 `json:"rel_iqr"` // (q3 − q1) ÷ median
}

// rows lists the series' keys in metric-table order per workload.
func (s series) rows() [][2]string {
	var out [][2]string
	for _, sp := range specs {
		for _, set := range [][]metricDef{endToEnd, scoped, perLayer} {
			for _, d := range set {
				if k := [2]string{sp.name, d.name}; len(s[k]) > 0 {
					out = append(out, k)
				}
			}
		}
	}
	return out
}

func summarize(xs []float64) (med, q1, q3, rel float64) {
	med = median(xs)
	q1, q3 = quartiles(xs)
	if med != 0 {
		rel = (q3 - q1) / math.Abs(med)
	}
	return
}

func summarizeReports(w io.Writer, path string) error {
	reps, err := loadReports(path)
	if err != nil {
		return err
	}
	s := collect(reps)
	var out []summaryRow
	for _, k := range s.rows() {
		d, _ := defByName(k[1])
		med, q1, q3, rel := summarize(s[k])
		out = append(out, summaryRow{Workload: k[0], Metric: k[1], Unit: d.unit, N: len(s[k]), Median: med, Q1: q1, Q3: q3, RelIQR: rel})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(out)
}

// verdict judges B against A for one metric. worse is how far B's median
// moved in the bad direction, as a share of A's median (an absolute
// difference for failed_frac); spread is the wider of the two sides'
// interquartile ranges on the same scale.
func verdict(d metricDef, a, b []float64) (v string, worse, spread float64) {
	ma, qa1, qa3, _ := summarize(a)
	mb, qb1, qb3, _ := summarize(b)
	scale := math.Abs(ma)
	if d.name == "failed_frac" || scale == 0 {
		scale = 1
	}
	worse = (mb - ma) / scale
	if d.better == "higher" {
		worse = -worse
	}
	spread = math.Max(qa3-qa1, qb3-qb1) / scale
	switch {
	case d.bound > 0 && spread > d.bound:
		return "unresolved", worse, spread
	case worse > math.Max(d.bound, spread):
		return "worse", worse, spread
	case -worse > math.Max(d.bound, spread):
		return "better", worse, spread
	}
	return "unchanged", worse, spread
}

func compareReports(w io.Writer, pathA, pathB string) error {
	ra, err := loadReports(pathA)
	if err != nil {
		return err
	}
	rb, err := loadReports(pathB)
	if err != nil {
		return err
	}
	sa, sb := collect(ra), collect(rb)
	fmt.Fprintf(w, "A: %s (%d report(s), commit %s)\nB: %s (%d report(s), commit %s)\n",
		pathA, len(ra), ra[0].GitCommit, pathB, len(rb), rb[0].GitCommit)
	fmt.Fprintf(w, "%-10s %-34s %-6s %14s %14s %8s %8s %6s  %s\n",
		"workload", "metric", "unit", "A median", "B median", "worse%", "spread%", "bound%", "verdict")
	for _, k := range sa.rows() {
		if len(sb[k]) == 0 {
			continue
		}
		d, _ := defByName(k[1])
		v, worse, spread := verdict(d, sa[k], sb[k])
		fmt.Fprintf(w, "%-10s %-34s %-6s %14.4f %14.4f %+8.1f %8.1f %6.1f  %s\n",
			k[0], k[1], d.unit, median(sa[k]), median(sb[k]), 100*worse, 100*spread, 100*d.bound, v)
	}
	return nil
}
