package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// WriteJSON writes the snapshot as an indented, expvar-style JSON
// document.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// fmtDur renders a duration compactly for the profile table.
func fmtDur(d time.Duration) string {
	switch {
	case d == 0:
		return "0"
	case d < time.Microsecond:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	case d < time.Millisecond:
		return fmt.Sprintf("%.1fµs", float64(d.Nanoseconds())/1e3)
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d.Nanoseconds())/1e6)
	default:
		return fmt.Sprintf("%.3fs", d.Seconds())
	}
}

// truncate shortens s to at most n runes, marking elision.
func truncate(s string, n int) string {
	s = strings.Join(strings.Fields(s), " ")
	if len(s) <= n {
		return s
	}
	if n <= 1 {
		return "…"
	}
	return s[:n-1] + "…"
}

// FormatRuleTable renders the per-rule profile of a snapshot as the
// aligned text table printed by `lb --stats`: one row per rule, most
// expensive first, with evaluation counts, time, tuples produced, and
// LFTJ seek/next counts.
func FormatRuleTable(s Snapshot) string {
	var b strings.Builder
	if len(s.Rules) == 0 {
		b.WriteString("(no rule evaluations recorded)\n")
		return b.String()
	}
	const srcWidth = 48
	fmt.Fprintf(&b, "%-16s %7s %6s %9s %9s %9s %9s  %s\n",
		"RULE HEAD", "TIME", "EVALS", "TUPLES", "SEEKS", "NEXTS", "SENS", "SOURCE")
	var tot RuleSnapshot
	for _, r := range s.Rules {
		evals := r.Evals + r.DeltaEvals
		fmt.Fprintf(&b, "%-16s %7s %6d %9d %9d %9d %9d  %s\n",
			truncate(r.Head, 16), fmtDur(r.EvalTime), evals, r.Tuples,
			r.Seeks, r.Nexts, r.SensRecords, truncate(r.Source, srcWidth))
		tot.EvalTime += r.EvalTime
		tot.Evals += evals
		tot.Tuples += r.Tuples
		tot.Seeks += r.Seeks
		tot.Nexts += r.Nexts
		tot.SensRecords += r.SensRecords
	}
	fmt.Fprintf(&b, "%-16s %7s %6d %9d %9d %9d %9d\n",
		"TOTAL", fmtDur(tot.EvalTime), tot.Evals, tot.Tuples, tot.Seeks, tot.Nexts, tot.SensRecords)
	return b.String()
}

// FormatCounters renders the non-rule metrics of a snapshot (counters,
// gauges, histogram summaries) as sorted "name value" lines.
func FormatCounters(s Snapshot) string {
	var b strings.Builder
	names := make([]string, 0, len(s.Counters))
	for n := range s.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "%-32s %d\n", n, s.Counters[n])
	}
	names = names[:0]
	for n := range s.Gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "%-32s %d\n", n, s.Gauges[n])
	}
	names = names[:0]
	for n := range s.Histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		h := s.Histograms[n]
		fmt.Fprintf(&b, "%-32s count=%d mean=%s min=%s max=%s p50=%s p95=%s p99=%s\n",
			n, h.Count, fmtDur(h.Mean()), fmtDur(h.Min), fmtDur(h.Max),
			fmtDur(h.Quantile(0.5)), fmtDur(h.Quantile(0.95)), fmtDur(h.Quantile(0.99)))
	}
	return b.String()
}

// FormatSpanTree renders one trace as an indented tree, one line per
// span: duration, name, labels and attributes.
func FormatSpanTree(s SpanSnapshot) string {
	var b strings.Builder
	writeSpan(&b, s, 0)
	return b.String()
}

func writeSpan(b *strings.Builder, s SpanSnapshot, depth int) {
	width := 28 - 2*depth
	if width < 8 {
		width = 8
	}
	fmt.Fprintf(b, "%s%-*s %7s", strings.Repeat("  ", depth), width, truncate(s.Name, width), fmtDur(s.Duration))
	for _, l := range s.Labels {
		fmt.Fprintf(b, "  %s=%s", l.Key, l.Val)
	}
	for _, a := range s.Attrs {
		fmt.Fprintf(b, "  %s=%d", a.Key, a.Val)
	}
	b.WriteByte('\n')
	for _, c := range s.Children {
		writeSpan(b, c, depth+1)
	}
}
