package main

import (
	"math"
	"sort"
	"time"
)

// metricDef names one metric. BENCHMARK.json lists endToEnd (with
// bounds) and perLayer; a test keeps the two in step.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // share of the parent's median it may worsen by; 0 for metrics without one
}

// endToEnd are the driver-checked metrics. The driver wants every one of
// them from every workload, so they are the ones all four workloads
// define: a cycle is the workload's repeating unit of work (one write on
// tx-write, 9 reads + 1 write on tx-mixed, the four queries on analytic,
// the five what-if requests on workbook).
//
// Every bound is the driver's maximum: run-to-run spread over ten seeds
// in this sandbox is 3–10 % of the median for each of them (README.md),
// and a bound should be three times the spread.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"cycle_p50_ms", "ms", "lower", 0.25},
	{"recover_s", "s", "lower", 0.25},
	{"rss_peak_mb", "MB", "lower", 0.25},
}

// scoped are the issue's per-request-kind end-to-end metrics. Each is
// defined only on the workloads that send that kind of request, so they
// go in the report (and -compare) but cannot be driver-checked. Their
// bounds are what -compare judges them by: two sets of runs of one commit
// taken minutes apart differ by up to 16 % here, so anything tighter than
// the driver's 0.25 would call noise a change.
var scoped = []metricDef{
	// cycle_p95_ms does not repeat: a neighbour's bursts take ~12 % of the
	// sandbox's time, so even the best block's p95 lands in them on some
	// runs and not on others (spread 7–27 % over ten seeds).
	{"cycle_p95_ms", "ms", "lower", 0.25},
	{"exec_p50_ms", "ms", "lower", 0.25},
	{"exec_p95_ms", "ms", "lower", 0.25},
	{"query_p50_ms", "ms", "lower", 0.25},
	{"query_p95_ms", "ms", "lower", 0.25},
	{"prefix_p50_ms", "ms", "lower", 0.25},
	{"scan_rows_per_s", "1/s", "higher", 0.25},
	{"join_p50_ms", "ms", "lower", 0.25},
	{"agg_p50_ms", "ms", "lower", 0.25},
	{"range_p50_ms", "ms", "lower", 0.25},
	{"branch_p50_ms", "ms", "lower", 0.25},
	{"addblock_p50_ms", "ms", "lower", 0.25},
	{"journal_bytes_per_commit", "B", "lower", 0}, // exact on one-client workloads
	{"failed_frac", "ratio", "lower", 0.001},      // absolute, not relative
}

// perLayer are the traced run's metrics, one ladder rung per layer.
var perLayer = []metricDef{
	{"parser.parse_exec_us", "us", "lower", 0},
	{"parser.parse_query_us", "us", "lower", 0},
	{"compiler.compile_tx_us", "us", "lower", 0},
	{"compiler.compile_program_us", "us", "lower", 0},
	{"compiler.rules", "count", "lower", 0},
	{"optimizer.choose_order_us", "us", "lower", 0},
	{"relation.insert_ns", "ns", "lower", 0},
	{"relation.seek_ns", "ns", "lower", 0},
	{"relation.scan_ns_per_tuple", "ns", "lower", 0},
	{"relation.permute_ms", "ms", "lower", 0},
	{"relation.bulk_load_ms", "ms", "lower", 0},
	{"treap.nodes_per_insert", "count", "lower", 0},
	{"lftj.triangle_ms", "ms", "lower", 0},
	{"lftj.triangle_results", "count", "higher", 0},
	{"lftj.parallel_triangle_ms", "ms", "lower", 0},
	{"engine.eval_all_ms", "ms", "lower", 0},
	{"engine.constraints_ms", "ms", "lower", 0},
	{"engine.stream_rows_per_s", "1/s", "higher", 0},
	{"engine.agg_ms", "ms", "lower", 0},
	{"ivm.init_ms", "ms", "lower", 0},
	{"ivm.apply_d1_us", "us", "lower", 0},
	{"ivm.apply_d100_us", "us", "lower", 0},
	{"ivm.headroom_x", "x", "lower", 0},
	{"core.exec_ms", "ms", "lower", 0},
	{"core.exec_recorded_ms", "ms", "lower", 0},
	{"core.exec_size_slope", "x", "lower", 0},
	{"core.exec_maintain_share", "ratio", "lower", 0},
	{"core.rederive_evaluated_per_exec", "count", "lower", 0},
	{"core.rederive_reused_per_exec", "count", "higher", 0},
	{"core.repair_ms", "ms", "lower", 0},
	{"core.commit_us", "us", "lower", 0},
	{"core.branch_us", "us", "lower", 0},
	{"core.query_point_us", "us", "lower", 0},
	{"core.query_scan_rows_per_s", "1/s", "higher", 0},
	{"core.addblock_ms", "ms", "lower", 0},
	{"durable.fsync_us", "us", "lower", 0},
	{"durable.log_commit_us", "us", "lower", 0},
	{"durable.journal_bytes_per_commit", "B", "lower", 0},
	{"durable.checkpoint_ms", "ms", "lower", 0},
	{"durable.snapshot_bytes_per_fact", "B", "lower", 0},
	{"durable.recover_snapshot_ms", "ms", "lower", 0},
	{"durable.replay_ms_per_record", "ms", "lower", 0},
	{"server.exec_overhead_us", "us", "lower", 0},
	{"server.query_overhead_us", "us", "lower", 0},
	{"server.encode_rows_per_s", "1/s", "higher", 0},
	{"server.stream_rows_per_s", "1/s", "higher", 0},
	{"client.rtt_us", "us", "lower", 0},
	{"server.retries_per_write", "count", "lower", 0},
	{"server.repairs_per_write", "count", "lower", 0},
	{"server.queue_depth_max", "count", "lower", 0},
}

func defByName(name string) (metricDef, bool) {
	for _, set := range [][]metricDef{endToEnd, scoped, perLayer} {
		for _, d := range set {
			if d.name == name {
				return d, true
			}
		}
	}
	return metricDef{}, false
}

// value is one reported number.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Raw is the value before scaling to the reference speed (calib.go);
	// absent for counts, sizes and per-layer metrics, which are not scaled.
	Raw     float64 `json:"raw,omitempty"`
	Samples int     `json:"samples,omitempty"` // how many measurements the value summarizes
}

// percentile is the exact nearest-rank percentile of the samples
// (sorted in place); q in (0, 1].
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// quartiles are the first and third quartile as Python's
// statistics.quantiles(xs, n=4) gives them (exclusive method), which is
// what the driver computes spreads with.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		if n == 1 {
			return xs[0], xs[0]
		}
		return 0, 0
	}
	sort.Float64s(xs)
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based
		j := int(pos)
		j = min(max(j, 1), n-1)
		frac := pos - float64(j)
		return xs[j-1] + frac*(xs[j]-xs[j-1])
	}
	return at(1), at(3)
}

// Every timed-phase statistic is taken per block of consecutive samples,
// each block scaled by the yardstick's slowdown over the block's own time
// span (calib.go), and the median block is reported: a neighbour's burst
// inside a run then moves one block, not the result.
const blocks = 5

// extent is the interval the timings cover.
func extent(ts []timing) (from, to time.Time) {
	from, to = ts[0].start, ts[0].end
	for _, t := range ts[1:] {
		if t.start.Before(from) {
			from = t.start
		}
		if t.end.After(to) {
			to = t.end
		}
	}
	return from, to
}

// cut returns block b of n items as index bounds.
func cut(n, b int) (lo, hi int) {
	nb := blocks
	if n < 2*blocks {
		nb = 1
	}
	if b >= nb {
		return 0, 0
	}
	return b * n / nb, (b + 1) * n / nb
}

// blocks applies stat to each block's latencies (ms) and returns the
// median block, at the reference speed and raw. ts is in completion order.
func (c *calibrator) blocks(ts []timing, stat func([]float64) float64) (scaled, raw float64) {
	var ss, rs []float64
	for b := 0; b < blocks; b++ {
		lo, hi := cut(len(ts), b)
		if lo == hi {
			break
		}
		xs := make([]float64, 0, hi-lo)
		for _, t := range ts[lo:hi] {
			xs = append(xs, t.ms())
		}
		r := stat(xs)
		rs = append(rs, r)
		ss = append(ss, r/c.slowdown(extent(ts[lo:hi])))
	}
	return median(ss), median(rs)
}

// rate is the median block's request rate per second: cycles are in
// completion order, ops the requests each made.
func (c *calibrator) rate(cycles []timing, ops []int) (scaled, raw float64) {
	var ss, rs []float64
	for b := 0; b < blocks; b++ {
		lo, hi := cut(len(cycles), b)
		if lo == hi {
			break
		}
		count := 0
		for _, k := range ops[lo:hi] {
			count += k
		}
		from, to := extent(cycles[lo:hi])
		r := float64(count) / to.Sub(from).Seconds()
		rs = append(rs, r)
		ss = append(ss, r*c.slowdown(from, to))
	}
	return median(ss), median(rs)
}

// each scales every timing on its own and returns the medians, in ms.
func (c *calibrator) each(ts []timing) (scaled, raw float64) {
	var ss, rs []float64
	for _, t := range ts {
		rs = append(rs, t.ms())
		ss = append(ss, t.ms()/c.slowdown(t.start, t.end))
	}
	return median(ss), median(rs)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
