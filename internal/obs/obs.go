package obs

import (
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric. The nil *Counter is a
// valid no-op.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value metric. The nil *Gauge is a valid no-op.
type Gauge struct {
	v atomic.Int64
}

// Set records the current value.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Value returns the last recorded value (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is the number of power-of-two duration buckets: bucket i
// counts observations with 2^(i-1) ≤ nanoseconds < 2^i (bucket 0 is
// sub-nanosecond, the last bucket is open-ended). 2^40 ns ≈ 18 minutes,
// far beyond any single evaluation this engine runs.
const histBuckets = 41

// Histogram records a distribution of durations in power-of-two
// nanosecond buckets, with exact count/sum/min/max. The nil *Histogram is
// a valid no-op.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64 // nanoseconds
	min     atomic.Int64 // nanoseconds; valid when count > 0
	max     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	ns := int64(d)
	if ns < 1 {
		ns = 1 // clamp below timer resolution; 0 marks "min unset"
	}
	h.count.Add(1)
	h.sum.Add(ns)
	for {
		old := h.min.Load()
		if old != 0 && old <= ns {
			break
		}
		if h.min.CompareAndSwap(old, ns) {
			break
		}
	}
	for {
		old := h.max.Load()
		if ns <= old {
			break
		}
		if h.max.CompareAndSwap(old, ns) {
			break
		}
	}
	b := bits.Len64(uint64(ns))
	if b >= histBuckets {
		b = histBuckets - 1
	}
	h.buckets[b].Add(1)
}

// HistogramSnapshot is the structured value of one histogram.
type HistogramSnapshot struct {
	Count int64         `json:"count"`
	Sum   time.Duration `json:"sum_ns"`
	Min   time.Duration `json:"min_ns"`
	Max   time.Duration `json:"max_ns"`
	// Buckets maps bucket upper bounds (exclusive, in nanoseconds, powers
	// of two) to counts; empty buckets are omitted.
	Buckets map[int64]int64 `json:"buckets,omitempty"`
}

// Mean returns the average observed duration.
func (s HistogramSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / time.Duration(s.Count)
}

// Quantile estimates the q-th quantile (0 ≤ q ≤ 1) of the observed
// durations from the power-of-two buckets, interpolating linearly inside
// the bucket holding rank ⌈q·count⌉ and clamping to the exact min/max.
// The estimate always falls inside the bucket containing the true
// quantile, so its error is bounded by one power-of-two bucket boundary
// (a factor of 2 at worst); see docs/observability.md.
func (s HistogramSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	if q <= 0 {
		return s.Min
	}
	if q >= 1 {
		return s.Max
	}
	rank := int64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	bounds := make([]int64, 0, len(s.Buckets))
	for b := range s.Buckets {
		bounds = append(bounds, b)
	}
	sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })
	var cum int64
	for _, hi := range bounds {
		n := s.Buckets[hi]
		if cum+n < rank {
			cum += n
			continue
		}
		lo := hi / 2 // bucket i covers [2^(i-1), 2^i); bucket key 1 covers [0, 1)
		frac := float64(rank-cum) / float64(n)
		est := time.Duration(float64(lo) + frac*float64(hi-lo))
		if est < s.Min {
			est = s.Min
		}
		if est > s.Max {
			est = s.Max
		}
		return est
	}
	return s.Max
}

func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count: h.count.Load(),
		Sum:   time.Duration(h.sum.Load()),
		Min:   time.Duration(h.min.Load()),
		Max:   time.Duration(h.max.Load()),
	}
	for i := 0; i < histBuckets; i++ {
		if n := h.buckets[i].Load(); n > 0 {
			if s.Buckets == nil {
				s.Buckets = map[int64]int64{}
			}
			s.Buckets[int64(1)<<i] = n
		}
	}
	return s
}

// Registry owns a namespace of metrics, rule profiles and traces. The nil
// *Registry is a valid no-op registry: every accessor returns a nil
// handle, itself a no-op.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	rules    map[string]*RuleStats // by rule source text
	traces   *TraceRing            // replaced by Reset
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
		rules:    map[string]*RuleStats{},
		traces:   NewTraceRing(traceRingSize),
	}
}

// Counter returns (creating if needed) the named counter, or nil on a nil
// registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (creating if needed) the named gauge, or nil on a nil
// registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (creating if needed) the named duration histogram, or
// nil on a nil registry.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Reset drops all recorded metrics, rule profiles and traces, keeping the
// registry usable. Handles returned before the reset keep working but
// refer to dropped metrics; callers that cache handles should re-resolve
// them after a reset.
func (r *Registry) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counters = map[string]*Counter{}
	r.gauges = map[string]*Gauge{}
	r.hists = map[string]*Histogram{}
	r.rules = map[string]*RuleStats{}
	r.traces = NewTraceRing(traceRingSize)
}

// defaultReg is the process-wide fallback registry used by layers that
// were not handed an explicit registry (nil = observability off, the
// default). It lets a harness flip on engine-wide profiling without
// threading a registry through every constructor.
var defaultReg atomic.Pointer[Registry]

// SetDefault installs reg as the process-wide default registry (nil
// disables it).
func SetDefault(reg *Registry) { defaultReg.Store(reg) }

// Default returns the process-wide default registry, or nil when none is
// installed.
func Default() *Registry { return defaultReg.Load() }

// Snapshot is a point-in-time structured copy of everything a registry
// has recorded.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
	Rules      []RuleSnapshot               `json:"rules,omitempty"`
	Traces     []SpanSnapshot               `json:"traces,omitempty"`
}

// Snapshot captures the current state of all metrics. On a nil registry
// it returns an empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.counters) > 0 {
		s.Counters = make(map[string]int64, len(r.counters))
		for name, c := range r.counters {
			s.Counters[name] = c.Value()
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]int64, len(r.gauges))
		for name, g := range r.gauges {
			s.Gauges[name] = g.Value()
		}
	}
	if len(r.hists) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(r.hists))
		for name, h := range r.hists {
			s.Histograms[name] = h.snapshot()
		}
	}
	s.Rules = r.ruleSnapshotsLocked()
	s.Traces = r.traces.Snapshots()
	return s
}
