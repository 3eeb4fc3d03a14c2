package obs

import (
	"sort"
	"sync"
	"time"
)

// Span is one node of a hierarchical trace: a named, timed region of work
// with integer attributes, string labels and child spans. Spans are created with
// Registry.StartSpan (roots) and Span.Child, and closed with End; a root
// span enters the registry's trace ring when it ends. The nil *Span is a
// valid no-op, so call sites never branch on whether tracing is enabled.
type Span struct {
	reg   *Registry
	name  string
	start time.Time
	dur   time.Duration

	mu       sync.Mutex
	attrs    []SpanAttr
	labels   []SpanLabel
	children []*Span
	ended    bool
}

// SpanAttr is one integer attribute of a span.
type SpanAttr struct {
	Key string `json:"key"`
	Val int64  `json:"val"`
}

// SpanLabel is one string attribute of a span: a categorical fact about
// the work, such as which operator maintained a stratum.
type SpanLabel struct {
	Key string `json:"key"`
	Val string `json:"val"`
}

// StartSpan opens a root span. On a nil registry it returns nil (a no-op
// span).
func (r *Registry) StartSpan(name string) *Span {
	if r == nil {
		return nil
	}
	return &Span{reg: r, name: name, start: time.Now()}
}

// Child opens a sub-span of s. On a nil span it returns nil.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{name: name, start: time.Now()}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// SetAttr records (or overwrites) an integer attribute.
func (s *Span) SetAttr(key string, val int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.attrs {
		if s.attrs[i].Key == key {
			s.attrs[i].Val = val
			return
		}
	}
	s.attrs = append(s.attrs, SpanAttr{Key: key, Val: val})
}

// SetLabel records (or overwrites) a string label.
func (s *Span) SetLabel(key, val string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.labels {
		if s.labels[i].Key == key {
			s.labels[i].Val = val
			return
		}
	}
	s.labels = append(s.labels, SpanLabel{Key: key, Val: val})
}

// AddAttr accumulates into an integer attribute (creating it at val).
func (s *Span) AddAttr(key string, val int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.attrs {
		if s.attrs[i].Key == key {
			s.attrs[i].Val += val
			return
		}
	}
	s.attrs = append(s.attrs, SpanAttr{Key: key, Val: val})
}

// End closes the span. Ending a root span publishes it to its registry's
// trace ring; ending twice is a no-op.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.dur = time.Since(s.start)
	s.mu.Unlock()
	if s.reg != nil {
		s.reg.mu.Lock()
		// 1-in-N sampling: of every sampleN finished roots, the first is
		// retained. N ≤ 1 keeps all (the default).
		keep := s.reg.sampleN <= 1 || s.reg.spanSeq%int64(s.reg.sampleN) == 0
		s.reg.spanSeq++
		ring := s.reg.traces
		s.reg.mu.Unlock()
		if keep {
			ring.Put("", s)
		}
	}
}

// Duration returns the span's duration (elapsed-so-far if not yet ended,
// 0 on nil).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.ended {
		return time.Since(s.start)
	}
	return s.dur
}

// SpanSnapshot is the structured value of one span subtree.
type SpanSnapshot struct {
	Name     string         `json:"name"`
	Start    time.Time      `json:"start"`
	Duration time.Duration  `json:"duration_ns"`
	Attrs    []SpanAttr     `json:"attrs,omitempty"`
	Labels   []SpanLabel    `json:"labels,omitempty"`
	Children []SpanSnapshot `json:"children,omitempty"`
}

// Snapshot returns the structured value of the span's subtree. An
// unfinished span reports its elapsed-so-far duration; finished children
// are complete, so a request handler can snapshot its own (still open)
// root span and see the full transaction tree below it. On a nil span it
// returns a zero snapshot.
func (s *Span) Snapshot() SpanSnapshot {
	if s == nil {
		return SpanSnapshot{}
	}
	return s.snapshot()
}

func (s *Span) snapshot() SpanSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := SpanSnapshot{Name: s.name, Start: s.start, Duration: s.dur}
	if !s.ended {
		out.Duration = time.Since(s.start)
	}
	if len(s.attrs) > 0 {
		out.Attrs = append([]SpanAttr(nil), s.attrs...)
	}
	if len(s.labels) > 0 {
		out.Labels = append([]SpanLabel(nil), s.labels...)
	}
	for _, c := range s.children {
		out.Children = append(out.Children, c.snapshot())
	}
	return out
}

// traceRingSize is the capacity of a registry's own trace ring.
const traceRingSize = 32

// TraceRing is a bounded store of finished root spans: the newest cap
// traces in arrival order, the oldest evicted first. A trace may be put
// under a lookup key (a request ID); putting under a key already held
// overwrites that trace in place, keeping its position. Every registry
// owns one (unkeyed, fed by Span.End subject to trace sampling); the HTTP
// server owns another, keyed by request ID, that retains every request.
// Safe for concurrent use.
type TraceRing struct {
	mu    sync.Mutex
	cap   int
	slots []*traceSlot // oldest first
	byKey map[string]*traceSlot
}

type traceSlot struct {
	key  string
	span *Span
}

// NewTraceRing returns a ring retaining the last cap traces.
func NewTraceRing(cap int) *TraceRing {
	return &TraceRing{cap: cap, byKey: map[string]*traceSlot{}}
}

// Put retains s, under key when key is not empty.
func (t *TraceRing) Put(key string, s *Span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if old, ok := t.byKey[key]; ok { // unkeyed traces are never in byKey
		old.span = s
		return
	}
	if len(t.slots) == t.cap {
		delete(t.byKey, t.slots[0].key)
		copy(t.slots, t.slots[1:]) // shift down: the evicted trace is dropped now
		t.slots = t.slots[:t.cap-1]
	}
	slot := &traceSlot{key: key, span: s}
	t.slots = append(t.slots, slot)
	if key != "" {
		t.byKey[key] = slot
	}
}

// Get returns the trace retained under key.
func (t *TraceRing) Get(key string) (*Span, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	slot, ok := t.byKey[key]
	if !ok {
		return nil, false
	}
	return slot.span, true
}

// Keys returns the lookup keys of the retained traces, oldest first.
func (t *TraceRing) Keys() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	keys := make([]string, 0, len(t.slots))
	for _, slot := range t.slots {
		if slot.key != "" {
			keys = append(keys, slot.key)
		}
	}
	return keys
}

// Snapshots returns the retained traces ordered by start time.
func (t *TraceRing) Snapshots() []SpanSnapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.slots) == 0 {
		return nil
	}
	out := make([]SpanSnapshot, 0, len(t.slots))
	for _, slot := range t.slots {
		out = append(out, slot.span.snapshot())
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out
}

// LastTrace returns the most recently finished root span, if any.
func (r *Registry) LastTrace() (SpanSnapshot, bool) {
	if r == nil {
		return SpanSnapshot{}, false
	}
	r.mu.Lock()
	ring := r.traces
	r.mu.Unlock()
	ring.mu.Lock()
	defer ring.mu.Unlock()
	if len(ring.slots) == 0 {
		return SpanSnapshot{}, false
	}
	return ring.slots[len(ring.slots)-1].span.snapshot(), true
}
