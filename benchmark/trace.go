package main

import (
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own
// files around the call. Spans of one replayed op share its Op id;
// Parent is the id of the span that caused this one (-1 for a root).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"` // since the trace began
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out once, at the end.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent, op int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, StartNs: int64(time.Since(t.t0))})
	return id
}

func (t *tracer) end(id int) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	s.EndNs = int64(time.Since(t.t0))
	return time.Duration(s.EndNs - s.StartNs)
}

// timed records one root span around f.
func (t *tracer) timed(name string, op int, f func()) time.Duration {
	id := t.begin(name, -1, op)
	f()
	return t.end(id)
}

// durations returns every finished span of the name, in ms.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.EndNs > 0 {
			out = append(out, float64(s.EndNs-s.StartNs)/1e6)
		}
	}
	return out
}

// traceFile is the shape of trace.json.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Spans    []span `json:"spans"`
}
