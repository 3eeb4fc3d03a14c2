package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"logicblox/internal/core"
	"logicblox/internal/obs"
)

// syncBuffer is a goroutine-safe log sink for slog under -race.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// logLines decodes every JSON line the logger emitted.
func (s *syncBuffer) logLines(t *testing.T) []map[string]any {
	t.Helper()
	var out []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(s.String()), "\n") {
		if line == "" {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("log line %q: %v", line, err)
		}
		out = append(out, m)
	}
	return out
}

func newLogger(buf *syncBuffer) *slog.Logger {
	return slog.New(slog.NewJSONHandler(buf, nil))
}

// spanNames flattens a span tree into its node names.
func spanNames(s obs.SpanSnapshot) []string {
	names := []string{s.Name}
	for _, c := range s.Children {
		names = append(names, spanNames(c)...)
	}
	return names
}

func hasName(names []string, want string) bool {
	for _, n := range names {
		if n == want {
			return true
		}
	}
	return false
}

// TestRequestTraceExplainability is the end-to-end post-hoc story for a
// single slow request: the client sends X-Request-ID, the response
// echoes it, GET /debug/trace/{id} returns the request's span tree with
// the engine's rule spans parented under it, and the slow-query log line
// carries the same ID.
func TestRequestTraceExplainability(t *testing.T) {
	buf := &syncBuffer{}
	s := New(core.NewDatabase(), Config{AccessLog: newLogger(buf), SlowQuery: time.Nanosecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	mustOK(t, ts, "POST", "/addblock", Request{Name: "schema", Src: `
		profit[sku] = z <- sellingPrice[sku] = x, buyingPrice[sku] = y, z = x - y.`}, nil)

	// The exec carries a caller-chosen request ID; its rederive evaluates
	// the installed profit rule inside the engine.
	const id = "req-e2e-0001"
	body := bytes.NewReader([]byte(`{"src": "+sellingPrice[\"a\"] = 10. +buyingPrice[\"a\"] = 6."}`))
	req, err := http.NewRequest("POST", ts.URL+"/exec", body)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", id)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("exec status = %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-ID"); got != id {
		t.Fatalf("echoed X-Request-ID = %q, want %q", got, id)
	}

	// The trace ring answers for that ID with the full span tree,
	// including the engine's rule spans under the per-request root.
	var tr TraceResponse
	mustOK(t, ts, "GET", "/debug/trace/"+id, nil, &tr)
	if !tr.OK || tr.RequestID != id || tr.Endpoint != "exec" || tr.Status != 200 || tr.Trace == nil {
		t.Fatalf("trace response = %+v", tr)
	}
	names := spanNames(*tr.Trace)
	for _, want := range []string{"http.exec", "tx.exec", "rederive", "rule:profit"} {
		if !hasName(names, want) {
			t.Fatalf("trace span names %v missing %q", names, want)
		}
	}

	// The slow-query log line for the request carries the same ID and the
	// span tree.
	var slow map[string]any
	for _, line := range buf.logLines(t) {
		if line["msg"] == "slow_query" && line["request_id"] == id {
			slow = line
			break
		}
	}
	if slow == nil {
		t.Fatalf("no slow_query log line for %s in:\n%s", id, buf.String())
	}
	if slow["endpoint"] != "exec" || slow["trace"] == nil {
		t.Fatalf("slow_query line = %v", slow)
	}

	// The access log recorded the request with branch and status.
	var access map[string]any
	for _, line := range buf.logLines(t) {
		if line["msg"] == "request" && line["request_id"] == id {
			access = line
			break
		}
	}
	if access == nil {
		t.Fatalf("no access log line for %s", id)
	}
	if access["method"] != "POST" || access["path"] != "/exec" || access["status"] != float64(200) || access["branch"] != "main" {
		t.Fatalf("access line = %v", access)
	}
}

// TestRequestIDGenerated: without a client-supplied ID the server mints
// one, echoes it, and serves its trace.
func TestRequestIDGenerated(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := ts.Client().Post(ts.URL+"/query", "application/json",
		bytes.NewReader([]byte(`{"src": "_(x) <- x = 1."}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	id := resp.Header.Get("X-Request-ID")
	if len(id) != 16 {
		t.Fatalf("generated X-Request-ID = %q, want 16 hex chars", id)
	}
	var tr TraceResponse
	mustOK(t, ts, "GET", "/debug/trace/"+id, nil, &tr)
	if !tr.OK || tr.Trace == nil {
		t.Fatalf("trace for generated id = %+v", tr)
	}
}

// TestTraceRingBounded: the ring retains at most TraceRing traces,
// evicting oldest-first, and lists the retained IDs.
func TestTraceRingBounded(t *testing.T) {
	_, ts := newTestServer(t, Config{TraceRing: 4})
	for i := 0; i < 6; i++ {
		req, _ := http.NewRequest("POST", ts.URL+"/query",
			bytes.NewReader([]byte(`{"src": "_(x) <- x = 1."}`)))
		req.Header.Set("X-Request-ID", fmt.Sprintf("ring-%d", i))
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	var list TraceResponse
	mustOK(t, ts, "GET", "/debug/trace", nil, &list)
	if len(list.IDs) != 4 || list.IDs[0] != "ring-2" || list.IDs[3] != "ring-5" {
		t.Fatalf("retained ids = %v", list.IDs)
	}
	var e ErrorResponse
	if status := do(t, ts, "GET", "/debug/trace/ring-0", nil, &e); status != 404 || e.Code != "no_such_trace" {
		t.Fatalf("evicted trace: status %d code %q", status, e.Code)
	}
}

// TestInlineTrace: ?trace=1 embeds the request's span tree in the
// response body.
func TestInlineTrace(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var q QueryResponse
	mustOK(t, ts, "POST", "/query?trace=1", Request{Src: `_(x) <- x = 1.`}, &q)
	if q.Trace == nil || q.Trace.Name != "http.query" || !hasName(spanNames(*q.Trace), "tx.query") {
		t.Fatalf("inline trace = %+v", q.Trace)
	}
	// Without the flag, no trace rides along.
	q = QueryResponse{}
	mustOK(t, ts, "POST", "/query", Request{Src: `_(x) <- x = 1.`}, &q)
	if q.Trace != nil {
		t.Fatalf("unexpected inline trace: %+v", q.Trace)
	}
}

// TestErrorEnvelopeCarriesRequestID: failures include the request ID in
// the standard wire error body.
func TestErrorEnvelopeCarriesRequestID(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req, _ := http.NewRequest("POST", ts.URL+"/exec",
		bytes.NewReader([]byte(`{"src": "+p(1", "branch": "main"}`)))
	req.Header.Set("X-Request-ID", "err-0001")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var e ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 400 || e.Code != "parse" || e.RequestID != "err-0001" {
		t.Fatalf("error envelope = %+v (status %d)", e, resp.StatusCode)
	}
}

// TestPanicEnvelope: the panic-recovery middleware emits the standard
// wire error JSON — code "internal", the message, and the request ID —
// and increments the panic counter.
func TestPanicEnvelope(t *testing.T) {
	s := New(core.NewDatabase(), Config{})
	h := s.endpoint("boom", http.MethodPost, false, func(http.ResponseWriter, *http.Request) {
		panic("kaboom")
	})
	req := httptest.NewRequest(http.MethodPost, "/boom", nil)
	req.Header.Set("X-Request-ID", "panic-0001")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var e ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatalf("body %q not an ErrorResponse: %v", rec.Body, err)
	}
	if e.Code != "internal" || e.RequestID != "panic-0001" || !strings.Contains(e.Error, "kaboom") {
		t.Fatalf("envelope = %+v", e)
	}
	if got := s.reg.Snapshot().Counters["server.panics"]; got != 1 {
		t.Fatalf("server.panics = %d", got)
	}
	// The panicking request's trace is retained and marked.
	if _, ok := s.traces.Get("panic-0001"); !ok {
		t.Fatal("panic trace not retained")
	}
}

// TestHealthzLatencyPercentiles: after traffic, /healthz carries per-
// endpoint p50/p95/p99.
func TestHealthzLatencyPercentiles(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for i := 0; i < 5; i++ {
		mustOK(t, ts, "POST", "/query", Request{Src: `_(x) <- x = 1.`}, nil)
	}
	var body map[string]any
	mustOK(t, ts, "GET", "/healthz", nil, &body)
	lat, ok := body["latency"].(map[string]any)
	if !ok {
		t.Fatalf("healthz latency missing: %v", body)
	}
	q, ok := lat["query"].(map[string]any)
	if !ok {
		t.Fatalf("healthz latency for query missing: %v", lat)
	}
	for _, k := range []string{"p50_ms", "p95_ms", "p99_ms"} {
		v, ok := q[k].(float64)
		if !ok || v <= 0 {
			t.Fatalf("healthz latency %s = %v", k, q[k])
		}
	}
}

// TestMetricsQuantiles: /metrics exposes summary-style p50/p95/p99
// gauges alongside each histogram.
func TestMetricsQuantiles(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	mustOK(t, ts, "POST", "/query", Request{Src: `_(x) <- x = 1.`}, nil)
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, want := range []string{
		`lb_http_query_duration_seconds_quantile{quantile="0.5"}`,
		`lb_http_query_duration_seconds_quantile{quantile="0.95"}`,
		`lb_http_query_duration_seconds_quantile{quantile="0.99"}`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, text)
		}
	}
}
