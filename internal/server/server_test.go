package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"logicblox/internal/core"
	"logicblox/internal/obs"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(core.NewDatabase(), cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// do sends a JSON request and decodes the JSON response into out (when
// non-nil), returning the HTTP status.
func do(t *testing.T, ts *httptest.Server, method, path string, reqBody, out any) int {
	t.Helper()
	var body io.Reader
	if reqBody != nil {
		raw, err := json.Marshal(reqBody)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		body = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, ts.URL+path, body)
	if err != nil {
		t.Fatalf("new request: %v", err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decode response: %v", method, path, err)
		}
	}
	return resp.StatusCode
}

func mustOK(t *testing.T, ts *httptest.Server, method, path string, reqBody, out any) {
	t.Helper()
	if status := do(t, ts, method, path, reqBody, out); status != http.StatusOK {
		t.Fatalf("%s %s: status %d", method, path, status)
	}
}

func TestServerExecQueryFlow(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	mustOK(t, ts, "POST", "/addblock", Request{Name: "schema", Src: `
		profit[sku] = z <- sellingPrice[sku] = x, buyingPrice[sku] = y, z = x - y.`}, nil)

	var exec ExecResponse
	mustOK(t, ts, "POST", "/exec", Request{Src: `
		+sellingPrice["a"] = 10.
		+buyingPrice["a"] = 6.`}, &exec)
	if !exec.OK || exec.Branch != "main" {
		t.Fatalf("exec response = %+v", exec)
	}
	if d := exec.Deltas["sellingPrice"]; d.Ins != 1 {
		t.Fatalf("deltas = %+v", exec.Deltas)
	}

	var q QueryResponse
	mustOK(t, ts, "POST", "/query", Request{Src: `_(sku, p) <- profit[sku] = p.`}, &q)
	if len(q.Rows) != 1 || q.Rows[0][0] != "a" || q.Rows[0][1] != float64(4) {
		t.Fatalf("query rows = %v", q.Rows)
	}

	var vs VersionsResponse
	mustOK(t, ts, "GET", "/versions", nil, &vs)
	if len(vs.Versions) != 3 { // initial empty + addblock + exec
		t.Fatalf("versions = %+v", vs.Versions)
	}
}

func TestServerErrorMapping(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	mustOK(t, ts, "POST", "/addblock", Request{Name: "b", Src: `d(x) <- s(x).`}, nil)

	cases := []struct {
		name       string
		method     string
		path       string
		body       any
		wantStatus int
		wantCode   string
	}{
		{"no such branch", "POST", "/exec", Request{Branch: "nope", Src: `+p(1).`}, 404, "no_such_branch"},
		{"parse error", "POST", "/exec", Request{Src: `+p(1`}, 400, "parse"},
		{"typecheck error", "POST", "/exec", Request{Src: `+d(1).`}, 422, "typecheck"},
		{"query parse error", "POST", "/query", Request{Src: `_(`}, 400, "parse"},
		{"duplicate block", "POST", "/addblock", Request{Name: "b", Src: `e(x) <- s(x).`}, 409, "conflict"},
		{"branch exists", "POST", "/branches", BranchRequest{Op: "create", From: "main", To: "main"}, 409, "branch_exists"},
		{"unknown op", "POST", "/branches", BranchRequest{Op: "zap"}, 400, "bad_request"},
		{"bad json", "POST", "/exec", "not an object", 400, "bad_request"},
		{"method not allowed", "GET", "/exec", nil, 405, "bad_request"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var e ErrorResponse
			status := do(t, ts, tc.method, tc.path, tc.body, &e)
			if status != tc.wantStatus || e.Code != tc.wantCode {
				t.Fatalf("status=%d code=%q (err=%q), want %d %q",
					status, e.Code, e.Error, tc.wantStatus, tc.wantCode)
			}
		})
	}
}

// TestRequestBodyBounds: a body past maxBodyBytes is a typed 413, bytes
// after the JSON value are a 400, and trailing whitespace is fine.
func TestRequestBodyBounds(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name, body string
		wantStatus int
		wantCode   string
	}{
		{"oversized", `{"src": "` + strings.Repeat("a", maxBodyBytes) + `"}`, 413, "request_too_large"},
		{"second value", `{"src": "+p(1)."} {"src": "+p(2)."}`, 400, "bad_request"},
		{"trailing garbage", `{"src": "+p(1)."}xyz`, 400, "bad_request"},
		{"trailing whitespace", "{\"src\": \"+p(1).\"}\n\t ", 200, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := ts.Client().Post(ts.URL+"/exec", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var e ErrorResponse
			json.NewDecoder(resp.Body).Decode(&e)
			if resp.StatusCode != tc.wantStatus || e.Code != tc.wantCode {
				t.Fatalf("status=%d code=%q (err=%q), want %d %q", resp.StatusCode, e.Code, e.Error, tc.wantStatus, tc.wantCode)
			}
		})
	}
}

// TestServerConcurrentWriters races N writers against one branch. Every
// transaction executes on a head snapshot and commits via CommitIf, so
// losers of the race re-execute; with retries to spare, all must land
// and no update may be lost.
func TestServerConcurrentWriters(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxRetries: 100})

	const writers = 8
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			raw, _ := json.Marshal(Request{Src: fmt.Sprintf("+val(%d).", i)})
			resp, err := ts.Client().Post(ts.URL+"/exec", "application/json", bytes.NewReader(raw))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b, _ := io.ReadAll(resp.Body)
				errs <- fmt.Errorf("writer %d: status %d: %s", i, resp.StatusCode, b)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	var q QueryResponse
	mustOK(t, ts, "POST", "/query", Request{Src: `_(x) <- val(x).`}, &q)
	if len(q.Rows) != writers {
		t.Fatalf("lost updates: %d rows, want %d: %v", len(q.Rows), writers, q.Rows)
	}
	// The history must show one committed version per writer.
	if got, want := s.Database().Versions(), 1+writers; got != want {
		t.Fatalf("versions = %d, want %d", got, want)
	}

	t.Run("mixed", testMixedLoad)
}

// mixedSchema: every write re-derives a key-pair join whose cost grows
// with the data, so the optimistic-commit window is wide enough for
// writers to race.
const mixedSchema = `
hit(k, v) -> int(k), int(v).
seen(k) <- hit(k, v).
link(j, k) <- hit(j, v), hit(k, w), v < w.
`

// testMixedLoad: seeded clients on two branches run hot-key writes,
// plain point reads and NDJSON-streamed scans. No answer is 5xx, every
// stream ends in an ok summary, server.query.streamed counts exactly the
// streams that answered 200, and the hot-key skew leaves contention
// evidence (server-side retries or a client-seen 409).
func testMixedLoad(t *testing.T) {
	// On a single-CPU box GOMAXPROCS(1) serializes the transactions so
	// writers never race; give the scheduler parallel Ps.
	if runtime.GOMAXPROCS(0) < 4 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	}
	reg := obs.NewRegistry()
	_, ts := newTestServer(t, Config{Workers: 4, MaxRetries: 1, Obs: reg})
	mustOK(t, ts, "POST", "/addblock", Request{Name: "schema", Src: mixedSchema}, nil)
	mustOK(t, ts, "POST", "/branches", BranchRequest{Op: "create", From: "main", To: "b1"}, nil)

	const clients, opsPerClient, keys = 6, 50, 8
	var (
		wg                        sync.WaitGroup
		conflicts, streamed, rows atomic.Int64
		errs                      = make(chan error, clients*opsPerClient)
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(42 + c)))
			for i := 0; i < opsPerClient; i++ {
				branch := []string{"main", "b1"}[rng.Intn(2)]
				key := 0 // the hot key, 90% of the time
				if rng.Float64() >= 0.9 {
					key = rng.Intn(keys)
				}
				var status int
				var err error
				switch r := rng.Float64(); {
				case r < 0.2:
					var n int64
					status, n, err = postStream(ts, Request{Branch: branch, Src: `_(k, v) <- hit(k, v).`, Stream: true})
					if status == http.StatusOK && err == nil {
						streamed.Add(1)
						rows.Add(n)
					}
				case r < 0.4:
					status, err = postJSON(ts, "/query", Request{Branch: branch, Src: fmt.Sprintf("_(v) <- hit(%d, v).", key)}, nil)
				default:
					status, err = postJSON(ts, "/exec", Request{Branch: branch, Src: fmt.Sprintf("+hit(%d, %d).", key, c*opsPerClient+i+1)}, nil)
				}
				switch {
				case err != nil:
					errs <- fmt.Errorf("client %d op %d: %w", c, i, err)
				case status >= 500:
					errs <- fmt.Errorf("client %d op %d: status %d", c, i, status)
				case status == http.StatusConflict:
					conflicts.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	if got := reg.Counter("server.query.streamed").Value(); got != streamed.Load() || got == 0 {
		t.Fatalf("server.query.streamed = %d, clients saw %d streams answer 200", got, streamed.Load())
	}
	if rows.Load() == 0 {
		t.Fatal("streamed scans carried no rows")
	}
	retries := reg.Counter("server.commit.retries").Value()
	if retries+conflicts.Load() == 0 {
		t.Fatal("no contention evidence: no commit retries and no 409")
	}
	// /debug/vars refreshes the gauges a load generator samples.
	var vars struct {
		Gauges map[string]int64 `json:"gauges"`
	}
	mustOK(t, ts, "GET", "/debug/vars", nil, &vars)
	if _, ok := vars.Gauges["server.queue.depth"]; !ok || vars.Gauges["go.heap_inuse"] <= 0 {
		t.Fatalf("/debug/vars gauges = %v, want server.queue.depth and go.heap_inuse", vars.Gauges)
	}
	t.Logf("mixed load: %d streams (%d rows), retries=%d, 409s=%d", streamed.Load(), rows.Load(), retries, conflicts.Load())
}

// postJSON POSTs req and returns the status, decoding the body into out
// when non-nil and discarding it otherwise. Unlike do it is safe off the
// test goroutine.
func postJSON(ts *httptest.Server, path string, req Request, out any) (int, error) {
	raw, _ := json.Marshal(req)
	resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(raw))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if out != nil {
		return resp.StatusCode, json.NewDecoder(resp.Body).Decode(out)
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, err
}

// postStream runs one NDJSON-streamed /query and returns its status and
// row count. A 200 stream whose last record is not an ok summary is an
// error: the status was committed before the failure.
func postStream(ts *httptest.Server, req Request) (int, int64, error) {
	raw, _ := json.Marshal(req)
	resp, err := ts.Client().Post(ts.URL+"/query", "application/json", bytes.NewReader(raw))
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, err = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, 0, err
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	var last []byte
	for sc.Scan() {
		last = append(last[:0], sc.Bytes()...)
	}
	if err := sc.Err(); err != nil {
		return resp.StatusCode, 0, err
	}
	var tr StreamTrailer
	if err := json.Unmarshal(last, &tr); err != nil || tr.Summary == nil || !tr.Summary.OK {
		return resp.StatusCode, 0, fmt.Errorf("stream did not end in an ok summary: %q", last)
	}
	return resp.StatusCode, tr.Summary.Rows, nil
}

// TestServerDeadline504 checks a per-request deadline observably stops
// the engine's fixpoint: the rule below would derive 50M facts (minutes
// of work), but the 100ms budget must surface as a fast 504.
func TestServerDeadline504(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	mustOK(t, ts, "POST", "/addblock", Request{Name: "rec", Src: `
		m(x) <- seed(x).
		m(y) <- m(x), x < 50000000, y = x + 1.`}, nil)

	t0 := time.Now()
	var e ErrorResponse
	status := do(t, ts, "POST", "/exec", Request{Src: `+seed(0).`, TimeoutMs: 100}, &e)
	elapsed := time.Since(t0)
	if status != http.StatusGatewayTimeout || e.Code != "timeout" {
		t.Fatalf("status=%d code=%q err=%q, want 504 timeout", status, e.Code, e.Error)
	}
	if elapsed > 10*time.Second {
		t.Fatalf("fixpoint did not stop at the deadline: took %v", elapsed)
	}
	// The failed transaction must not have committed anything.
	var q QueryResponse
	mustOK(t, ts, "POST", "/query", Request{Src: `_(x) <- seed(x).`, TimeoutMs: 5000}, &q)
	if len(q.Rows) != 0 {
		t.Fatalf("aborted transaction leaked: %v", q.Rows)
	}
}

func TestServerBranchOps(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	mustOK(t, ts, "POST", "/exec", Request{Src: `+inv("widget").`}, nil)

	var br BranchesResponse
	mustOK(t, ts, "POST", "/branches", BranchRequest{Op: "create", From: "main", To: "whatif"}, &br)
	if len(br.Branches) != 2 {
		t.Fatalf("branches = %v", br.Branches)
	}

	// Diverge the scenario branch, then diff it against main.
	mustOK(t, ts, "POST", "/exec", Request{Branch: "whatif", Src: `+inv("gadget"). +inv("gizmo").`}, nil)
	mustOK(t, ts, "POST", "/branches", BranchRequest{Op: "diff", From: "main", To: "whatif"}, &br)
	if d := br.Diff["inv"]; d.Ins != 2 || d.Del != 0 {
		t.Fatalf("diff = %+v", br.Diff)
	}

	// Accept the scenario: promote whatif's head onto main.
	mustOK(t, ts, "POST", "/branches", BranchRequest{Op: "commit", From: "whatif", To: "main"}, &br)
	var q QueryResponse
	mustOK(t, ts, "POST", "/query", Request{Src: `_(x) <- inv(x).`}, &q)
	if len(q.Rows) != 3 {
		t.Fatalf("main after promote = %v", q.Rows)
	}

	// Time travel: branch from version 1 (after the first exec).
	mustOK(t, ts, "POST", "/branches", BranchRequest{Op: "branchat", Version: 1, To: "past"}, &br)
	mustOK(t, ts, "POST", "/query", Request{Branch: "past", Src: `_(x) <- inv(x).`}, &q)
	if len(q.Rows) != 1 {
		t.Fatalf("past branch = %v", q.Rows)
	}

	mustOK(t, ts, "POST", "/branches", BranchRequest{Op: "delete", To: "past"}, &br)
	mustOK(t, ts, "GET", "/branches", nil, &br)
	if len(br.Branches) != 2 {
		t.Fatalf("branches after delete = %v", br.Branches)
	}
}

var promSample = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z0-9_]+="[^"]*"(,[a-zA-Z0-9_]+="[^"]*")*\})? (NaN|[-+]?Inf|[-+]?[0-9]*\.?[0-9]+([eE][-+]?[0-9]+)?)$`)

func TestServerMetricsEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	mustOK(t, ts, "POST", "/exec", Request{Src: `+p(1).`}, nil)
	mustOK(t, ts, "POST", "/query", Request{Src: `_(x) <- p(x).`}, nil)

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content-type = %q", ct)
	}
	raw, _ := io.ReadAll(resp.Body)
	out := string(raw)
	for _, want := range []string{
		"lb_http_exec_requests_total 1",
		"lb_http_exec_status_200_total 1",
		"# TYPE lb_http_exec_duration_seconds histogram",
		`lb_http_exec_duration_seconds_bucket{le="+Inf"} 1`,
		"# TYPE lb_http_query_duration_seconds histogram",
		"lb_server_commits_total 1",
		"lb_server_workers",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !promSample.MatchString(line) {
			t.Errorf("line does not parse as a Prometheus sample: %q", line)
		}
	}

	// The same snapshot as expvar-style JSON.
	var vars map[string]any
	mustOK(t, ts, "GET", "/debug/vars", nil, &vars)
	counters, ok := vars["counters"].(map[string]any)
	if !ok || counters["http.exec.requests"] != float64(1) {
		t.Fatalf("/debug/vars counters = %v", vars["counters"])
	}
}

// TestServerSaveLoadRoundTrip snapshots a live server with POST /save
// and restores it into a second server with POST /load: branches,
// version history, logic and derived predicates must survive.
func TestServerSaveLoadRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	mustOK(t, ts, "POST", "/addblock", Request{Name: "tc", Src: `
		path(x, y) <- edge(x, y).
		path(x, z) <- path(x, y), edge(y, z).`}, nil)
	mustOK(t, ts, "POST", "/exec", Request{Src: `+edge(1, 2). +edge(2, 3).`}, nil)
	mustOK(t, ts, "POST", "/branches", BranchRequest{Op: "create", From: "main", To: "side"}, nil)

	resp, err := ts.Client().Post(ts.URL+"/save", "application/octet-stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	snap, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(snap) == 0 {
		t.Fatalf("/save: status %d, %d bytes", resp.StatusCode, len(snap))
	}

	_, ts2 := newTestServer(t, Config{})
	resp, err = ts2.Client().Post(ts2.URL+"/load", "application/octet-stream", bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	var br BranchesResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(br.Branches) != 2 {
		t.Fatalf("/load: status %d, branches %v", resp.StatusCode, br.Branches)
	}

	// Derived predicates re-materialize on restore.
	var q QueryResponse
	mustOK(t, ts2, "POST", "/query", Request{Src: `_(x, y) <- path(x, y).`}, &q)
	if len(q.Rows) != 3 {
		t.Fatalf("restored path = %v", q.Rows)
	}
	// And the restored database accepts new transactions.
	mustOK(t, ts2, "POST", "/exec", Request{Branch: "side", Src: `+edge(3, 4).`}, nil)
}

func TestServerDrainRejectsNewWork(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	mustOK(t, ts, "GET", "/healthz", nil, nil)

	s.BeginDrain()

	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("healthz while draining: status %d, Retry-After %q",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}

	var e ErrorResponse
	if status := do(t, ts, "POST", "/exec", Request{Src: `+p(1).`}, &e); status != 503 || e.Code != "unavailable" {
		t.Fatalf("exec while draining: status %d code %q", status, e.Code)
	}
	// Metrics stay readable during a drain so the shutdown is observable.
	if resp, err := ts.Client().Get(ts.URL + "/metrics"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics while draining: %v %v", resp, err)
	} else {
		resp.Body.Close()
	}
}

// TestServerPanicRecovery drives a panicking handler through the
// middleware: the panic must become a 500 with code "internal", be
// counted, and not kill the server.
func TestServerPanicRecovery(t *testing.T) {
	s := New(core.NewDatabase(), Config{})
	h := s.endpoint("boom", http.MethodPost, false, func(http.ResponseWriter, *http.Request) {
		panic("kaboom")
	})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/boom", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d", rec.Code)
	}
	var e ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Code != "internal" {
		t.Fatalf("body = %s (%v)", rec.Body, err)
	}
	if got := s.reg.Snapshot().Counters["server.panics"]; got != 1 {
		t.Fatalf("server.panics = %d", got)
	}
}

// TestServerPoolRejection saturates the worker pool and its wait queue;
// the next request must be turned away with errBusy (503 busy) instead
// of queuing unboundedly.
func TestServerPoolRejection(t *testing.T) {
	s := New(core.NewDatabase(), Config{Workers: 1, Queue: 1})
	s.sem <- struct{}{} // occupy the only worker

	// Admission capacity is Workers+Queue waiters; fill it with two.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	waiting := make(chan error, 2)
	go func() { waiting <- s.acquire(ctx) }()
	go func() { waiting <- s.acquire(ctx) }()
	for s.queued.Load() < 2 {
		time.Sleep(time.Millisecond)
	}

	if err := s.acquire(context.Background()); err != errBusy {
		t.Fatalf("acquire over capacity = %v, want errBusy", err)
	}
	if got := s.reg.Snapshot().Counters["server.pool.rejected"]; got != 1 {
		t.Fatalf("server.pool.rejected = %d", got)
	}

	// The waiters themselves honor cancellation (the worker never frees).
	cancel()
	for i := 0; i < 2; i++ {
		if err := <-waiting; err != context.Canceled {
			t.Fatalf("queued acquire = %v, want context.Canceled", err)
		}
	}
	<-s.sem // restore the externally occupied worker slot
}
