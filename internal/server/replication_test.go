package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"logicblox/internal/core"
	"logicblox/internal/durable"
	"logicblox/internal/durable/faultfs"
	"logicblox/internal/obs"
	"logicblox/internal/replica"
)

// newPrimaryServer boots a durable primary over an in-memory fault
// filesystem with test-fast tail settings (short long-poll window, fast
// heartbeats).
func newPrimaryServer(t *testing.T) (*faultfs.FS, *durable.Store, *Server, *httptest.Server) {
	t.Helper()
	fs := faultfs.New()
	store, err := durable.Open("data", durable.Options{
		FS: fs, Generations: 2, CheckpointEvery: -1, CheckpointInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	db, err := store.Recover(func() (*core.Database, error) { return core.NewDatabase(), nil })
	if err != nil {
		t.Fatal(err)
	}
	db.SetCommitHook(store.LogCommit)
	s := New(db, Config{Durable: store, TailWindow: 2 * time.Second, TailHeartbeat: 20 * time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() { store.Close() })
	return fs, store, s, ts
}

// newFollowerServer boots a follower of primaryURL over its own
// in-memory store and starts tailing. The returned FS allows the
// follower to be torn down and re-opened over the same "disk".
func newFollowerServer(t *testing.T, primaryURL string, bound time.Duration, fcfg func(*replica.Config)) (*faultfs.FS, *replica.Follower, *Server, *httptest.Server) {
	t.Helper()
	fs := faultfs.New()
	fol, s, ts := openFollowerServer(t, fs, primaryURL, bound, fcfg)
	return fs, fol, s, ts
}

// openFollowerServer recovers a follower from an existing fault
// filesystem — a "restart" when fs already holds state.
func openFollowerServer(t *testing.T, fs *faultfs.FS, primaryURL string, bound time.Duration, fcfg func(*replica.Config)) (*replica.Follower, *Server, *httptest.Server) {
	t.Helper()
	store, err := durable.Open("fdata", durable.Options{
		FS: fs, Generations: 2, CheckpointEvery: -1, CheckpointInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	db, err := store.Recover(func() (*core.Database, error) { return core.NewDatabase(), nil })
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	cfg := replica.Config{
		PrimaryURL:     primaryURL,
		Store:          store,
		DB:             db,
		StalenessBound: bound,
		PollWindow:     time.Second,
		Obs:            reg,
	}
	if fcfg != nil {
		fcfg(&cfg)
	}
	fol, err := replica.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fol.Start(context.Background())
	t.Cleanup(fol.Stop)
	s := New(db, Config{Follower: fol, Durable: store, Obs: reg})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() { store.Close() })
	return fol, s, ts
}

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// rawPost returns the exact response body bytes — the byte-identical
// replay check cannot go through a JSON decode/re-encode.
func rawPost(t *testing.T, ts *httptest.Server, path string, body any) (int, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// healthzLag reads replica.lag_seq from a follower's /healthz. A stale
// follower answers 503 with the same body, so the status is ignored.
func healthzLag(ts *httptest.Server) (int64, bool) {
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		return 0, false
	}
	defer resp.Body.Close()
	var doc struct {
		Replica *replica.Status `json:"replica"`
	}
	if json.NewDecoder(resp.Body).Decode(&doc) != nil || doc.Replica == nil {
		return 0, false
	}
	return int64(doc.Replica.LagSeq), true
}

// The replication e2e: one primary, two followers, concurrent writers.
// Every acked commit must appear on both followers exactly once — the
// full-scan query responses are byte-identical to the primary's at equal
// sequence — and lag must read zero once caught up.
func TestReplicationE2E(t *testing.T) {
	_, store, _, pts := newPrimaryServer(t)
	_, fol1, _, fts1 := newFollowerServer(t, pts.URL, 10*time.Second, nil)
	_, fol2, _, fts2 := newFollowerServer(t, pts.URL, 10*time.Second, nil)

	mustOK(t, pts, http.MethodPost, "/addblock",
		Request{Name: "views", Src: `small(x) <- p(x), x < 8.`}, nil)
	// Both followers replay the schema before reads land on them, so no
	// read answers 503 as never caught up.
	head := store.Stats().LastSeq
	waitUntil(t, 10*time.Second, "schema replay", func() bool {
		return fol1.Status().AppliedSeq >= head && fol2.Status().AppliedSeq >= head
	})

	// Concurrent writers: 4 goroutines, disjoint value ranges.
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				mustOK(t, pts, http.MethodPost, "/exec",
					Request{Src: fmt.Sprintf("+p(%d).", w*100+i)}, nil)
			}
		}(w)
	}
	// Reads during the writes, alternating between the followers, and a
	// /healthz sampler recording the largest lag either reported.
	followers := []*httptest.Server{fts1, fts2}
	const reads = 32
	var (
		readStatus [reads]int
		readErr    [reads]error
		readAns    [reads]QueryResponse
		lagMax     int64   // written by the sampler only, read after lagDone
		lagSampled [2]bool // each follower's /healthz carried a replica section
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := range reads {
			readStatus[i], readErr[i] = postJSON(followers[i%2], "/query", Request{Src: `_(x) <- p(x).`}, &readAns[i])
		}
	}()
	stopLag := make(chan struct{})
	lagDone := make(chan struct{})
	go func() {
		defer close(lagDone)
		for {
			for i, fts := range followers {
				lag, ok := healthzLag(fts)
				lagSampled[i] = lagSampled[i] || ok
				if ok && lag > lagMax {
					lagMax = lag
				}
			}
			select {
			case <-stopLag:
				return
			case <-time.After(2 * time.Millisecond):
			}
		}
	}()
	wg.Wait()
	close(stopLag)
	<-lagDone

	head = store.Stats().LastSeq
	waitUntil(t, 10*time.Second, "follower 1 catch-up", func() bool { return fol1.Status().AppliedSeq >= head })
	waitUntil(t, 10*time.Second, "follower 2 catch-up", func() bool { return fol2.Status().AppliedSeq >= head })

	// Exactly-once, byte-identical at equal seq: the same full scans
	// against primary and both followers return identical bytes.
	for _, src := range []string{`_(x) <- p(x).`, `_(x) <- small(x).`} {
		req := Request{Src: src}
		wantStatus, want := rawPost(t, pts, "/query", req)
		if wantStatus != http.StatusOK {
			t.Fatalf("primary query %q: status %d", src, wantStatus)
		}
		for i, fts := range []*httptest.Server{fts1, fts2} {
			gotStatus, got := rawPost(t, fts, "/query", req)
			if gotStatus != http.StatusOK {
				t.Fatalf("follower %d query %q: status %d", i+1, src, gotStatus)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("follower %d query %q diverges:\n got %s\nwant %s", i+1, src, got, want)
			}
		}
	}

	// Every read under load answered, both followers served reads, and no
	// follower answer held a fact the primary does not finally hold.
	var final QueryResponse
	mustOK(t, pts, http.MethodPost, "/query", Request{Src: `_(x) <- p(x).`}, &final)
	acked := make(map[float64]bool, len(final.Rows))
	for _, row := range final.Rows {
		acked[row[0].(float64)] = true
	}
	served := [2]int{}
	for i := range reads {
		if readStatus[i] != http.StatusOK || readErr[i] != nil {
			t.Fatalf("read %d on follower %d under load: status %d, %v", i, i%2+1, readStatus[i], readErr[i])
		}
		served[i%2]++
		for _, row := range readAns[i].Rows {
			if !acked[row[0].(float64)] {
				t.Fatalf("follower %d served p(%v), absent from the primary's final answer", i%2+1, row[0])
			}
		}
	}
	if served[0] == 0 || served[1] == 0 {
		t.Fatalf("reads served per follower = %v, want both", served)
	}
	if !lagSampled[0] || !lagSampled[1] {
		t.Fatalf("/healthz replica section sampled per follower = %v, want both", lagSampled)
	}
	t.Logf("reads under load: %v per follower, max replica.lag_seq %d", served, lagMax)

	// Replay is exactly-once on disk too: the follower journaled each
	// record once, so its local store head equals the primary's.
	if st := fol1.Status(); st.AppliedSeq != head || st.LagSeq != 0 {
		t.Fatalf("follower 1 status %+v, want applied=%d lag=0", st, head)
	}

	// Lag reporting on /healthz: replica section, zero lag, follower mode.
	var health struct {
		Mode    string          `json:"mode"`
		Replica *replica.Status `json:"replica"`
	}
	if status := do(t, fts1, http.MethodGet, "/healthz", nil, &health); status != http.StatusOK {
		t.Fatalf("follower healthz status %d", status)
	}
	if health.Mode != "follower" || health.Replica == nil {
		t.Fatalf("follower healthz %+v, want follower mode with replica status", health)
	}
	if health.Replica.LagSeq != 0 || health.Replica.Stale {
		t.Fatalf("caught-up follower reports lag %+v", health.Replica)
	}
}

// Writes against a follower answer 421 with the primary's address.
func TestFollowerRejectsWrites(t *testing.T) {
	_, _, _, pts := newPrimaryServer(t)
	_, fol, _, fts := newFollowerServer(t, pts.URL, 10*time.Second, nil)
	waitUntil(t, 10*time.Second, "follower connect", func() bool { return fol.Status().Connected })

	for _, probe := range []struct {
		path string
		body any
	}{
		{"/exec", Request{Src: "+p(1)."}},
		{"/addblock", Request{Name: "b", Src: "q(x) <- p(x)."}},
		{"/branches", BranchRequest{Op: "create", From: "main", To: "other"}},
	} {
		var errResp ErrorResponse
		status := do(t, fts, http.MethodPost, probe.path, probe.body, &errResp)
		if status != http.StatusMisdirectedRequest || errResp.Code != "read_only" {
			t.Fatalf("%s on follower: status %d code %q, want 421 read_only", probe.path, status, errResp.Code)
		}
		if errResp.Primary != pts.URL {
			t.Fatalf("%s read_only error names primary %q, want %q", probe.path, errResp.Primary, pts.URL)
		}
	}

	// Reads stay served locally: /query, /branches GET, and diff work.
	mustOK(t, pts, http.MethodPost, "/exec", Request{Src: "+p(5)."}, nil)
	waitUntil(t, 10*time.Second, "follower catch-up", func() bool { return fol.Status().LagSeq == 0 && fol.Status().AppliedSeq > 0 })
	if got := queryInts(t, fts, "main", `_(x) <- p(x).`); !intsEqual(got, []int{5}) {
		t.Fatalf("follower read = %v, want [5]", got)
	}
}

// A follower cut off from its primary past the staleness bound answers
// 503 stale_read on /query and flips /healthz.
func TestFollowerStaleRead(t *testing.T) {
	_, store, _, pts := newPrimaryServer(t)
	_, fol, _, fts := newFollowerServer(t, pts.URL, 150*time.Millisecond, nil)

	mustOK(t, pts, http.MethodPost, "/exec", Request{Src: "+p(1)."}, nil)
	head := store.Stats().LastSeq
	waitUntil(t, 10*time.Second, "follower catch-up", func() bool { return fol.Status().AppliedSeq >= head })

	pts.CloseClientConnections()
	pts.Close()
	waitUntil(t, 10*time.Second, "staleness bound to trip", fol.Stale)

	var errResp ErrorResponse
	status := do(t, fts, http.MethodPost, "/query", Request{Src: `_(x) <- p(x).`}, &errResp)
	if status != http.StatusServiceUnavailable || errResp.Code != "stale_read" {
		t.Fatalf("stale follower query: status %d code %q, want 503 stale_read", status, errResp.Code)
	}
	var health struct {
		Status  string          `json:"status"`
		Replica *replica.Status `json:"replica"`
	}
	if status := do(t, fts, http.MethodGet, "/healthz", nil, &health); status != http.StatusServiceUnavailable {
		t.Fatalf("stale follower healthz status %d, want 503", status)
	}
	if health.Status != "stale" || health.Replica == nil || !health.Replica.Stale {
		t.Fatalf("stale follower healthz %+v", health)
	}
}

// A follower paused while the primary's checkpointer truncates the
// journal past its position must recover through a full snapshot resync,
// not diverge or wedge.
func TestFollowerResyncAfterTruncation(t *testing.T) {
	_, store, ps, pts := newPrimaryServer(t)
	db := ps.Database()

	// Phase 1: follower catches up to the first burst, then goes away
	// (server torn down, local durable state kept).
	ffs, fol, _, _ := newFollowerServer(t, pts.URL, time.Minute, nil)
	for v := 0; v < 4; v++ {
		mustOK(t, pts, http.MethodPost, "/exec", Request{Src: fmt.Sprintf("+p(%d).", v)}, nil)
	}
	head := store.Stats().LastSeq
	waitUntil(t, 10*time.Second, "follower catch-up", func() bool { return fol.Status().AppliedSeq >= head })
	pausedAt := fol.Status().AppliedSeq
	fol.Stop()

	// Phase 2: more commits and two checkpoints raise the retained floor
	// strictly past the paused follower's position (generations=2 keeps
	// the older checkpoint as the floor, so both must postdate the pause).
	for v := 4; v < 6; v++ {
		mustOK(t, pts, http.MethodPost, "/exec", Request{Src: fmt.Sprintf("+p(%d).", v)}, nil)
	}
	if err := store.Checkpoint(db.SaveSnapshot); err != nil {
		t.Fatal(err)
	}
	for v := 6; v < 8; v++ {
		mustOK(t, pts, http.MethodPost, "/exec", Request{Src: fmt.Sprintf("+p(%d).", v)}, nil)
	}
	if err := store.Checkpoint(db.SaveSnapshot); err != nil {
		t.Fatal(err)
	}
	if floor := store.Floor(); floor <= pausedAt {
		t.Fatalf("retained floor %d did not pass the paused follower at %d", floor, pausedAt)
	}

	// Phase 3: the follower comes back over its old local state. Tailing
	// from its position gets 410 journal_truncated and must resync.
	fol2, _, fts2 := openFollowerServer(t, ffs, pts.URL, time.Minute, nil)
	waitUntil(t, 10*time.Second, "resynced follower catch-up", func() bool {
		st := fol2.Status()
		return st.AppliedSeq >= store.Stats().LastSeq && st.Resyncs > 0
	})
	want := []int{0, 1, 2, 3, 4, 5, 6, 7}
	if got := queryInts(t, fts2, "main", `_(x) <- p(x).`); !intsEqual(got, want) {
		t.Fatalf("resynced follower p = %v, want %v", got, want)
	}
}

// POST /promote turns a follower into a primary that accepts writes
// continuing the replicated sequence.
func TestPromoteEndpoint(t *testing.T) {
	_, store, _, pts := newPrimaryServer(t)
	_, fol, _, fts := newFollowerServer(t, pts.URL, 10*time.Second, nil)

	mustOK(t, pts, http.MethodPost, "/exec", Request{Src: "+p(1)."}, nil)
	head := store.Stats().LastSeq
	waitUntil(t, 10*time.Second, "follower catch-up", func() bool { return fol.Status().AppliedSeq >= head })

	var resp PromoteResponse
	if status := do(t, fts, http.MethodPost, "/promote", nil, &resp); status != http.StatusOK || !resp.Promoted {
		t.Fatalf("promote: status %d resp %+v", status, resp)
	}
	// Promoted: writes accepted, health reports primary mode.
	mustOK(t, fts, http.MethodPost, "/exec", Request{Src: "+p(2)."}, nil)
	if got := queryInts(t, fts, "main", `_(x) <- p(x).`); !intsEqual(got, []int{1, 2}) {
		t.Fatalf("promoted follower p = %v, want [1 2]", got)
	}
	var health struct {
		Mode string `json:"mode"`
	}
	if status := do(t, fts, http.MethodGet, "/healthz", nil, &health); status != http.StatusOK || health.Mode != "primary" {
		t.Fatalf("promoted healthz: status %d mode %q", status, health.Mode)
	}
	// Idempotent.
	var again PromoteResponse
	if status := do(t, fts, http.MethodPost, "/promote", nil, &again); status != http.StatusOK || !again.AlreadyPromoted {
		t.Fatalf("second promote: status %d resp %+v", status, again)
	}
	// Promote on a primary is a typed error.
	var errResp ErrorResponse
	if status := do(t, pts, http.MethodPost, "/promote", nil, &errResp); status != http.StatusPreconditionFailed || errResp.Code != "not_follower" {
		t.Fatalf("promote on primary: status %d code %q", status, errResp.Code)
	}
}

// With -promote-on-failure, a follower promotes itself after consecutive
// primary probe failures.
func TestAutoPromoteOnPrimaryFailure(t *testing.T) {
	_, store, _, pts := newPrimaryServer(t)
	_, fol, _, fts := newFollowerServer(t, pts.URL, time.Minute, func(cfg *replica.Config) {
		cfg.PromoteOnFailure = true
		cfg.ProbeInterval = 20 * time.Millisecond
		cfg.ProbeFailures = 3
	})

	mustOK(t, pts, http.MethodPost, "/exec", Request{Src: "+p(9)."}, nil)
	head := store.Stats().LastSeq
	waitUntil(t, 10*time.Second, "follower catch-up", func() bool { return fol.Status().AppliedSeq >= head })

	pts.CloseClientConnections()
	pts.Close()
	waitUntil(t, 10*time.Second, "auto-promotion", fol.Promoted)

	mustOK(t, fts, http.MethodPost, "/exec", Request{Src: "+p(10)."}, nil)
	if got := queryInts(t, fts, "main", `_(x) <- p(x).`); !intsEqual(got, []int{9, 10}) {
		t.Fatalf("auto-promoted follower p = %v, want [9 10]", got)
	}
}
