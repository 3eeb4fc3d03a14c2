package server

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"
	"time"

	"logicblox/internal/core"
	"logicblox/internal/durable"
	"logicblox/internal/tuple"
)

// newDurableServer boots a server over a durable store on dir —
// recovery, commit hook, the works — exactly as cmd/lb-serve wires it.
func newDurableServer(t *testing.T, dir string) (*durable.Store, *Server, *httptest.Server) {
	t.Helper()
	store, err := durable.Open(dir, durable.Options{
		Generations:        2,
		CheckpointEvery:    4,
		CheckpointInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	db, err := store.Recover(func() (*core.Database, error) { return core.NewDatabase(), nil })
	if err != nil {
		t.Fatal(err)
	}
	db.SetCommitHook(store.LogCommit)
	s := New(db, Config{Durable: store})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return store, s, ts
}

func queryInts(t *testing.T, ts *httptest.Server, branch, src string) []int {
	t.Helper()
	var resp QueryResponse
	status := do(t, ts, http.MethodPost, "/query", Request{Branch: branch, Src: src}, &resp)
	if status != http.StatusOK {
		return nil
	}
	var out []int
	for _, row := range resp.Rows {
		out = append(out, int(row[0].(float64)))
	}
	sort.Ints(out)
	return out
}

// The e2e acceptance test: commit over HTTP, kill the process abruptly
// (no shutdown checkpoint, no store.Close), restart over the same data
// directory, and every acknowledged commit — base facts, installed
// blocks with their derived views, branches — is back.
func TestDurableServerKillAndRestart(t *testing.T) {
	dir := t.TempDir()
	_, _, ts := newDurableServer(t, dir)

	mustOK(t, ts, http.MethodPost, "/addblock",
		Request{Name: "views", Src: `small(x) <- p(x), x < 3.`}, nil)
	for v := 0; v < 7; v++ {
		mustOK(t, ts, http.MethodPost, "/exec", Request{Src: fmt.Sprintf("+p(%d).", v)}, nil)
	}
	mustOK(t, ts, http.MethodPost, "/branches", BranchRequest{Op: "create", From: "main", To: "scenario"}, nil)
	mustOK(t, ts, http.MethodPost, "/exec", Request{Branch: "scenario", Src: "+p(100)."}, nil)
	mustOK(t, ts, http.MethodPost, "/branches", BranchRequest{Op: "commit", From: "scenario", To: "main"}, nil)

	// Abrupt kill: drop every handle on the floor. The store is NOT
	// closed and NOT checkpointed; recovery must work from whatever the
	// journal and any background-rotated generations already hold.
	ts.Close()

	store2, _, ts2 := newDurableServer(t, dir)
	want := []int{0, 1, 2, 3, 4, 5, 6, 100}
	if got := queryInts(t, ts2, "main", `_(x) <- p(x).`); !intsEqual(got, want) {
		t.Fatalf("recovered main p = %v, want %v", got, want)
	}
	// The derived view re-derived through the replayed block install.
	if got := queryInts(t, ts2, "main", `_(x) <- small(x).`); !intsEqual(got, []int{0, 1, 2}) {
		t.Fatalf("recovered small = %v, want [0 1 2]", got)
	}
	if got := queryInts(t, ts2, "scenario", `_(x) <- p(x).`); !intsEqual(got, want) {
		t.Fatalf("recovered scenario p = %v, want %v", got, want)
	}

	// Recovery state is surfaced on /healthz.
	var health struct {
		Status  string         `json:"status"`
		Durable *durable.Stats `json:"durable"`
	}
	if status := do(t, ts2, http.MethodGet, "/healthz", nil, &health); status != http.StatusOK {
		t.Fatalf("healthz status %d", status)
	}
	if health.Durable == nil {
		t.Fatal("healthz has no durable stats")
	}
	st := store2.Stats()
	if st.JournalReplayed+int(st.RecoveredSnapshotSeq) == 0 {
		t.Fatalf("recovery restored nothing: %+v", st)
	}
}

// /load under durability re-anchors the store: the uploaded snapshot
// becomes a generation, later commits journal on top of it, and a kill
// + restart recovers the combination.
func TestDurableServerLoadThenKill(t *testing.T) {
	// Build a donor snapshot with one committed fact.
	donor := core.NewDatabase()
	ws, err := donor.Workspace(core.DefaultBranch)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ws.Exec("+p(42).")
	if err != nil {
		t.Fatal(err)
	}
	if err := donor.Commit(core.DefaultBranch, res.Workspace); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	_, _, ts := newDurableServer(t, dir)
	mustOK(t, ts, http.MethodPost, "/exec", Request{Src: "+p(1)."}, nil)

	var snap bytes.Buffer
	if _, err := donor.SaveSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/load", "application/octet-stream", &snap)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/load status %d", resp.StatusCode)
	}
	mustOK(t, ts, http.MethodPost, "/exec", Request{Src: "+p(43)."}, nil)
	ts.Close() // abrupt kill

	_, _, ts2 := newDurableServer(t, dir)
	if got := queryInts(t, ts2, "main", `_(x) <- p(x).`); !intsEqual(got, []int{42, 43}) {
		t.Fatalf("recovered p = %v, want [42 43] (loaded snapshot + post-load commit)", got)
	}
}

// Count-triggered checkpoints must keep firing after /load: the
// background checkpointer snapshots the database the server currently
// serves (Server.SaveSnapshot), not the one it was started with —
// otherwise every later checkpoint re-snapshots the stale pre-load
// database and the journal tail recovery replays grows without bound.
func TestDurableServerCheckpointsAfterLoad(t *testing.T) {
	donor := core.NewDatabase()
	ws, err := donor.Workspace(core.DefaultBranch)
	if err != nil {
		t.Fatal(err)
	}
	if ws, err = ws.Insert("p", tuple.Ints(42)); err != nil {
		t.Fatal(err)
	}
	if err := donor.Commit(core.DefaultBranch, ws); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if _, err := donor.SaveSnapshot(&snap); err != nil {
		t.Fatal(err)
	}

	const checkpointEvery = 4 // newDurableServer's CheckpointEvery
	dir := t.TempDir()
	store, s, ts := newDurableServer(t, dir)
	store.Start(s.SaveSnapshot)
	resp, err := http.Post(ts.URL+"/load", "application/octet-stream", &snap)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/load status %d", resp.StatusCode)
	}
	loaded := store.Stats().LastCheckpointSeq

	want := []int{42}
	for v := 0; v < checkpointEvery+2; v++ {
		mustOK(t, ts, http.MethodPost, "/exec", Request{Src: fmt.Sprintf("+p(%d).", v)}, nil)
		want = append(want, v)
	}
	sort.Ints(want)
	deadline := time.Now().Add(10 * time.Second)
	for store.Stats().LastCheckpointSeq <= loaded {
		if time.Now().After(deadline) {
			t.Fatalf("no snapshot generation past the loaded one (seq %d) after %d commits: %+v",
				loaded, checkpointEvery+2, store.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	ts.Close()
	if err := store.Close(); err != nil { // stops the checkpointer; takes no snapshot
		t.Fatal(err)
	}

	store2, _, ts2 := newDurableServer(t, dir)
	if got := queryInts(t, ts2, "main", `_(x) <- p(x).`); !intsEqual(got, want) {
		t.Fatalf("recovered p = %v, want %v", got, want)
	}
	if st := store2.Stats(); st.JournalReplayed >= checkpointEvery {
		t.Fatalf("recovery replayed %d journal records, want fewer than checkpoint-every=%d: %+v",
			st.JournalReplayed, checkpointEvery, st)
	}
}

// A corrupt /load body is rejected with the typed code and must not
// disturb the served database or the store.
func TestLoadCorruptSnapshotRejected(t *testing.T) {
	dir := t.TempDir()
	_, _, ts := newDurableServer(t, dir)
	mustOK(t, ts, http.MethodPost, "/exec", Request{Src: "+p(7)."}, nil)

	resp, err := http.Post(ts.URL+"/load", "application/octet-stream",
		bytes.NewReader([]byte("this is not a snapshot")))
	if err != nil {
		t.Fatal(err)
	}
	var errResp ErrorResponse
	json.NewDecoder(resp.Body).Decode(&errResp)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || errResp.Code != "corrupt_snapshot" {
		t.Fatalf("corrupt /load: status %d code %q, want 400 corrupt_snapshot", resp.StatusCode, errResp.Code)
	}
	if got := queryInts(t, ts, "main", `_(x) <- p(x).`); !intsEqual(got, []int{7}) {
		t.Fatalf("served database disturbed by rejected load: %v", got)
	}
}

// A /load body of a payload version this build does not read is
// rejected 400 snapshot_version, distinct from corruption, and leaves the
// served database alone.
func TestLoadUnsupportedVersionRejected(t *testing.T) {
	dir := t.TempDir()
	_, _, ts := newDurableServer(t, dir)
	mustOK(t, ts, http.MethodPost, "/exec", Request{Src: "+p(7)."}, nil)

	var body bytes.Buffer
	future := struct {
		Version int
		Format  string
	}{99, "logicblox-snapshot-v99"}
	if err := gob.NewEncoder(&body).Encode(future); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/load", "application/octet-stream", &body)
	if err != nil {
		t.Fatal(err)
	}
	var errResp ErrorResponse
	json.NewDecoder(resp.Body).Decode(&errResp)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || errResp.Code != "snapshot_version" {
		t.Fatalf("version-99 /load: status %d code %q, want 400 snapshot_version", resp.StatusCode, errResp.Code)
	}
	if got := queryInts(t, ts, "main", `_(x) <- p(x).`); !intsEqual(got, []int{7}) {
		t.Fatalf("served database disturbed by rejected load: %v", got)
	}
}

func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
