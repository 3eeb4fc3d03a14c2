// Package server exposes a logicblox database over HTTP (stdlib-only):
// the lb-serve network layer. Every write request becomes a
// core.CommitRecord handed to core.Database.Apply — the call journal
// recovery and followers replay the same records with — so the server
// holds no write path of its own. Transactions run concurrently against
// immutable branch-head snapshots and commit through Apply's single
// optimistic loop and the database's single commit primitive
// (compare-and-swap, write-ahead journal, pointer swap under one lock):
// an exec that loses the race is repaired against the new head (paper
// §3.4); an addblock, or an exec whose logic changed under it, backs
// off and re-runs, up to MaxRetries times before surfacing 409. Every
// request carries a context deadline honored inside the engine's
// fixpoint loops, so a runaway recursive rule is stopped rather than
// pinning a worker.
//
// Endpoints:
//
//	POST /exec       run an exec transaction and commit it
//	POST /query      run a read-only query on the branch snapshot —
//	                 a materialized JSON envelope (default-capped,
//	                 limit/cursor paginated) or, negotiated via
//	                 Accept: application/x-ndjson / ?stream=1 / body
//	                 "stream", a chunked NDJSON stream pulled row by
//	                 row from the join cursor (see stream.go)
//	POST /addblock   install a block of logic and commit
//	POST /check      warning-tier program checks over the branch's
//	                 installed logic merged with an optional candidate
//	GET  /branches   list branches
//	POST /branches   create/branchat/delete/commit/diff branches
//	GET  /versions   the retained window of the version history
//	POST /save       download a binary snapshot of all branches
//	POST /load       replace the served database from a snapshot
//	GET  /metrics    obs registry, Prometheus text exposition
//	GET  /debug/vars obs registry, expvar-style JSON
//	GET  /healthz    liveness (503 while draining)
//
// Every endpoint is also served under the versioned /v1/ prefix with
// identical behavior; the bare paths are permanent aliases.
//
// With a commit hook on the database (Config.Durable set, as lb-serve
// wires it), every committed transaction is journaled write-ahead
// through internal/durable before the client sees its ack,
// and /healthz reports the store's recovery and checkpoint state; see
// docs/durability.md.
//
// See docs/server.md for the wire format and the error-code table.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"logicblox/internal/core"
	"logicblox/internal/durable"
	"logicblox/internal/engine"
	"logicblox/internal/obs"
	"logicblox/internal/relation"
	"logicblox/internal/replica"
)

// maxBodyBytes bounds request bodies so a hostile client cannot exhaust
// memory; /load snapshots are exempt (they stream through gob).
const maxBodyBytes = 8 << 20

// Config tunes a Server.
type Config struct {
	// Workers bounds concurrently executing transactions (default:
	// GOMAXPROCS).
	Workers int
	// Queue bounds requests waiting for a worker; beyond it requests
	// are rejected with 503 + Retry-After (default: 64).
	Queue int
	// Timeout is the default per-request context deadline; a request's
	// timeout_ms field can only tighten it (default: 30s).
	Timeout time.Duration
	// MaxRetries bounds optimistic re-executions after commit conflicts
	// before the request surfaces 409 (default: 3).
	MaxRetries int
	// DefaultLimit caps materialized /query responses when the request
	// does not set its own limit (default: 10000 rows; negative
	// disables the cap). Responses cut off by the cap carry a
	// next_cursor. Streamed (NDJSON) responses are never default-capped.
	DefaultLimit int
	// Obs receives all server and engine metrics (default: a fresh
	// registry).
	Obs *obs.Registry
	// Durable, when set, is the durability subsystem behind the served
	// database's commit hook: /load re-anchors the store on the uploaded
	// snapshot and /healthz reports its state. Commits are journaled
	// write-ahead whenever the database has a hook, which is the caller's
	// wiring (db.SetCommitHook(store.LogCommit)). nil serves purely in
	// memory.
	Durable *durable.Store
	// AccessLog receives one structured line per request (and slow-query
	// entries above SlowQuery). nil disables request logging.
	AccessLog *slog.Logger
	// SlowQuery is the latency threshold above which a request's span
	// tree and plan fingerprints are logged (0 disables; requires
	// AccessLog).
	SlowQuery time.Duration
	// TraceRing bounds the retained per-request span trees served by
	// GET /debug/trace/{id} (default: 256).
	TraceRing int
	// Follower, when set, puts the server in read-replica mode: the
	// served database is the follower's (swapped under it on snapshot
	// resync), write endpoints answer 421 with the primary's address,
	// /query answers 503 past the staleness bound, and /healthz carries
	// the replication status. POST /promote clears the restriction. See
	// docs/replication.md.
	Follower *replica.Follower
	// TailWindow caps one /journal/tail long-poll before the server ends
	// the stream cleanly and the follower reconnects (default: 25s).
	TailWindow time.Duration
	// TailHeartbeat is how often an idle tail stream carries a heartbeat
	// frame so followers can measure lag without traffic (default: 1s).
	TailHeartbeat time.Duration
}

// Server serves one Database over HTTP. It is safe for concurrent use;
// the database pointer itself is swappable (POST /load) behind an
// atomic.
type Server struct {
	cfg      Config
	reg      *obs.Registry
	db       atomic.Pointer[core.Database]
	sem      chan struct{}
	queued   atomic.Int64
	inflight atomic.Int64
	draining atomic.Bool
	drainCh  chan struct{} // closed by BeginDrain; ends open tail streams
	drainO   sync.Once
	tails    atomic.Int64 // open /journal/tail streams
	// traces holds the last Config.TraceRing finished request span trees
	// keyed by request ID, so /debug/trace/{id} answers for any recent
	// request; a reused client ID overwrites in place (latest wins).
	traces *obs.TraceRing
	// cursors pins the snapshots of the latest page cursors handed out.
	cursors snapshotLRU
}

// New returns a server over db. Zero Config fields take defaults.
func New(db *core.Database, cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Queue <= 0 {
		cfg.Queue = 64
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 30 * time.Second
	}
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = 3
	}
	if cfg.Obs == nil {
		cfg.Obs = obs.NewRegistry()
	}
	if cfg.TraceRing <= 0 {
		cfg.TraceRing = 256
	}
	if cfg.TailWindow <= 0 {
		cfg.TailWindow = 25 * time.Second
	}
	if cfg.TailHeartbeat <= 0 {
		cfg.TailHeartbeat = time.Second
	}
	s := &Server{
		cfg: cfg, reg: cfg.Obs, sem: make(chan struct{}, cfg.Workers),
		drainCh: make(chan struct{}),
		traces:  obs.NewTraceRing(cfg.TraceRing),
	}
	s.db.Store(db)
	return s
}

// Obs returns the server's metrics registry.
func (s *Server) Obs() *obs.Registry { return s.reg }

// Database returns the currently served database. In follower mode the
// follower owns the pointer — a snapshot resync swaps it underneath, so
// reads always see the replicated state.
func (s *Server) Database() *core.Database {
	if f := s.cfg.Follower; f != nil {
		return f.DB()
	}
	return s.db.Load()
}

// SaveSnapshot snapshots the currently served database. It is the
// durable.SaveFunc to start the store's background checkpointer with: a
// checkpointer bound to one *core.Database keeps snapshotting it after
// POST /load (or a follower resync) has swapped in another, and the
// journal then grows without bound.
func (s *Server) SaveSnapshot(w io.Writer) (uint64, error) {
	return s.Database().SaveSnapshot(w)
}

// BeginDrain puts the server into drain mode: new requests are rejected
// with 503 + Retry-After while in-flight transactions finish (the
// http.Server.Shutdown call in cmd/lb-serve does the actual waiting),
// and open /journal/tail streams are terminated with a clean
// end-of-stream frame so followers reconnect instead of timing out.
func (s *Server) BeginDrain() {
	s.draining.Store(true)
	s.drainO.Do(func() { close(s.drainCh) })
}

// Inflight returns the number of requests currently inside handlers.
func (s *Server) Inflight() int64 { return s.inflight.Load() }

// Handler returns the routed HTTP handler with all middleware applied.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/exec", s.endpoint("exec", http.MethodPost, true, s.writable(s.handleExec)))
	mux.Handle("/query", s.endpoint("query", http.MethodPost, true, s.freshRead(s.handleQuery)))
	mux.Handle("/addblock", s.endpoint("addblock", http.MethodPost, true, s.writable(s.handleAddBlock)))
	mux.Handle("/check", s.endpoint("check", http.MethodPost, true, s.handleCheck))
	mux.Handle("/branches", s.branchesRouter())
	mux.Handle("/versions", s.endpoint("versions", http.MethodGet, false, s.handleVersions))
	mux.Handle("/save", s.endpoint("save", http.MethodPost, true, s.handleSave))
	mux.Handle("/load", s.endpoint("load", http.MethodPost, true, s.writable(s.handleLoad)))
	mux.HandleFunc("/journal/tail", s.handleJournalTail)
	mux.Handle("/replica/snapshot", s.endpoint("snapshot", http.MethodGet, false, s.handleReplicaSnapshot))
	mux.Handle("/promote", s.endpoint("promote", http.MethodPost, false, s.handlePromote))
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/debug/vars", s.handleVars)
	mux.HandleFunc("/debug/trace", s.handleTrace)
	mux.HandleFunc("/debug/trace/", s.handleTrace)
	mux.HandleFunc("/healthz", s.handleHealthz)
	// /v1 is the versioned surface: every route above is reachable with
	// a /v1 prefix, identical behavior. The unversioned paths remain as
	// aliases for existing clients; a future incompatible surface would
	// ship as /v2 alongside.
	mux.Handle("/v1/", http.StripPrefix("/v1", http.HandlerFunc(mux.ServeHTTP)))
	return mux
}

// branchesRouter splits GET (list) from POST (operations); both share
// the /branches path so the method check lives here.
func (s *Server) branchesRouter() http.Handler {
	get := s.endpoint("branches", http.MethodGet, false, s.handleBranchesGet)
	post := s.endpoint("branches", http.MethodPost, true, s.handleBranchesPost)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet {
			get.ServeHTTP(w, r)
			return
		}
		post.ServeHTTP(w, r)
	})
}

// decode reads a JSON request body, applying the branch default and any
// per-request deadline tightening. It records the branch on the request's
// info for the access log. The returned cancel must be called.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, req *Request) (*http.Request, func(), bool) {
	if err := jsonBody(w, r, req); err != nil {
		writeBodyError(w, r, err)
		return r, func() {}, false
	}
	if req.Branch == "" {
		req.Branch = core.DefaultBranch
	}
	if info := requestInfoFrom(r.Context()); info != nil {
		info.branch = req.Branch
	}
	if req.TimeoutMs > 0 {
		ctx, cancel := context.WithTimeout(r.Context(), time.Duration(req.TimeoutMs)*time.Millisecond)
		return r.WithContext(ctx), cancel, true
	}
	return r, func() {}, true
}

// handleExec runs an exec transaction and commits it.
func (s *Server) handleExec(w http.ResponseWriter, r *http.Request) {
	var req Request
	r, cancel, ok := s.decode(w, r, &req)
	defer cancel()
	if !ok {
		return
	}
	s.transact(w, r, core.CommitRecord{Kind: "exec", Branch: req.Branch, Src: req.Src})
}

// transact answers a transaction request (exec, addblock) by handing its
// record to core.Database.Apply — the same call journal recovery and
// followers replay it with — under the server's policy: record into the
// server's registry, survive up to MaxRetries lost commit races. The
// record is journaled write-ahead whenever the database has a commit
// hook.
func (s *Server) transact(w http.ResponseWriter, r *http.Request, rec core.CommitRecord) {
	out, err := s.Database().Apply(r.Context(), rec, core.TxOptions{
		Obs: s.reg, MaxRetries: s.cfg.MaxRetries,
	})
	if out.Retries > 0 {
		s.reg.Counter("server.commit.retries").Add(int64(out.Retries))
		s.reg.Counter("server.commit.repairs").Add(int64(out.Repairs))
		s.reg.Counter("server.commit.full_reexecs").Add(int64(out.FullReexecs))
	}
	if err != nil {
		if out.CommitFailed {
			s.reg.Counter("server.commit.conflicts").Inc()
		}
		s.writeError(w, r, err)
		return
	}
	if out.Committed {
		s.reg.Counter("server.commits").Inc()
	}
	writeJSON(w, http.StatusOK, ExecResponse{
		OK: true, Branch: rec.Branch, Version: out.Workspace.Version(),
		Retries: out.Retries, Repairs: out.Repairs, Deltas: deltasJSON(out.BaseDeltas),
		Trace: s.inlineTrace(r),
	})
}

// handleQuery runs a read-only query on a branch snapshot; no commit is
// involved (paper §3.1: queries read a version, concurrent writers never
// block them). A fresh query reads the branch head; a pagination cursor
// re-reads the exact version its first page saw. The response is either
// the materialized JSON envelope or, on request (stream field, ?stream=1
// or Accept: application/x-ndjson), chunked NDJSON pipelined straight
// out of the join iterators.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req Request
	r, cancel, ok := s.decode(w, r, &req)
	defer cancel()
	if !ok {
		return
	}
	ws, tok, err := s.resolveQuery(&req)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	if info := requestInfoFrom(r.Context()); info != nil {
		info.branch = tok.Branch
	}
	if wantStream(r, &req) {
		s.streamQuery(w, r, &req, ws, tok)
		return
	}
	s.envelopeQuery(w, r, &req, ws, tok)
}

// handleAddBlock installs a block of logic and commits it.
func (s *Server) handleAddBlock(w http.ResponseWriter, r *http.Request) {
	var req Request
	r, cancel, ok := s.decode(w, r, &req)
	defer cancel()
	if !ok {
		return
	}
	if req.Name == "" {
		writeErrorCode(w, http.StatusBadRequest, "bad_request", "addblock requires a block name", requestIDFrom(r.Context()))
		return
	}
	s.transact(w, r, core.CommitRecord{Kind: "addblock", Branch: req.Branch, Name: req.Name, Src: req.Src})
}

// handleCheck runs the warning-tier LogiQL checker over the branch
// head's installed logic merged with the candidate in Src (which may be
// empty to audit the installed blocks alone). Read-only, no commit:
// warnings are advisory, and the same candidate is still installable
// through /addblock. Only an unparsable candidate fails (400, parse).
func (s *Server) handleCheck(w http.ResponseWriter, r *http.Request) {
	var req Request
	r, cancel, ok := s.decode(w, r, &req)
	defer cancel()
	if !ok {
		return
	}
	head, err := s.Database().Workspace(req.Branch)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	warns, err := head.CheckProgram(req.Src)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	out := make([]CheckWarning, len(warns))
	for i, wn := range warns {
		out[i] = CheckWarning{Check: wn.Check, Clause: wn.Clause, Message: wn.Message}
	}
	s.reg.Counter("server.checks").Inc()
	writeJSON(w, http.StatusOK, CheckResponse{OK: true, Branch: req.Branch, Warnings: out})
}

func (s *Server) handleBranchesGet(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, BranchesResponse{OK: true, Branches: s.Database().Branches()})
}

// branchOps maps the mutating ops of POST /branches onto the journal
// record kinds core.Database.Apply performs. "commit" promotes branch
// From's head onto branch To (a pointer-swap commit, e.g. merging an
// accepted what-if scenario back); like the others it is described
// entirely by its record, so it is journaled and replayable.
var branchOps = map[string]string{"create": "branch", "branchat": "branchat", "delete": "delete", "commit": "promote"}

func (s *Server) handleBranchesPost(w http.ResponseWriter, r *http.Request) {
	var req BranchRequest
	if err := jsonBody(w, r, &req); err != nil {
		writeBodyError(w, r, err)
		return
	}
	if req.Op == "diff" { // the one read; a follower serves it locally
		diff, err := s.diffBranches(req.From, req.To)
		if err != nil {
			s.writeError(w, r, err)
			return
		}
		writeJSON(w, http.StatusOK, BranchesResponse{OK: true, Diff: diff})
		return
	}
	if s.rejectReadOnly(w, r) {
		return
	}
	kind, ok := branchOps[req.Op]
	if !ok {
		writeErrorCode(w, http.StatusBadRequest, "bad_request",
			fmt.Sprintf("unknown op %q (want create|branchat|delete|commit|diff)", req.Op), requestIDFrom(r.Context()))
		return
	}
	db := s.Database()
	rec := core.CommitRecord{Kind: kind, From: req.From, To: req.To, Version: req.Version}
	if _, err := db.Apply(r.Context(), rec, core.TxOptions{}); err != nil {
		s.writeError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, BranchesResponse{OK: true, Branches: db.Branches()})
}

// diffBranches structurally diffs two branch heads per predicate (base
// and derived), counting tuples only in `from` (Del) and only in `to`
// (Ins) — the persistent-treap diff makes this proportional to the
// difference, not the data (paper §3.1).
func (s *Server) diffBranches(from, to string) (map[string]Delta, error) {
	db := s.Database()
	a, err := db.Workspace(from)
	if err != nil {
		return nil, err
	}
	b, err := db.Workspace(to)
	if err != nil {
		return nil, err
	}
	names := map[string]bool{}
	for _, ws := range []*core.Workspace{a, b} {
		for name := range ws.Relations() {
			names[name] = true
		}
	}
	out := map[string]Delta{}
	for name := range names {
		ra, rb := a.Relation(name), b.Relation(name)
		if ra.Arity() != rb.Arity() {
			n := Delta{Ins: rb.Len(), Del: ra.Len()}
			if n.Ins+n.Del > 0 {
				out[name] = n
			}
			continue
		}
		if d := engine.DeltaOf(ra, rb); !d.Empty() {
			out[name] = Delta{Ins: len(d.Ins), Del: len(d.Del)}
		}
	}
	return out, nil
}

// handleVersions lists the retained window of the version history: the
// latest commits, numbered by their absolute version index.
func (s *Server) handleVersions(w http.ResponseWriter, _ *http.Request) {
	db := s.Database()
	lo, hi := db.RetainedVersions()
	out := make([]VersionInfo, 0, hi-lo)
	for i := lo; i < hi; i++ {
		v, err := db.VersionAt(i)
		if err != nil {
			continue // evicted by a commit since RetainedVersions
		}
		out = append(out, VersionInfo{
			Index: i, Branch: v.Branch,
			Version: v.Workspace.Version(), Blocks: len(v.Workspace.Blocks()),
		})
	}
	writeJSON(w, http.StatusOK, VersionsResponse{OK: true, Versions: out})
}

// handleSave streams a binary snapshot of every branch head (the
// Database.Save payload, version 2, that LoadDatabase and POST /load
// accept).
func (s *Server) handleSave(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Disposition", "attachment; filename=logicblox.snapshot")
	if err := s.Database().Save(w); err != nil {
		// Headers are gone; all we can do is count it.
		s.reg.Counter("server.errors.save").Inc()
	}
}

// handleLoad replaces the served database with the snapshot in the
// request body (derived predicates re-materialize during restore). A
// corrupt snapshot (core.ErrCorruptSnapshot) or one of a payload version
// this build does not read (core.ErrSnapshotVersion) is rejected 400
// without touching the served database. Under durability the store is
// re-anchored: the old database is detached from the journal, the new
// one's sequence numbers are aligned past everything journaled, and a
// checkpoint makes the uploaded state the newest snapshot generation
// before any new commit is acknowledged.
func (s *Server) handleLoad(w http.ResponseWriter, r *http.Request) {
	db, err := core.LoadDatabase(r.Body)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	if st := s.cfg.Durable; st != nil {
		old := s.Database()
		// Detach the old database first: commits racing the swap stay in
		// memory only, and nothing journals between the alignment read
		// and the checkpoint.
		old.SetCommitHook(nil)
		db.AlignSeq(old.Seq() + 1)
		if err := st.Checkpoint(db.SaveSnapshot); err != nil {
			old.SetCommitHook(st.LogCommit) // roll back the handoff
			s.writeError(w, r, fmt.Errorf("%w: checkpointing loaded snapshot: %v", core.ErrDurability, err))
			return
		}
		db.SetCommitHook(st.LogCommit)
	}
	s.db.Store(db)
	s.reg.Counter("server.loads").Inc()
	writeJSON(w, http.StatusOK, BranchesResponse{OK: true, Branches: db.Branches()})
}

// handleMetrics serves the obs registry in Prometheus text exposition
// format. It stays outside the worker pool and ignores drain mode so a
// scraper sees the shutdown happen.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErrorCode(w, http.StatusMethodNotAllowed, "bad_request", "GET required", requestID(r))
		return
	}
	s.refreshGauges()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.Snapshot().WritePrometheus(w)
}

// handleVars serves the same snapshot as /debug/vars-style JSON.
func (s *Server) handleVars(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErrorCode(w, http.StatusMethodNotAllowed, "bad_request", "GET required", requestID(r))
		return
	}
	s.refreshGauges()
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.reg.Snapshot())
}

func (s *Server) refreshGauges() {
	s.reg.Gauge("server.inflight").Set(s.inflight.Load())
	s.reg.Gauge("server.workers").Set(int64(s.cfg.Workers))
	s.reg.Gauge("server.branches").Set(int64(len(s.Database().Branches())))
	s.reg.Gauge("server.versions").Set(int64(s.Database().Versions()))
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.reg.Gauge("go.heap_inuse").Set(int64(ms.HeapInuse))
	s.reg.Gauge("go.heap_alloc").Set(int64(ms.HeapAlloc))
	if relation.StorageStatsEnabled() {
		st := relation.ReadStorageStats()
		s.reg.Gauge("treap.nodes_allocated").Set(st.NodesAllocated)
		s.reg.Gauge("treap.shared_subtrees").Set(st.SharedSubtrees)
	}
	if st := s.cfg.Durable; st != nil {
		d := st.Stats()
		s.reg.Gauge("durable.pending_commits").Set(int64(d.PendingCommits))
		s.reg.Gauge("durable.generations").Set(int64(d.Generations))
		s.reg.Gauge("durable.last_seq").Set(int64(d.LastSeq))
		s.reg.Gauge("durable.retained_floor").Set(int64(d.RetainedFloor))
	}
	s.reg.Gauge("server.tail_streams").Set(s.tails.Load())
	if f := s.cfg.Follower; f != nil {
		rs := f.Status()
		s.reg.Gauge("replica.lag_seq").Set(int64(rs.LagSeq))
		s.reg.Gauge("replica.lag_ms").Set(int64(rs.LagSeconds * 1000))
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status": "draining", "inflight": s.inflight.Load(),
		})
		return
	}
	body := map[string]any{
		"status":   "ok",
		"branches": len(s.Database().Branches()),
		"versions": s.Database().Versions(),
	}
	if lat := s.latencySummary(); len(lat) > 0 {
		body["latency"] = lat
	}
	if st := s.cfg.Durable; st != nil {
		body["durable"] = st.Stats()
	}
	status := http.StatusOK
	if f := s.cfg.Follower; f != nil {
		rs := f.Status()
		body["replica"] = rs
		switch {
		case rs.Promoted:
			body["mode"] = "primary" // promoted standby
		default:
			body["mode"] = "follower"
			if rs.Stale {
				// The follower is running but its data is past the
				// staleness bound: flip the health check so load
				// balancers stop routing reads here.
				body["status"] = "stale"
				status = http.StatusServiceUnavailable
			}
		}
	}
	writeJSON(w, status, body)
}

// latencySummary reports p50/p95/p99 (milliseconds) and counts per
// endpoint from the http.<endpoint>.duration histograms, the at-a-glance
// tail-latency view on /healthz.
func (s *Server) latencySummary() map[string]map[string]any {
	snap := s.reg.Snapshot()
	out := map[string]map[string]any{}
	for name, h := range snap.Histograms {
		if h.Count == 0 || !strings.HasPrefix(name, "http.") || !strings.HasSuffix(name, ".duration") {
			continue
		}
		endpoint := strings.TrimSuffix(strings.TrimPrefix(name, "http."), ".duration")
		out[endpoint] = map[string]any{
			"count":  h.Count,
			"p50_ms": float64(h.Quantile(0.50)) / float64(time.Millisecond),
			"p95_ms": float64(h.Quantile(0.95)) / float64(time.Millisecond),
			"p99_ms": float64(h.Quantile(0.99)) / float64(time.Millisecond),
		}
	}
	return out
}

// errBodyTooLarge is a request body past maxBodyBytes: 413
// request_too_large.
var errBodyTooLarge = fmt.Errorf("request body exceeds %d bytes", maxBodyBytes)

// jsonBody decodes the request body — exactly one JSON value, optionally
// surrounded by whitespace — into into, reading at most maxBodyBytes of it.
func jsonBody(w http.ResponseWriter, r *http.Request, into any) error {
	return decodeBody(http.MaxBytesReader(w, r.Body, maxBodyBytes), into)
}

// decodeBody decodes one JSON value from a body bounded by
// http.MaxBytesReader: the bound tripping is errBodyTooLarge, anything
// but whitespace after the value an invalid body.
func decodeBody(body io.Reader, into any) error {
	dec := json.NewDecoder(body)
	err := dec.Decode(into)
	if err == nil {
		if _, err = dec.Token(); err == io.EOF {
			return nil
		}
		if !errors.As(err, new(*http.MaxBytesError)) {
			err = errors.New("trailing data after the JSON value")
		}
	}
	if errors.As(err, new(*http.MaxBytesError)) {
		return errBodyTooLarge
	}
	return fmt.Errorf("invalid request body: %w", err)
}

// writeBodyError answers a request whose body jsonBody rejected.
func writeBodyError(w http.ResponseWriter, r *http.Request, err error) {
	status, code := http.StatusBadRequest, "bad_request"
	if errors.Is(err, errBodyTooLarge) {
		status, code = http.StatusRequestEntityTooLarge, "request_too_large"
	}
	writeErrorCode(w, status, code, err.Error(), requestIDFrom(r.Context()))
}
