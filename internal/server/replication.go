package server

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"strconv"

	"logicblox/internal/durable"
	"logicblox/internal/replica"
)

// This file is the primary/follower seam of journal-streaming
// replication (docs/replication.md):
//
//	GET  /journal/tail?from_seq=N  stream journal frames (primary)
//	GET  /replica/snapshot         full framed snapshot for bootstrap/resync
//	POST /promote                  promote a follower to primary
//
// plus the follower-mode request routing: writes answer 421 with the
// primary's address, /query answers 503 past the staleness bound.

// rejectReadOnly answers 421 when this server is an unpromoted follower:
// the client should retry the write against the primary named in the
// error body. Returns true when the request was rejected.
func (s *Server) rejectReadOnly(w http.ResponseWriter, r *http.Request) bool {
	f := s.cfg.Follower
	if f == nil || f.Promoted() {
		return false
	}
	s.reg.Counter("server.errors.read_only").Inc()
	writeJSON(w, http.StatusMisdirectedRequest, ErrorResponse{
		Error:     "follower is read-only; send writes to the primary",
		Code:      "read_only",
		RequestID: requestIDFrom(r.Context()),
		Primary:   f.PrimaryURL(),
	})
	return true
}

// writable gates a write handler on follower mode.
func (s *Server) writable(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.rejectReadOnly(w, r) {
			return
		}
		h(w, r)
	}
}

// freshRead gates a read handler on the follower's staleness bound: a
// follower that has lost its primary for longer than the bound answers
// 503 stale_read so clients (and load balancers watching /healthz) fall
// back to the primary or a healthier replica rather than reading
// arbitrarily old data.
func (s *Server) freshRead(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if f := s.cfg.Follower; f != nil && !f.Promoted() && f.Stale() {
			s.reg.Counter("server.errors.stale_read").Inc()
			writeErrorCode(w, http.StatusServiceUnavailable, "stale_read",
				"replica lag exceeds the staleness bound", requestIDFrom(r.Context()))
			return
		}
		h(w, r)
	}
}

// handleJournalTail streams committed journal records from from_seq
// (exclusive) as CRC-framed chunks: a heartbeat with the current head and
// retained floor first, then records as they commit, heartbeats while
// idle, and a clean end-of-stream frame when the long-poll window
// elapses or the server drains. A from_seq below the retained floor —
// the checkpointer already folded those records into a snapshot — is 410
// journal_truncated, the follower's cue to resync from /replica/snapshot.
//
// Hand-rolled middleware: the generic endpoint() wrapper would impose the
// default request timeout and a worker-pool slot, and a long-poll stream
// must hold neither.
func (s *Server) handleJournalTail(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErrorCode(w, http.StatusMethodNotAllowed, "bad_request", "GET required", requestID(r))
		return
	}
	st := s.cfg.Durable
	if st == nil {
		writeErrorCode(w, http.StatusPreconditionFailed, "not_durable",
			"replication requires a durable primary (-data)", requestID(r))
		return
	}
	if s.draining.Load() {
		writeErrorCode(w, http.StatusServiceUnavailable, "unavailable", "server is draining", requestID(r))
		return
	}
	from, err := strconv.ParseUint(r.URL.Query().Get("from_seq"), 10, 64)
	if err != nil && r.URL.Query().Get("from_seq") != "" {
		writeErrorCode(w, http.StatusBadRequest, "bad_request", "from_seq must be an unsigned integer", requestID(r))
		return
	}
	if _, _, _, terr := st.TailSince(from); errors.Is(terr, durable.ErrJournalTruncated) {
		s.reg.Counter("server.tail.truncated").Inc()
		writeErrorCode(w, http.StatusGone, "journal_truncated",
			"journal truncated before from_seq; resync from /replica/snapshot", requestID(r))
		return
	}

	s.reg.Counter("server.tail.requests").Inc()
	s.tails.Add(1)
	defer s.tails.Add(-1)
	w.Header().Set(requestIDHeader, requestID(r))
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}

	// The stream context ends with the client, the poll window, or drain
	// (BeginDrain closes drainCh so every open stream sees it promptly).
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.TailWindow)
	defer cancel()
	go func() {
		select {
		case <-s.drainCh:
			cancel()
		case <-ctx.Done():
		}
	}()

	writeEOS := func() {
		durable.WriteTailFrame(w, durable.TailFrame{Type: durable.FrameEOS})
		flush()
	}
	for {
		recs, head, floor, err := st.TailSince(from)
		if err != nil {
			// Truncation mid-stream (a checkpoint raced us): end cleanly;
			// the reconnect gets the 410 and resyncs.
			writeEOS()
			return
		}
		if err := durable.WriteTailFrame(w, durable.TailFrame{Type: durable.FrameHeartbeat, Head: head, Floor: floor}); err != nil {
			return // client gone
		}
		for _, rec := range recs {
			if err := durable.WriteTailFrame(w, durable.TailFrame{Type: durable.FrameRecord, Rec: rec}); err != nil {
				return
			}
			from = rec.Seq
		}
		flush()
		// Long-poll for the next commit, waking at the heartbeat interval
		// so the follower's lag clock stays fresh while idle.
		wctx, wcancel := context.WithTimeout(ctx, s.cfg.TailHeartbeat)
		werr := st.WaitSeq(wctx, from)
		wcancel()
		switch {
		case ctx.Err() != nil:
			// Window elapsed, drain began, or the client went away. The
			// EOS write fails harmlessly in the last case.
			writeEOS()
			return
		case errors.Is(werr, durable.ErrClosed):
			writeEOS()
			return
		}
	}
}

// handleReplicaSnapshot serves a full database snapshot in the durable
// framed format (magic + version + CRC), with the snapshot's sequence
// number in X-LB-Snapshot-Seq. Followers bootstrap and resync from it;
// the frame means a torn download fails checksum validation instead of
// loading partially.
func (s *Server) handleReplicaSnapshot(w http.ResponseWriter, r *http.Request) {
	var buf bytes.Buffer
	seq, err := s.Database().SaveSnapshot(&buf)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	framed := durable.FrameSnapshotBytes(buf.Bytes())
	s.reg.Counter("server.snapshot.serves").Inc()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-LB-Snapshot-Seq", strconv.FormatUint(seq, 10))
	w.Header().Set("Content-Length", strconv.Itoa(len(framed)))
	w.Write(framed)
}

// handlePromote promotes a follower to primary: the tailer is sealed and
// the local journal re-opened read-write, after which this process
// accepts writes that continue the primary's sequence numbering.
// Idempotent — promoting twice reports promoted without error. There is
// no fencing of the old primary (docs/replication.md#failover-runbook):
// the operator must ensure it stays down or demoted.
func (s *Server) handlePromote(w http.ResponseWriter, r *http.Request) {
	f := s.cfg.Follower
	if f == nil {
		writeErrorCode(w, http.StatusPreconditionFailed, "not_follower",
			"this server is not a follower", requestIDFrom(r.Context()))
		return
	}
	err := f.Promote()
	if err != nil && !errors.Is(err, replica.ErrPromoted) {
		s.writeError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, PromoteResponse{
		OK: true, Promoted: true, Seq: f.DB().Seq(),
		AlreadyPromoted: errors.Is(err, replica.ErrPromoted),
	})
}

// TailStreams reports the number of open /journal/tail streams.
func (s *Server) TailStreams() int64 { return s.tails.Load() }
