package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"net/http"
	"strings"
	"time"

	"logicblox/internal/obs"
)

// Request identity and the request-scoped trace ring. Every request gets
// an ID — taken from the client's X-Request-ID header when present, else
// generated — echoed back in the X-Request-ID response header, attached
// to error payloads, and used to key the finished request's span tree in
// a bounded in-memory ring (an obs.TraceRing) served by GET
// /debug/trace/{id}. A slow
// request is thus fully explainable post hoc: the access-log line, the
// slow-query log entry, and the trace all carry the same ID.

// requestIDHeader is the request/response header carrying the ID.
const requestIDHeader = "X-Request-ID"

// maxRequestIDLen bounds a client-supplied request ID.
const maxRequestIDLen = 128

// newRequestID returns a fresh 16-hex-char random request ID.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is effectively fatal elsewhere; degrade to a
		// constant rather than panic in the request path.
		return "00000000deadbeef"
	}
	return hex.EncodeToString(b[:])
}

// requestID extracts the client's X-Request-ID (trimmed, bounded) or
// generates one.
func requestID(r *http.Request) string {
	id := strings.TrimSpace(r.Header.Get(requestIDHeader))
	if id == "" {
		return newRequestID()
	}
	if len(id) > maxRequestIDLen {
		id = id[:maxRequestIDLen]
	}
	return id
}

// requestInfo is the per-request record threaded through the context: the
// middleware creates it, decode fills in the branch, acquire records the
// queue wait, and the deferred access-log line reads it all back. It is
// only touched from the request's own goroutine.
type requestInfo struct {
	id        string
	branch    string
	queueWait time.Duration
}

type requestInfoKey struct{}

func requestInfoFrom(ctx context.Context) *requestInfo {
	info, _ := ctx.Value(requestInfoKey{}).(*requestInfo)
	return info
}

// requestIDFrom returns the request ID carried by ctx, or "" outside a
// request scope.
func requestIDFrom(ctx context.Context) string {
	if info := requestInfoFrom(ctx); info != nil {
		return info.id
	}
	return ""
}

// inlineTrace returns the request's span tree so far when the request
// asked for it with ?trace=1 (nil otherwise). The handler is still
// inside the root span, so its duration is elapsed-so-far, but the
// transaction spans below it are complete.
func (s *Server) inlineTrace(r *http.Request) *obs.SpanSnapshot {
	if r.URL.Query().Get("trace") != "1" {
		return nil
	}
	sp := obs.SpanFromContext(r.Context())
	if sp == nil {
		return nil
	}
	snap := sp.Snapshot()
	return &snap
}

// handleTrace serves GET /debug/trace/{id}: the span tree of one recent
// request. GET /debug/trace (no ID) lists the retained IDs. Like
// /metrics it stays outside the worker pool and ignores drain mode.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErrorCode(w, http.StatusMethodNotAllowed, "bad_request", "GET required", requestID(r))
		return
	}
	id := strings.Trim(strings.TrimPrefix(r.URL.Path, "/debug/trace"), "/")
	if id == "" {
		writeJSON(w, http.StatusOK, TraceResponse{OK: true, IDs: s.traces.Keys()})
		return
	}
	sp, ok := s.traces.Get(id)
	if !ok {
		writeErrorCode(w, http.StatusNotFound, "no_such_trace", "no retained trace for request id "+id, id)
		return
	}
	// The request's root span is named http.<endpoint> and carries the
	// response status as an attribute (see Server.endpoint).
	snap := sp.Snapshot()
	resp := TraceResponse{OK: true, RequestID: id, Endpoint: strings.TrimPrefix(snap.Name, "http."), Trace: &snap}
	for _, a := range snap.Attrs {
		if a.Key == "status" {
			resp.Status = int(a.Val)
		}
	}
	writeJSON(w, http.StatusOK, resp)
}
