package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math/rand/v2"
	"net/http"
	"strconv"
	"time"

	"logicblox/internal/core"
	"logicblox/internal/obs"
)

// errBusy rejects a request when the worker pool and its wait queue are
// both full; clients should back off and retry.
var errBusy = errors.New("worker pool saturated")

// statusFor maps an error chain onto an HTTP status via the core typed
// sentinels — no string sniffing.
func statusFor(err error) (status int, code string) {
	switch {
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout, "timeout"
	case errors.Is(err, core.ErrVersionEvicted):
		return http.StatusGone, "version_evicted"
	case errors.Is(err, core.ErrNoSuchBranch):
		return http.StatusNotFound, "no_such_branch"
	case errors.Is(err, core.ErrConflict):
		return http.StatusConflict, "conflict"
	case errors.Is(err, core.ErrBranchExists):
		return http.StatusConflict, "branch_exists"
	case errors.Is(err, core.ErrConstraint):
		return http.StatusConflict, "constraint"
	case errors.Is(err, core.ErrParse):
		return http.StatusBadRequest, "parse"
	case errors.Is(err, core.ErrTypecheck):
		return http.StatusUnprocessableEntity, "typecheck"
	case errors.Is(err, core.ErrCorruptSnapshot):
		return http.StatusBadRequest, "corrupt_snapshot"
	case errors.Is(err, core.ErrSnapshotVersion):
		return http.StatusBadRequest, "snapshot_version"
	case errors.Is(err, core.ErrDurability):
		return http.StatusInternalServerError, "durability"
	case errors.Is(err, errBusy):
		return http.StatusServiceUnavailable, "busy"
	case errors.Is(err, errBadCursor):
		return http.StatusBadRequest, "bad_cursor"
	case errors.Is(err, errStaleCursor):
		return http.StatusGone, "stale_cursor"
	default:
		return http.StatusInternalServerError, "internal"
	}
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(body)
}

func writeErrorCode(w http.ResponseWriter, status int, code, msg, requestID string) {
	if status == http.StatusServiceUnavailable {
		// Jittered so a fleet of rejected clients does not retry in
		// lockstep and re-saturate the pool on the same tick.
		w.Header().Set("Retry-After", strconv.Itoa(1+rand.IntN(3)))
	}
	writeJSON(w, status, ErrorResponse{Error: msg, Code: code, RequestID: requestID})
}

// writeError maps err onto the wire error envelope, stamping the
// request's ID so a failure is correlatable with its access-log line and
// retained trace.
func (s *Server) writeError(w http.ResponseWriter, r *http.Request, err error) {
	status, code := statusFor(err)
	s.reg.Counter("server.errors." + code).Inc()
	writeErrorCode(w, status, code, err.Error(), requestIDFrom(r.Context()))
}

// statusRecorder captures the response status for per-endpoint counters.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.ResponseWriter.Write(b)
}

// Flush forwards to the wrapped writer so streamed NDJSON chunks reach
// the client as they are produced rather than at end of request.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// acquire admits the request into the bounded worker pool: it blocks
// until a worker slot frees up, the context ends, or the wait queue is
// already full (errBusy). The server.queue.depth gauge tracks requests
// waiting for a slot; the time spent waiting is recorded on the request's
// info for the access log and the server.queue.wait histogram.
func (s *Server) acquire(ctx context.Context) error {
	t0 := time.Now()
	defer func() {
		wait := time.Since(t0)
		if info := requestInfoFrom(ctx); info != nil {
			info.queueWait = wait
		}
		s.reg.Histogram("server.queue.wait").Observe(wait)
	}()
	depth := s.queued.Add(1)
	s.reg.Gauge("server.queue.depth").Set(depth)
	defer func() { s.reg.Gauge("server.queue.depth").Set(s.queued.Add(-1)) }()
	if depth > int64(s.cfg.Workers+s.cfg.Queue) {
		s.reg.Counter("server.pool.rejected").Inc()
		return errBusy
	}
	select {
	case s.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (s *Server) release() { <-s.sem }

// endpoint wraps a handler with the service middleware: method check,
// request identity (X-Request-ID accepted or generated, echoed on the
// response, carried in the context), drain rejection (503 + Retry-After),
// panic recovery (500 in the standard wire error envelope + a marked
// trace span), per-endpoint request/latency/status metrics, the JSON
// access log, the slow-query log, the request-scoped trace ring, the
// default request deadline, and — for transaction endpoints — admission
// through the bounded worker pool.
func (s *Server) endpoint(name, method string, pooled bool, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != method {
			writeErrorCode(w, http.StatusMethodNotAllowed, "bad_request", method+" required", requestID(r))
			return
		}
		info := &requestInfo{id: requestID(r)}
		w.Header().Set(requestIDHeader, info.id)
		t0 := time.Now()
		if s.draining.Load() {
			s.reg.Counter("server.drained_rejects").Inc()
			rec := &statusRecorder{ResponseWriter: w}
			writeErrorCode(rec, http.StatusServiceUnavailable, "unavailable", "server is draining", info.id)
			s.logAccess(r, name, rec.status, time.Since(t0), info)
			return
		}
		s.reg.Counter("http." + name + ".requests").Inc()
		s.inflight.Add(1)
		defer s.inflight.Add(-1)
		sp := s.reg.StartSpan("http." + name)
		rec := &statusRecorder{ResponseWriter: w}
		defer func() {
			if p := recover(); p != nil {
				// An engine panic must not take the server down: convert
				// to a 500 in the standard wire error envelope (with the
				// request ID) and mark the request's trace span.
				sp.SetAttr("panic", 1)
				s.reg.Counter("server.panics").Inc()
				if rec.status == 0 {
					writeErrorCode(rec, http.StatusInternalServerError, "internal", fmt.Sprintf("internal error: %v", p), info.id)
				}
			}
			dur := time.Since(t0)
			sp.SetAttr("status", int64(rec.status))
			sp.End()
			s.traces.Put(info.id, sp)
			s.reg.Histogram("http." + name + ".duration").Observe(dur)
			s.reg.Counter("http." + name + ".status." + strconv.Itoa(rec.status)).Inc()
			s.logAccess(r, name, rec.status, dur, info)
			s.logSlow(r, name, rec.status, dur, info, sp)
		}()

		// One request copy carries the request info, the deadline and the
		// span.
		ctx, cancel := context.WithTimeout(context.WithValue(r.Context(), requestInfoKey{}, info), s.cfg.Timeout)
		defer cancel()
		r = r.WithContext(obs.ContextWithSpan(ctx, sp))
		if pooled {
			if err := s.acquire(r.Context()); err != nil {
				s.writeError(rec, r, err)
				return
			}
			defer s.release()
		}
		h(rec, r)
	})
}

// logAccess emits one JSON access-log line (no-op without a configured
// logger): method, path, status, duration, request ID, branch, and the
// time the request spent queued for a worker.
func (s *Server) logAccess(r *http.Request, endpoint string, status int, dur time.Duration, info *requestInfo) {
	if s.cfg.AccessLog == nil {
		return
	}
	s.cfg.AccessLog.LogAttrs(context.Background(), slog.LevelInfo, "request",
		slog.String("method", r.Method),
		slog.String("path", r.URL.Path),
		slog.String("endpoint", endpoint),
		slog.Int("status", status),
		slog.Float64("duration_ms", float64(dur)/float64(time.Millisecond)),
		slog.String("request_id", info.id),
		slog.String("branch", info.branch),
		slog.Float64("queue_wait_ms", float64(info.queueWait)/float64(time.Millisecond)),
	)
}

// logSlow emits a slow-query log entry when the request ran longer than
// the configured threshold: the full span tree (request root down to the
// engine's per-rule spans), so a slow request is explainable without
// reproducing it.
func (s *Server) logSlow(r *http.Request, endpoint string, status int, dur time.Duration, info *requestInfo, sp *obs.Span) {
	if s.cfg.AccessLog == nil || s.cfg.SlowQuery <= 0 || dur < s.cfg.SlowQuery {
		return
	}
	s.reg.Counter("server.slow_queries").Inc()
	attrs := []slog.Attr{
		slog.String("endpoint", endpoint),
		slog.Int("status", status),
		slog.Float64("duration_ms", float64(dur)/float64(time.Millisecond)),
		slog.String("request_id", info.id),
		slog.String("branch", info.branch),
		slog.Any("trace", sp.Snapshot()),
	}
	s.cfg.AccessLog.LogAttrs(context.Background(), slog.LevelWarn, "slow_query", attrs...)
}
