package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"

	"logicblox/internal/core"
	"logicblox/internal/tuple"
)

// Streamed /query responses: NDJSON rows pipelined straight out of the
// engine's join iterators (core.Workspace.QueryStream), one
// {"row":[...]} line per answer tuple and a trailing {"summary":{...}}
// record. Pagination cursors pin the snapshot version so pages of one
// result never mix versions.

// ndjsonContentType is the streamed /query response media type.
const ndjsonContentType = "application/x-ndjson"

// defaultQueryLimit caps materialized /query responses when neither the
// request nor Config.DefaultLimit says otherwise: an accidental
// `_(x...) <- bigrel(x...)` should not materialize an unbounded JSON
// array in server memory. Streams have no default cap — their memory is
// O(1) in the result.
const defaultQueryLimit = 10000

// streamFlushBytes is how much encoded NDJSON is buffered before being
// flushed to the client; small enough that a slow consumer sees rows
// promptly, large enough to amortize syscalls.
const streamFlushBytes = 32 << 10

var (
	// errBadCursor rejects a cursor token that does not decode.
	errBadCursor = errors.New("malformed cursor")
	// errStaleCursor rejects a cursor whose pinned snapshot is no longer
	// reachable: not its branch's head and evicted from the cursor
	// snapshots, or the database swapped by /load.
	errStaleCursor = errors.New("cursor version no longer available")
)

// cursorSnapshots is how many page cursors' snapshots the server keeps
// reachable besides the branch heads: a cursor whose snapshot is neither
// answers 410 stale_cursor.
const cursorSnapshots = 64

// cursorSnap is one pinned snapshot: the workspace a page cursor of
// branch at version reads, in the database it was served from.
type cursorSnap struct {
	db      *core.Database
	branch  string
	version uint64
	ws      *core.Workspace
}

// snapshotLRU holds the snapshots of the latest cursorSnapshots page
// cursors handed out, least recently used first.
type snapshotLRU struct {
	mu      sync.Mutex
	entries []cursorSnap
}

// get returns the snapshot of branch at version in db and marks it used.
func (l *snapshotLRU) get(db *core.Database, branch string, version uint64) (*core.Workspace, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.touchLocked(db, branch, version)
}

// put pins e, evicting the least recently used snapshot when full.
func (l *snapshotLRU) put(e cursorSnap) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.touchLocked(e.db, e.branch, e.version); ok {
		return
	}
	if len(l.entries) == cursorSnapshots {
		l.entries = append(l.entries[:0], l.entries[1:]...)
	}
	l.entries = append(l.entries, e)
}

// touchLocked finds a snapshot and moves it to the most recently used
// end. Callers hold l.mu.
func (l *snapshotLRU) touchLocked(db *core.Database, branch string, version uint64) (*core.Workspace, bool) {
	for i := len(l.entries) - 1; i >= 0; i-- {
		if e := l.entries[i]; e.db == db && e.version == version && e.branch == branch {
			l.entries = append(append(l.entries[:i], l.entries[i+1:]...), e)
			return e.ws, true
		}
	}
	return nil, false
}

// pageToken is the decoded form of a /query pagination cursor: the
// branch, the pinned workspace version, and the row offset already
// delivered. Encoded as unpadded base64url JSON — opaque to clients.
type pageToken struct {
	Branch  string `json:"b"`
	Version uint64 `json:"v"`
	Offset  int64  `json:"o"`
}

func encodePageToken(t pageToken) string {
	b, _ := json.Marshal(t)
	return base64.RawURLEncoding.EncodeToString(b)
}

func decodePageToken(s string) (pageToken, error) {
	var t pageToken
	b, err := base64.RawURLEncoding.DecodeString(s)
	if err != nil {
		return t, fmt.Errorf("%w: %v", errBadCursor, err)
	}
	if err := json.Unmarshal(b, &t); err != nil {
		return t, fmt.Errorf("%w: %v", errBadCursor, err)
	}
	if t.Branch == "" || t.Offset < 0 {
		return t, errBadCursor
	}
	return t, nil
}

// resolveQuery picks the workspace snapshot a /query runs against. A
// fresh query reads the branch head; a cursor-bearing one re-resolves
// the exact version the first page saw — from the head if it has not
// moved, otherwise from the snapshots of recent cursors — so pagination
// is exactly-once over one immutable snapshot.
func (s *Server) resolveQuery(req *Request) (*core.Workspace, pageToken, error) {
	db := s.Database()
	if req.Cursor == "" {
		ws, err := db.Workspace(req.Branch)
		return ws, pageToken{Branch: req.Branch}, err
	}
	tok, err := decodePageToken(req.Cursor)
	if err != nil {
		return nil, tok, err
	}
	if head, err := db.Workspace(tok.Branch); err == nil && head.Version() == tok.Version {
		return head, tok, nil
	}
	if ws, ok := s.cursors.get(db, tok.Branch, tok.Version); ok {
		return ws, tok, nil
	}
	return nil, tok, fmt.Errorf("%w (branch %q version %d)", errStaleCursor, tok.Branch, tok.Version)
}

// effectiveLimit resolves the row cap for this request. An explicit
// limit wins (<= 0 opts out entirely); otherwise materialized responses
// get the server default and streams are uncapped.
func (s *Server) effectiveLimit(req *Request, streaming bool) int {
	if req.Limit != nil {
		if *req.Limit <= 0 {
			return 0
		}
		return *req.Limit
	}
	if streaming {
		return 0
	}
	d := s.cfg.DefaultLimit
	if d == 0 {
		d = defaultQueryLimit
	}
	if d < 0 {
		return 0
	}
	return d
}

// wantStream reports whether the request asked for the NDJSON streamed
// response: body field, query parameter, or content negotiation.
func wantStream(r *http.Request, req *Request) bool {
	if req.Stream || r.URL.Query().Get("stream") == "1" {
		return true
	}
	return strings.Contains(r.Header.Get("Accept"), ndjsonContentType)
}

// pullPage is the one result window of /query, shared by both encodings:
// it skips the offset rows earlier pages delivered (on the pipelined path
// they are discarded as they are produced), then hands rows to emit —
// which encodes one and reports the encoded size so far — until the
// cursor is exhausted, the row limit is reached, or the size reaches
// maxBytes (at least one row is always emitted). more reports that a row
// was pulled past the cap, i.e. a next page exists.
func pullPage(ctx context.Context, cur *core.Cursor, offset int64, limit int, maxBytes int64, emit func(tuple.Tuple) (int64, error)) (rows int64, more bool, err error) {
	var size int64
	for pulled := int64(0); ; pulled++ {
		if err := ctx.Err(); err != nil {
			return rows, false, err
		}
		t, ok := cur.Next()
		if !ok {
			return rows, false, cur.Err()
		}
		if pulled < offset {
			continue
		}
		if (limit > 0 && rows >= int64(limit)) || (maxBytes > 0 && rows > 0 && size >= maxBytes) {
			return rows, true, nil
		}
		if size, err = emit(t); err != nil {
			return rows, false, err
		}
		rows++
	}
}

// nextCursor is the token resuming a truncated page after rows more rows;
// it pins ws among the cursor snapshots.
func (s *Server) nextCursor(ws *core.Workspace, tok pageToken, rows int64) string {
	s.cursors.put(cursorSnap{db: s.Database(), branch: tok.Branch, version: ws.Version(), ws: ws})
	return encodePageToken(pageToken{Branch: tok.Branch, Version: ws.Version(), Offset: tok.Offset + rows})
}

// envelopeQuery is the classic JSON-envelope encoding: the page is pulled
// from a QueryCursor (span kind tx.query), so evaluation stops at the row
// cap, and rows are encoded by the direct appendRowJSON encoder into one
// buffer.
func (s *Server) envelopeQuery(w http.ResponseWriter, r *http.Request, req *Request, ws *core.Workspace, tok pageToken) {
	cur, err := ws.WithObserver(s.reg).QueryCursor(r.Context(), req.Src)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	defer cur.Close()
	limit := s.effectiveLimit(req, false)
	var buf bytes.Buffer
	buf.WriteByte('[')
	rows, more, err := pullPage(r.Context(), cur, tok.Offset, limit, req.MaxResultBytes, func(t tuple.Tuple) (int64, error) {
		if buf.Len() > 1 {
			buf.WriteByte(',')
		}
		buf.Write(appendRowJSON(buf.AvailableBuffer(), t))
		return int64(buf.Len()), nil
	})
	cur.Close() // ends the tx.query span before the trace is inlined
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	buf.WriteByte(']')
	resp := queryWire{
		OK: true, Rows: json.RawMessage(buf.Bytes()),
		RowCount: int(rows), Limit: limit, Trace: s.inlineTrace(r),
	}
	if more {
		resp.Truncated = true
		resp.NextCursor = s.nextCursor(ws, tok, rows)
	}
	writeJSON(w, http.StatusOK, resp)
}

// streamQuery is the NDJSON encoding: the page is pulled from a
// QueryStream cursor (span kind tx.query.stream), rows encoded and
// flushed incrementally, result memory O(1) in the answer count. The
// HTTP status is committed before the first row, so failures after that
// point are reported in the trailing summary record; client disconnects
// cancel the request context, which closes the cursor and records a
// tx.query.stream.abort.
func (s *Server) streamQuery(w http.ResponseWriter, r *http.Request, req *Request, ws *core.Workspace, tok pageToken) {
	cur, err := ws.WithObserver(s.reg).QueryStream(r.Context(), req.Src)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	defer cur.Close()
	s.reg.Counter("server.query.streamed").Inc()
	limit := s.effectiveLimit(req, true)
	sum := StreamSummary{OK: true, Limit: limit, RequestID: requestIDFrom(r.Context())}

	w.Header().Set("Content-Type", ndjsonContentType)
	w.WriteHeader(http.StatusOK)
	bw := bufio.NewWriterSize(w, streamFlushBytes)
	scratch := make([]byte, 0, 256)
	unflushed := 0
	var more bool
	sum.Rows, more, err = pullPage(r.Context(), cur, tok.Offset, limit, req.MaxResultBytes, func(t tuple.Tuple) (int64, error) {
		scratch = append(scratch[:0], `{"row":`...)
		scratch = appendRowJSON(scratch, t)
		scratch = append(scratch, '}', '\n')
		if _, err := bw.Write(scratch); err != nil {
			return 0, err
		}
		sum.Bytes += int64(len(scratch))
		if unflushed += len(scratch); unflushed >= streamFlushBytes {
			unflushed = 0
			bw.Flush()
			if f, ok := w.(http.Flusher); ok {
				f.Flush()
			}
		}
		return sum.Bytes, nil
	})
	if err != nil {
		_, code := statusFor(err)
		s.reg.Counter("server.errors." + code).Inc()
		sum.OK, sum.Error, sum.Code = false, err.Error(), code
	} else {
		if more {
			sum.Truncated = true
			sum.NextCursor = s.nextCursor(ws, tok, sum.Rows)
		}
		s.reg.Counter("server.stream.rows").Add(sum.Rows)
		s.reg.Counter("server.stream.bytes").Add(sum.Bytes)
	}
	s.finishStream(w, bw, r, &sum)
}

// finishStream writes the trailing summary record and flushes everything
// to the client. Write errors are unreportable at this point (the
// connection is the thing that failed) and deliberately dropped.
func (s *Server) finishStream(w http.ResponseWriter, bw *bufio.Writer, r *http.Request, sum *StreamSummary) {
	b, err := json.Marshal(StreamTrailer{Summary: sum})
	if err != nil {
		return
	}
	bw.Write(b)
	bw.WriteByte('\n')
	bw.Flush()
	if f, ok := w.(http.Flusher); ok {
		f.Flush()
	}
}
