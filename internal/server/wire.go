package server

import (
	"encoding/json"
	"fmt"
	"strconv"

	"logicblox/internal/core"
	"logicblox/internal/obs"
	"logicblox/internal/tuple"
)

// Wire format of the lb-serve HTTP API. Every request body is JSON;
// every response body is JSON except /metrics (Prometheus text) and
// /save (binary snapshot). Errors are an ErrorResponse with a stable
// machine-readable Code mirroring the typed core errors.

// Request is the body of the transaction endpoints /exec, /query and
// /addblock.
type Request struct {
	// Branch the transaction runs against (default "main").
	Branch string `json:"branch,omitempty"`
	// Src is the LogiQL source: delta facts and reactive rules for
	// /exec, a program deriving the answer predicate "_" for /query,
	// block logic for /addblock.
	Src string `json:"src"`
	// Name is the block name (/addblock only).
	Name string `json:"name,omitempty"`
	// TimeoutMs, when > 0, tightens this request's context deadline
	// below the server default; on expiry the transaction stops within
	// one join binding and the request fails with 504.
	TimeoutMs int `json:"timeout_ms,omitempty"`
	// Limit caps the answer rows of /query. Absent: the server's
	// default cap applies to materialized responses (streams are
	// uncapped). Zero or negative: explicitly uncapped. Positive: that
	// many rows, with a next_cursor when more exist.
	Limit *int `json:"limit,omitempty"`
	// Cursor resumes a paged /query from where a previous response's
	// next_cursor left off. The token pins the snapshot version, so
	// pages are consistent; a version evicted from history fails 410
	// stale_cursor.
	Cursor string `json:"cursor,omitempty"`
	// MaxResultBytes, when > 0, truncates a /query response once its
	// encoded rows exceed this many bytes (a next_cursor continues).
	MaxResultBytes int64 `json:"max_result_bytes,omitempty"`
	// Stream asks /query for a chunked NDJSON response (equivalent to
	// ?stream=1 or Accept: application/x-ndjson).
	Stream bool `json:"stream,omitempty"`
}

// CheckWarning is one advisory finding of POST /check: the warning-tier
// LogiQL program checker's output (dead rules, unconsumed heads,
// singleton variables, duplicate/subsumed rules, unsatisfiable
// constraint bodies). Warnings never reject the program.
type CheckWarning struct {
	Check   string `json:"check"`
	Clause  string `json:"clause"`
	Message string `json:"message"`
}

// CheckResponse carries POST /check's warnings. OK is true whenever the
// candidate parsed — warnings are advisory, so a warned program is
// still installable.
type CheckResponse struct {
	OK       bool           `json:"ok"`
	Branch   string         `json:"branch"`
	Warnings []CheckWarning `json:"warnings"`
}

// BranchRequest is the body of POST /branches.
type BranchRequest struct {
	// Op is one of "create", "branchat", "delete", "commit", "diff".
	Op string `json:"op"`
	// From is the source branch ("create", "commit", "diff").
	From string `json:"from,omitempty"`
	// To is the branch acted on.
	To string `json:"to,omitempty"`
	// Version is the history index for "branchat" (time travel).
	Version int `json:"version,omitempty"`
}

// Delta summarizes one predicate's change.
type Delta struct {
	Ins int `json:"ins"`
	Del int `json:"del"`
}

// ExecResponse reports a committed exec or addblock transaction.
type ExecResponse struct {
	OK      bool   `json:"ok"`
	Branch  string `json:"branch"`
	Version uint64 `json:"version"`
	// Retries counts commit conflicts the transaction survived; Repairs
	// counts how many of them were resolved by fine-grained repair
	// (paper §3.4) rather than full re-execution.
	Retries int              `json:"retries,omitempty"`
	Repairs int              `json:"repairs,omitempty"`
	Deltas  map[string]Delta `json:"deltas,omitempty"`
	// Trace is the request's span tree so far, inlined when the request
	// was made with ?trace=1.
	Trace *obs.SpanSnapshot `json:"trace,omitempty"`
}

// QueryResponse carries a query's answer tuples (the materialized JSON
// envelope; streamed queries use NDJSON StreamRow/StreamSummary records
// instead).
type QueryResponse struct {
	OK   bool    `json:"ok"`
	Rows [][]any `json:"rows"`
	// RowCount is len(Rows) — the rows in this page, not the full
	// result.
	RowCount int `json:"row_count,omitempty"`
	// Limit is the row cap that was applied (the request's, or the
	// server default); 0 means uncapped.
	Limit int `json:"limit,omitempty"`
	// Truncated reports that the result was cut off by limit or
	// max_result_bytes; NextCursor resumes it.
	Truncated  bool              `json:"truncated,omitempty"`
	NextCursor string            `json:"next_cursor,omitempty"`
	Trace      *obs.SpanSnapshot `json:"trace,omitempty"`
}

// queryWire is the server-side encoding twin of QueryResponse: Rows is a
// pre-encoded JSON array so answer tuples are serialized by the direct
// appendRowJSON encoder (one buffer, no per-value boxing) instead of
// [][]any through encoding/json. Clients decode into QueryResponse; the
// bytes are identical.
type queryWire struct {
	OK         bool              `json:"ok"`
	Rows       json.RawMessage   `json:"rows"`
	RowCount   int               `json:"row_count,omitempty"`
	Limit      int               `json:"limit,omitempty"`
	Truncated  bool              `json:"truncated,omitempty"`
	NextCursor string            `json:"next_cursor,omitempty"`
	Trace      *obs.SpanSnapshot `json:"trace,omitempty"`
}

// StreamRow is one NDJSON record of a streamed /query response: a single
// answer tuple. Rows arrive in ascending lexicographic order, duplicates
// removed — the same sequence, value for value, as the materialized
// envelope's rows.
type StreamRow struct {
	Row []any `json:"row"`
}

// StreamSummary is the final NDJSON record of a streamed /query
// response, wrapped as {"summary": {...}}. OK=false carries the error
// and its stable code (mid-stream failures can no longer change the
// HTTP status — the 200 header is long gone).
type StreamSummary struct {
	OK         bool   `json:"ok"`
	Rows       int64  `json:"rows"`
	Bytes      int64  `json:"bytes"`
	Limit      int    `json:"limit,omitempty"`
	Truncated  bool   `json:"truncated,omitempty"`
	NextCursor string `json:"next_cursor,omitempty"`
	RequestID  string `json:"request_id,omitempty"`
	Error      string `json:"error,omitempty"`
	Code       string `json:"code,omitempty"`
}

// StreamTrailer frames the summary record so it is distinguishable from
// row records by key.
type StreamTrailer struct {
	Summary *StreamSummary `json:"summary"`
}

// BranchesResponse lists branches, or reports a branch operation.
type BranchesResponse struct {
	OK       bool             `json:"ok"`
	Branches []string         `json:"branches,omitempty"`
	Diff     map[string]Delta `json:"diff,omitempty"`
}

// VersionInfo is one entry of GET /versions.
type VersionInfo struct {
	Index   int    `json:"index"`
	Branch  string `json:"branch"`
	Version uint64 `json:"version"`
	Blocks  int    `json:"blocks"`
}

// VersionsResponse is the committed-version history.
type VersionsResponse struct {
	OK       bool          `json:"ok"`
	Versions []VersionInfo `json:"versions"`
}

// PromoteResponse is the body of POST /promote: the follower is now a
// primary, continuing the replicated sequence numbering from Seq.
type PromoteResponse struct {
	OK       bool   `json:"ok"`
	Promoted bool   `json:"promoted"`
	Seq      uint64 `json:"seq"`
	// AlreadyPromoted reports an idempotent re-promotion.
	AlreadyPromoted bool `json:"already_promoted,omitempty"`
}

// ErrorResponse is every non-2xx JSON body.
type ErrorResponse struct {
	Error string `json:"error"`
	// Code is a stable identifier: no_such_branch, conflict, parse,
	// typecheck, constraint, timeout, busy, unavailable, bad_request,
	// request_too_large, bad_cursor, stale_cursor, no_such_trace, read_only, stale_read,
	// journal_truncated, not_follower, not_durable, internal.
	Code string `json:"code"`
	// RequestID correlates the failure with its access-log line and the
	// retained trace at GET /debug/trace/{id}. Every error envelope
	// carries one (client-supplied X-Request-ID or server-generated).
	RequestID string `json:"request_id,omitempty"`
	// Primary is the primary's base URL on read_only errors (421): the
	// address a follower redirects writes to.
	Primary string `json:"primary,omitempty"`
}

// TraceResponse is the body of GET /debug/trace/{id}: the retained span
// tree of one recent request. Without an ID it lists the retained
// request IDs instead, oldest first.
type TraceResponse struct {
	OK        bool              `json:"ok"`
	RequestID string            `json:"request_id,omitempty"`
	Endpoint  string            `json:"endpoint,omitempty"`
	Status    int               `json:"status,omitempty"`
	Trace     *obs.SpanSnapshot `json:"trace,omitempty"`
	IDs       []string          `json:"ids,omitempty"`
}

// valueJSON renders one LogiQL value as its natural JSON form; entities
// (structural, no lexical form) render as "entity(type,ordinal)".
func valueJSON(v tuple.Value) any {
	switch v.Kind() {
	case tuple.KindBool:
		return v.AsBool()
	case tuple.KindInt:
		return v.AsInt()
	case tuple.KindFloat:
		return v.AsFloat()
	case tuple.KindString:
		return v.AsString()
	case tuple.KindEntity:
		return fmt.Sprintf("entity(%d,%d)", v.EntityType(), v.EntityOrdinal())
	default:
		return nil
	}
}

func rowsJSON(rows []tuple.Tuple) [][]any {
	out := make([][]any, len(rows))
	for i, t := range rows {
		row := make([]any, len(t))
		for j, v := range t {
			row[j] = valueJSON(v)
		}
		out[i] = row
	}
	return out
}

// appendRowJSON encodes one answer tuple as a JSON array directly into
// dst — the hot path of both query responses. Byte-for-byte identical to
// encoding/json over rowsJSON's [][]any (including HTML escaping), but
// with no per-value interface boxing and no reflection for the common
// kinds.
func appendRowJSON(dst []byte, t tuple.Tuple) []byte {
	dst = append(dst, '[')
	for j, v := range t {
		if j > 0 {
			dst = append(dst, ',')
		}
		dst = appendValueJSON(dst, v)
	}
	return append(dst, ']')
}

func appendValueJSON(dst []byte, v tuple.Value) []byte {
	switch v.Kind() {
	case tuple.KindBool:
		if v.AsBool() {
			return append(dst, "true"...)
		}
		return append(dst, "false"...)
	case tuple.KindInt:
		return strconv.AppendInt(dst, v.AsInt(), 10)
	case tuple.KindFloat:
		// encoding/json's float format has bespoke exponent rules;
		// delegate to keep the bytes identical.
		b, _ := json.Marshal(v.AsFloat())
		return append(dst, b...)
	case tuple.KindString:
		return appendStringJSON(dst, v.AsString())
	case tuple.KindEntity:
		dst = append(dst, `"entity(`...)
		dst = strconv.AppendUint(dst, uint64(v.EntityType()), 10)
		dst = append(dst, ',')
		dst = strconv.AppendUint(dst, uint64(v.EntityOrdinal()), 10)
		return append(dst, `)"`...)
	default:
		return append(dst, "null"...)
	}
}

// appendStringJSON writes s as a JSON string. Strings of plain printable
// ASCII append directly; anything needing escapes (controls, quotes,
// non-ASCII, and the <>& that encoding/json HTML-escapes by default)
// falls back to json.Marshal so the output matches it byte for byte.
func appendStringJSON(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, _ := json.Marshal(s)
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

func deltasJSON(deltas map[string]core.ExecDelta) map[string]Delta {
	if len(deltas) == 0 {
		return nil
	}
	out := make(map[string]Delta, len(deltas))
	for pred, d := range deltas {
		out[pred] = Delta{Ins: len(d.Ins), Del: len(d.Del)}
	}
	return out
}
