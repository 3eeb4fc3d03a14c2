package server

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"unicode/utf8"
)

// FuzzDecodePageToken: a /query cursor is client-supplied bytes. Whatever
// they are, decodePageToken returns a token or errBadCursor, never panics,
// and never lets through an empty branch or a negative offset; a token the
// server itself issued decodes back to exactly what was encoded. Seeds are
// the cursors stream_test.go sends.
func FuzzDecodePageToken(f *testing.F) {
	f.Add("!!!", "main", uint64(999999), int64(1))
	f.Add(encodePageToken(pageToken{Branch: "main", Version: 999999, Offset: 1}), "main", uint64(0), int64(0))
	f.Add(encodePageToken(pageToken{Branch: "what-if", Version: 3, Offset: 40}), "what-if", uint64(3), int64(-1))
	f.Add(encodePageToken(pageToken{Version: 3, Offset: 40}), "", uint64(3), int64(40))
	f.Add("", "b", ^uint64(0), int64(1)<<62)
	f.Fuzz(func(t *testing.T, raw, branch string, version uint64, offset int64) {
		tok, err := decodePageToken(raw)
		switch {
		case err != nil && !errors.Is(err, errBadCursor):
			t.Fatalf("decode(%q): error %v is not errBadCursor", raw, err)
		case err == nil && (tok.Branch == "" || tok.Offset < 0):
			t.Fatalf("decode(%q) accepted %+v", raw, tok)
		case err == nil:
			if again, err := decodePageToken(encodePageToken(tok)); err != nil || again != tok {
				t.Fatalf("decode(%q) = %+v does not survive re-encoding: %+v, %v", raw, tok, again, err)
			}
		}

		// JSON cannot carry invalid UTF-8, and neither can a branch name
		// that reached the server in a JSON request.
		if !utf8.ValidString(branch) {
			return
		}
		want := pageToken{Branch: branch, Version: version, Offset: offset}
		got, err := decodePageToken(encodePageToken(want))
		if branch == "" || offset < 0 {
			if !errors.Is(err, errBadCursor) {
				t.Fatalf("decode(encode(%+v)) = %+v, %v; want errBadCursor", want, got, err)
			}
		} else if err != nil || got != want {
			t.Fatalf("decode(encode(%+v)) = %+v, %v", want, got, err)
		}
	})
}

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// FuzzJSONBody: a request body is client-supplied bytes. Decoded under a
// bound the way jsonBody decodes it, whatever they are must never panic,
// never read more than one byte past the bound — so nothing is buffered
// past it — and never be accepted when longer than the bound.
func FuzzJSONBody(f *testing.F) {
	for _, seed := range []string{
		`{"src": "+p(1)."}`, " {\"src\": \"+p(1).\"}\n", `{"src": "+p(1)."} {}`, `{"src": "+p(1)."}xyz`,
		`{"name": "` + strings.Repeat("a", 80) + `"}`, "", "[1, 2", `{"op": "diff"}`,
	} {
		f.Add([]byte(seed))
	}
	const limit = 64
	f.Fuzz(func(t *testing.T, data []byte) {
		src := &countingReader{r: bytes.NewReader(data)}
		var req Request
		err := decodeBody(http.MaxBytesReader(httptest.NewRecorder(), io.NopCloser(src), limit), &req)
		if src.n > limit+1 {
			t.Fatalf("read %d bytes under a %d-byte bound", src.n, limit)
		}
		if len(data) > limit && err == nil {
			t.Fatalf("accepted a %d-byte body under a %d-byte bound", len(data), limit)
		}
	})
}
