package durable

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"logicblox/internal/core"
)

// The journal-tail wire format: the frames a primary streams over
// GET /journal/tail and a follower's tailer decodes. Like the on-disk
// journal, every frame is CRC-framed and self-contained, so a connection
// that dies mid-frame (the primary crashed mid-send, a proxy cut the
// stream) leaves a recognizable torn tail rather than ambiguous bytes:
//
//	per frame:
//	  uint32 big-endian  payload length
//	  uint32 big-endian  CRC-32C of the payload
//	  payload            1 type byte + type-specific body
//
// Frame types:
//
//	FrameRecord    body is one gob-encoded core.CommitRecord — the same
//	               encoding the on-disk journal uses.
//	FrameHeartbeat body is 16 bytes: the primary's head sequence number
//	               and retained floor, both uint64 big-endian. Sent at
//	               stream start and periodically while the follower is
//	               caught up, so lag is measurable even with no traffic.
//	FrameEOS       empty body: clean end of stream. The primary is
//	               draining or the long-poll window elapsed; the follower
//	               reconnects from its last applied sequence instead of
//	               treating the close as a failure.
var (
	// ErrJournalTruncated reports that a tail request asked for records
	// the checkpointer has already folded into a snapshot generation and
	// dropped from the journal: the follower is too far behind to stream
	// and must resync from a full snapshot.
	ErrJournalTruncated = errors.New("durable: journal truncated before requested sequence")
	// ErrTornFrame reports a tail stream that ended inside a frame (short
	// body, checksum mismatch, undecodable record): everything before the
	// tear was applied, the tear itself is discarded, and the tailer
	// resumes from the last good sequence number.
	ErrTornFrame = errors.New("durable: torn tail frame")
)

// Tail frame types.
const (
	FrameRecord    byte = 'r'
	FrameHeartbeat byte = 'h'
	FrameEOS       byte = 'e'
)

// TailFrame is one decoded frame of a journal-tail stream.
type TailFrame struct {
	Type byte
	// Rec is the journaled commit (FrameRecord only).
	Rec core.CommitRecord
	// Head is the primary's last journaled sequence number and Floor its
	// retained floor (FrameHeartbeat only).
	Head  uint64
	Floor uint64
}

// AppendTailFrame encodes one frame onto dst.
func AppendTailFrame(dst []byte, f TailFrame) ([]byte, error) {
	var payload []byte
	switch f.Type {
	case FrameRecord:
		var body bytes.Buffer
		body.WriteByte(FrameRecord)
		if err := gob.NewEncoder(&body).Encode(f.Rec); err != nil {
			return dst, err
		}
		payload = body.Bytes()
	case FrameHeartbeat:
		payload = make([]byte, 17)
		payload[0] = FrameHeartbeat
		binary.BigEndian.PutUint64(payload[1:], f.Head)
		binary.BigEndian.PutUint64(payload[9:], f.Floor)
	case FrameEOS:
		payload = []byte{FrameEOS}
	default:
		return dst, fmt.Errorf("durable: unknown tail frame type %q", f.Type)
	}
	var hdr [8]byte
	binary.BigEndian.PutUint32(hdr[0:], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[4:], crc32.Checksum(payload, castagnoli))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...), nil
}

// WriteTailFrame encodes one frame to w.
func WriteTailFrame(w io.Writer, f TailFrame) error {
	buf, err := AppendTailFrame(nil, f)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// TailReader decodes a journal-tail stream frame by frame.
type TailReader struct {
	r   *bufio.Reader
	src io.Reader
}

// NewTailReader wraps r for frame decoding.
func NewTailReader(r io.Reader) *TailReader {
	return &TailReader{r: bufio.NewReaderSize(r, 64<<10), src: r}
}

// Close releases the underlying stream when it is closeable (an HTTP
// response body, a file). Closing an already-closed source is the
// source's concern — http bodies tolerate it. A TailReader over a plain
// byte reader closes to a no-op.
func (t *TailReader) Close() error {
	if c, ok := t.src.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// Next returns the next frame. io.EOF means the stream closed cleanly at
// a frame boundary without an EOS marker (the connection dropped between
// frames); ErrTornFrame means it died inside one. Both are resumable —
// nothing after the last good frame was applied.
func (t *TailReader) Next() (TailFrame, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(t.r, hdr[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return TailFrame{}, io.EOF
		}
		return TailFrame{}, fmt.Errorf("%w: short frame header: %v", ErrTornFrame, err)
	}
	n := binary.BigEndian.Uint32(hdr[0:])
	want := binary.BigEndian.Uint32(hdr[4:])
	if n == 0 || n > maxRecordBytes {
		return TailFrame{}, fmt.Errorf("%w: implausible frame length %d", ErrTornFrame, n)
	}
	// The declared length is the peer's claim, not a promise: the body is
	// read into a buffer that grows only as its bytes arrive.
	var body bytes.Buffer
	got, err := body.ReadFrom(io.LimitReader(t.r, int64(n)))
	if err == nil && got < int64(n) {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return TailFrame{}, fmt.Errorf("%w: short frame body (%d of %d bytes): %v", ErrTornFrame, got, n, err)
	}
	payload := body.Bytes()
	if got := crc32.Checksum(payload, castagnoli); got != want {
		return TailFrame{}, fmt.Errorf("%w: frame checksum mismatch (got %08x, want %08x)", ErrTornFrame, got, want)
	}
	f := TailFrame{Type: payload[0]}
	switch f.Type {
	case FrameRecord:
		if err := gob.NewDecoder(bytes.NewReader(payload[1:])).Decode(&f.Rec); err != nil {
			return TailFrame{}, fmt.Errorf("%w: undecodable record: %v", ErrTornFrame, err)
		}
	case FrameHeartbeat:
		if len(payload) != 17 {
			return TailFrame{}, fmt.Errorf("%w: heartbeat body %d bytes, want 17", ErrTornFrame, len(payload))
		}
		f.Head = binary.BigEndian.Uint64(payload[1:])
		f.Floor = binary.BigEndian.Uint64(payload[9:])
	case FrameEOS:
	default:
		return TailFrame{}, fmt.Errorf("%w: unknown frame type %q", ErrTornFrame, payload[0])
	}
	return f, nil
}

// FrameSnapshotBytes frames a snapshot payload with the checksummed
// snapshot header — the body of GET /replica/snapshot, so a follower
// validates the bytes it bootstraps from exactly as recovery validates a
// generation file.
func FrameSnapshotBytes(payload []byte) []byte { return frameSnapshot(payload) }

// UnframeSnapshotBytes validates a framed snapshot and returns its
// payload. Unframed input is ErrCorruptSnapshot — on the wire, unlike on
// disk, there is no legacy raw-gob fallback.
func UnframeSnapshotBytes(raw []byte) ([]byte, error) {
	payload, isFramed, err := unframeSnapshot(raw)
	if err != nil {
		return nil, err
	}
	if !isFramed {
		return nil, fmt.Errorf("%w: missing snapshot frame header", core.ErrCorruptSnapshot)
	}
	return payload, nil
}
