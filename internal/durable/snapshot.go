package durable

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"logicblox/internal/core"
)

// Framed snapshot format. A bare gob stream cannot tell a torn write
// from valid data (most bit flips break the self-describing stream, but
// not all), so every snapshot file carries a fixed header:
//
//	offset  0  magic "LBSNAP1\n" (8 bytes)
//	offset  8  format version, uint32 big-endian (currently 1)
//	offset 12  CRC-32C (Castagnoli) of the payload, uint32 big-endian
//	offset 16  payload length, uint64 big-endian
//	offset 24  payload (the core gob snapshot)
//
// A reader validates magic, version, length and checksum before handing
// the payload to core.LoadDatabase; any mismatch is ErrCorruptSnapshot
// and recovery falls back to the previous generation.

var snapMagic = [8]byte{'L', 'B', 'S', 'N', 'A', 'P', '1', '\n'}

const (
	snapVersion    = 1
	snapHeaderSize = 24
	// snapExt names snapshot generation files: snap-<seq, hex>.lbsnap.
	snapExt = ".lbsnap"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// frameSnapshot prepends the framed header to payload.
func frameSnapshot(payload []byte) []byte {
	out := make([]byte, snapHeaderSize, snapHeaderSize+len(payload))
	copy(out, snapMagic[:])
	binary.BigEndian.PutUint32(out[8:], snapVersion)
	binary.BigEndian.PutUint32(out[12:], crc32.Checksum(payload, castagnoli))
	binary.BigEndian.PutUint64(out[16:], uint64(len(payload)))
	return append(out, payload...)
}

// unframeSnapshot validates a framed snapshot and returns its payload.
// isFramed distinguishes "not our format" (legacy raw gob, callers may
// fall back) from a framed file that fails validation (corrupt).
func unframeSnapshot(raw []byte) (payload []byte, isFramed bool, err error) {
	if len(raw) < len(snapMagic) || !bytes.Equal(raw[:len(snapMagic)], snapMagic[:]) {
		return nil, false, nil
	}
	if len(raw) < snapHeaderSize {
		return nil, true, fmt.Errorf("%w: truncated snapshot header (%d bytes)", core.ErrCorruptSnapshot, len(raw))
	}
	if v := binary.BigEndian.Uint32(raw[8:]); v != snapVersion {
		return nil, true, fmt.Errorf("%w: unsupported snapshot format version %d", core.ErrCorruptSnapshot, v)
	}
	want := binary.BigEndian.Uint32(raw[12:])
	n := binary.BigEndian.Uint64(raw[16:])
	body := raw[snapHeaderSize:]
	if uint64(len(body)) != n {
		return nil, true, fmt.Errorf("%w: snapshot payload of %d bytes, header says %d", core.ErrCorruptSnapshot, len(body), n)
	}
	if got := crc32.Checksum(body, castagnoli); got != want {
		return nil, true, fmt.Errorf("%w: snapshot checksum mismatch (got %08x, want %08x)", core.ErrCorruptSnapshot, got, want)
	}
	return body, true, nil
}

// WriteSnapshotFile writes the payload produced by save to path as a
// framed, checksummed snapshot with full crash safety (temp file, file
// fsync, rename, directory fsync). It is the helper behind the REPL's
// :save and the Store's checkpoint generations.
func WriteSnapshotFile(fsys FS, path string, save func(io.Writer) error) error {
	if fsys == nil {
		fsys = OS
	}
	var buf bytes.Buffer
	if err := save(&buf); err != nil {
		return err
	}
	framed := frameSnapshot(buf.Bytes())
	return writeFileAtomic(fsys, path, func(w io.Writer) error {
		_, err := w.Write(framed)
		return err
	})
}

// ReadSnapshotFile reads a snapshot file and returns its validated
// payload. Files without the framed header are returned whole: the
// legacy format was a bare gob stream, and core.LoadDatabase's own
// hardening covers it.
func ReadSnapshotFile(fsys FS, path string) ([]byte, error) {
	if fsys == nil {
		fsys = OS
	}
	f, err := fsys.OpenRead(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	raw, err := io.ReadAll(f)
	if err != nil {
		return nil, err
	}
	payload, isFramed, err := unframeSnapshot(raw)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if !isFramed {
		return raw, nil
	}
	return payload, nil
}

// WriteDatabaseSnapshot writes db's full snapshot to one framed,
// checksummed file with full crash safety — the single-file export the
// REPL's :save writes.
func WriteDatabaseSnapshot(fsys FS, path string, db *core.Database) error {
	return WriteSnapshotFile(fsys, path, func(w io.Writer) error {
		_, err := db.SaveSnapshot(w)
		return err
	})
}

// LoadSnapshotPayload restores a database from a payload returned by
// ReadSnapshotFile. Failures carry core.ErrCorruptSnapshot.
func LoadSnapshotPayload(payload []byte) (*core.Database, error) {
	return core.LoadDatabase(bytes.NewReader(payload))
}

// snapName names the generation file for a checkpoint sequence number.
// Zero-padded hex keeps lexical order equal to numeric order.
func snapName(seq uint64) string {
	return fmt.Sprintf("snap-%016x%s", seq, snapExt)
}

// snapSeq parses a generation file name; ok is false for other files.
func snapSeq(name string) (uint64, bool) {
	rest, found := strings.CutPrefix(name, "snap-")
	if !found {
		return 0, false
	}
	rest, found = strings.CutSuffix(rest, snapExt)
	if !found || len(rest) != 16 {
		return 0, false
	}
	seq, err := strconv.ParseUint(rest, 16, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// listGenerations returns the snapshot generation seqs in dir, ascending.
func listGenerations(fsys FS, dir string) ([]uint64, error) {
	names, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var seqs []uint64
	for _, name := range names {
		if seq, ok := snapSeq(name); ok {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// pruneGenerations removes the oldest generation files beyond keep and
// returns the retained seqs (ascending). The removals are made durable
// with a single directory fsync.
func pruneGenerations(fsys FS, dir string, seqs []uint64, keep int) ([]uint64, error) {
	if keep < 1 {
		keep = 1
	}
	if len(seqs) <= keep {
		return seqs, nil
	}
	drop := seqs[:len(seqs)-keep]
	for _, seq := range drop {
		if err := fsys.Remove(filepath.Join(dir, snapName(seq))); err != nil {
			return seqs, err
		}
	}
	if err := fsys.SyncDir(dir); err != nil {
		return seqs, err
	}
	return append([]uint64(nil), seqs[len(seqs)-keep:]...), nil
}
