package durable

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"logicblox/internal/core"
)

// The commit journal is an append-only file of framed gob records, one
// per recorded commit:
//
//	offset 0  magic "LBJRNL1\n" (8 bytes, file header, written once)
//	then per record:
//	  uint32 big-endian  payload length
//	  uint32 big-endian  CRC-32C of the payload
//	  payload            gob-encoded core.CommitRecord
//
// Each record is encoded with a fresh gob encoder so records are
// self-contained: a torn tail (truncated frame or checksum mismatch)
// invalidates only the records at and after the tear. Replay stops at
// the first invalid frame — everything before it was made durable by an
// fsync that necessarily preceded the torn append.

var journalMagic = [8]byte{'L', 'B', 'J', 'R', 'N', 'L', '1', '\n'}

const (
	// journalName is the journal file within a Store directory.
	journalName = "journal.lbj"
	// maxRecordBytes bounds one record frame; larger lengths in the file
	// mean a corrupt frame, not a real record.
	maxRecordBytes = 64 << 20
)

// encodeRecord frames one commit record.
func encodeRecord(rec core.CommitRecord) ([]byte, error) {
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(rec); err != nil {
		return nil, err
	}
	out := make([]byte, 8, 8+body.Len())
	binary.BigEndian.PutUint32(out[0:], uint32(body.Len()))
	binary.BigEndian.PutUint32(out[4:], crc32.Checksum(body.Bytes(), castagnoli))
	return append(out, body.Bytes()...), nil
}

// readJournal parses a journal file's bytes. It returns the valid
// records and whether the file ended in a torn/corrupt frame (the tail
// after the last valid record is then garbage and must be truncated
// before further appends). An empty file is torn too: its directory
// entry reached the disk but its header did not, and appends after a
// missing header would be unreadable.
func readJournal(raw []byte) (recs []core.CommitRecord, torn bool) {
	if len(raw) < len(journalMagic) || !bytes.Equal(raw[:len(journalMagic)], journalMagic[:]) {
		return nil, true
	}
	rest := raw[len(journalMagic):]
	for len(rest) > 0 {
		if len(rest) < 8 {
			return recs, true
		}
		n := binary.BigEndian.Uint32(rest[0:])
		want := binary.BigEndian.Uint32(rest[4:])
		if n > maxRecordBytes || uint32(len(rest)-8) < n {
			return recs, true
		}
		body := rest[8 : 8+n]
		if crc32.Checksum(body, castagnoli) != want {
			return recs, true
		}
		var rec core.CommitRecord
		if err := gob.NewDecoder(bytes.NewReader(body)).Decode(&rec); err != nil {
			return recs, true
		}
		recs = append(recs, rec)
		rest = rest[8+n:]
	}
	return recs, false
}

// journal is the Store's open journal file. Callers serialize access
// (the Store's mutex).
type journal struct {
	fsys FS
	dir  string
	f    File
}

func (j *journal) path() string { return filepath.Join(j.dir, journalName) }

// open opens (creating and header-initializing if needed) the journal
// for appending. Creation is made durable with a directory fsync.
func (j *journal) open() error {
	names, err := j.fsys.ReadDir(j.dir)
	if err != nil {
		return err
	}
	exists := false
	for _, n := range names {
		if n == journalName {
			exists = true
			break
		}
	}
	f, err := j.fsys.OpenAppend(j.path())
	if err != nil {
		return err
	}
	j.f = f
	if !exists {
		if _, err := f.Write(journalMagic[:]); err != nil {
			return err
		}
		if err := f.Sync(); err != nil {
			return err
		}
		if err := j.fsys.SyncDir(j.dir); err != nil {
			return err
		}
	}
	return nil
}

// append writes one record frame and fsyncs it: the commit is durable
// when append returns.
func (j *journal) append(rec core.CommitRecord) error {
	if j.f == nil {
		return errors.New("journal is closed")
	}
	frame, err := encodeRecord(rec)
	if err != nil {
		return err
	}
	if _, err := j.f.Write(frame); err != nil {
		return err
	}
	return j.f.Sync()
}

// load reads all valid records currently in the journal file.
func (j *journal) load() (recs []core.CommitRecord, torn bool, err error) {
	f, err := j.fsys.OpenRead(j.path())
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, false, nil
		}
		return nil, false, err
	}
	defer f.Close()
	raw, err := io.ReadAll(f)
	if err != nil {
		return nil, false, err
	}
	recs, torn = readJournal(raw)
	return recs, torn, nil
}

// rewrite atomically replaces the journal with exactly recs (checkpoint
// truncation, or cleanup after a torn or failed write): write a fresh
// journal to a temp file, fsync, rename over the old one, fsync the
// directory, and reopen for appending. A crash at any point leaves
// either the old journal or the new one, both valid. The old handle is
// closed without an fsync: every acked record in it was fsynced by its
// append, and anything else in it is what the rewrite drops.
func (j *journal) rewrite(recs []core.CommitRecord) error {
	if j.f != nil {
		j.f.Close()
		j.f = nil
	}
	if err := writeFileAtomic(j.fsys, j.path(), func(w io.Writer) error {
		if _, err := w.Write(journalMagic[:]); err != nil {
			return err
		}
		for _, rec := range recs {
			frame, err := encodeRecord(rec)
			if err != nil {
				return err
			}
			if _, err := w.Write(frame); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		// No handle is left open: nothing may be appended until a
		// rewrite succeeds.
		return fmt.Errorf("journal rewrite: %w", err)
	}
	f, err := j.fsys.OpenAppend(j.path())
	if err != nil {
		return err
	}
	j.f = f
	return nil
}

func (j *journal) close() error {
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}
