package durable

import (
	"bytes"
	"errors"
	"io"
	"slices"
	"testing"

	"logicblox/internal/core"
)

// journalBytes is a well-formed journal file holding recs.
func journalBytes(t testing.TB, recs []core.CommitRecord) []byte {
	t.Helper()
	out := append([]byte(nil), journalMagic[:]...)
	for _, rec := range recs {
		frame, err := encodeRecord(rec)
		if err != nil {
			t.Fatalf("encode %+v: %v", rec, err)
		}
		out = append(out, frame...)
	}
	return out
}

// FuzzReadJournal: whatever the bytes, readJournal returns records and a
// verdict without panicking; the records it returns re-encode to a journal
// it reads back whole; and bytes after the last valid frame are either
// further valid frames or reported as a tear that costs no earlier record.
// Seeded with the cuts and the bit flip of TestJournalTornTail.
func FuzzReadJournal(f *testing.F) {
	whole := journalBytes(f, []core.CommitRecord{testRecord(1), testRecord(2), testRecord(3)})
	frame, _ := encodeRecord(core.CommitRecord{Seq: 4, Kind: "addblock", Branch: "main", Name: "b", Src: "v(x) <- a(x)."})
	f.Add(whole, []byte(nil))
	f.Add(whole, frame)
	f.Add([]byte(nil), whole)
	for cut := 1; cut < 40; cut += 7 {
		f.Add(whole[:len(whole)-cut], frame[:len(frame)-cut])
	}
	flipped := append([]byte(nil), whole...)
	flipped[len(journalMagic)+10] ^= 0x01
	f.Add(flipped, whole[:11])

	f.Fuzz(func(t *testing.T, raw, garbage []byte) {
		recs, _ := readJournal(raw)
		canon := journalBytes(t, recs)
		if again, torn := readJournal(canon); torn || !slices.Equal(again, recs) {
			t.Fatalf("re-encoded journal reads back as %+v (torn=%v), want %+v", again, torn, recs)
		}
		if len(garbage) == 0 {
			return
		}
		got, torn := readJournal(append(canon, garbage...))
		if len(got) < len(recs) || !slices.Equal(got[:len(recs)], recs) {
			t.Fatalf("a tail of %d bytes changed the records before it: %+v, want prefix %+v", len(garbage), got, recs)
		}
		if !torn && len(got) == len(recs) {
			t.Fatalf("%d bytes after the last valid frame decoded to nothing and were not reported torn", len(garbage))
		}
	})
}

// FuzzTailReader: whatever the stream, TailReader.Next yields frames until
// io.EOF (cut at a frame boundary) or an ErrTornFrame-wrapped error, never
// panics, and every frame it yields — record, heartbeat or end-of-stream —
// round-trips through AppendTailFrame. Seeded with the streams and cuts of
// TestTailFrameRoundTrip and TestTailReaderTornFinalFrame.
func FuzzTailReader(f *testing.F) {
	var whole []byte
	for _, fr := range []TailFrame{
		{Type: FrameHeartbeat, Head: 42, Floor: 7},
		{Type: FrameRecord, Rec: testRecord(8)},
		{Type: FrameRecord, Rec: testRecord(9)},
		{Type: FrameEOS},
	} {
		var err error
		if whole, err = AppendTailFrame(whole, fr); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(whole)
	for cut := 1; cut < len(whole); cut += 5 {
		f.Add(whole[:cut])
	}
	flipped := append([]byte(nil), whole...)
	flipped[len(flipped)-12] ^= 0x40
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, raw []byte) {
		tr := NewTailReader(bytes.NewReader(raw))
		for {
			fr, err := tr.Next()
			if err != nil {
				if err != io.EOF && !errors.Is(err, ErrTornFrame) {
					t.Fatalf("Next: %v, want io.EOF or ErrTornFrame", err)
				}
				return
			}
			enc, err := AppendTailFrame(nil, fr)
			if err != nil {
				t.Fatalf("decoded frame %+v does not encode: %v", fr, err)
			}
			if back, err := NewTailReader(bytes.NewReader(enc)).Next(); err != nil || back != fr {
				t.Fatalf("frame %+v round-trips to %+v (%v)", fr, back, err)
			}
		}
	})
}

// FuzzUnframeSnapshot: whatever the bytes, UnframeSnapshotBytes never
// panics, every error it returns is ErrCorruptSnapshot, and an input it
// accepts is exactly the framing of the payload it returns. Seeded with
// the cuts of TestFrameTruncation and byte flips like
// TestFrameDetectsEveryByteFlip's.
func FuzzUnframeSnapshot(f *testing.F) {
	framed := frameSnapshot([]byte("some payload bytes"))
	f.Add(framed)
	for _, n := range []int{len(framed) - 1, snapHeaderSize + 3, snapHeaderSize, 12, 0} {
		f.Add(framed[:n])
	}
	for _, i := range []int{8, 11, 12, 16, snapHeaderSize, len(framed) - 1} {
		flipped := append([]byte(nil), framed...)
		flipped[i] ^= 0x40
		f.Add(flipped)
	}

	f.Fuzz(func(t *testing.T, raw []byte) {
		payload, err := UnframeSnapshotBytes(raw)
		if err != nil {
			if !errors.Is(err, core.ErrCorruptSnapshot) {
				t.Fatalf("UnframeSnapshotBytes: %v, want ErrCorruptSnapshot", err)
			}
			return
		}
		if again := FrameSnapshotBytes(payload); !bytes.Equal(again, raw) {
			t.Fatalf("accepted %d bytes re-frame to %d different ones", len(raw), len(again))
		}
	})
}
