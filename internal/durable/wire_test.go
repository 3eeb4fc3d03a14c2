package durable_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"
	"time"

	"logicblox/internal/core"
	"logicblox/internal/durable"
	"logicblox/internal/durable/faultfs"
)

func tailRec(seq uint64, src string) durable.TailFrame {
	return durable.TailFrame{Type: durable.FrameRecord, Rec: core.CommitRecord{
		Seq: seq, Kind: "exec", Branch: "main", Src: src,
	}}
}

func TestTailFrameRoundTrip(t *testing.T) {
	frames := []durable.TailFrame{
		{Type: durable.FrameHeartbeat, Head: 42, Floor: 7},
		tailRec(8, `+p(1).`),
		tailRec(9, `+p(2).`),
		{Type: durable.FrameHeartbeat, Head: 9, Floor: 7},
		{Type: durable.FrameEOS},
	}
	var buf bytes.Buffer
	for _, f := range frames {
		if err := durable.WriteTailFrame(&buf, f); err != nil {
			t.Fatalf("write: %v", err)
		}
	}
	tr := durable.NewTailReader(&buf)
	for i, want := range frames {
		got, err := tr.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Type != want.Type || got.Head != want.Head || got.Floor != want.Floor ||
			got.Rec.Seq != want.Rec.Seq || got.Rec.Src != want.Rec.Src {
			t.Fatalf("frame %d: got %+v, want %+v", i, got, want)
		}
	}
	if _, err := tr.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("after last frame: %v, want io.EOF", err)
	}
}

// The torn-frame regression (the follower-facing twin of the on-disk
// torn-write sweep): a stream cut at every possible byte offset inside
// the final frame must yield exactly the complete frames before the
// tear, then ErrTornFrame — never a bogus record, never a silent gap.
func TestTailReaderTornFinalFrame(t *testing.T) {
	var buf bytes.Buffer
	for seq := uint64(1); seq <= 3; seq++ {
		if err := durable.WriteTailFrame(&buf, tailRec(seq, `+p(1).`)); err != nil {
			t.Fatal(err)
		}
	}
	whole := buf.Bytes()
	// Find the start of the third frame by decoding two and measuring.
	var two bytes.Buffer
	durable.WriteTailFrame(&two, tailRec(1, `+p(1).`))
	durable.WriteTailFrame(&two, tailRec(2, `+p(1).`))
	start := two.Len()

	for cut := start + 1; cut < len(whole); cut++ {
		tr := durable.NewTailReader(bytes.NewReader(whole[:cut]))
		var got []uint64
		var err error
		for {
			var f durable.TailFrame
			f, err = tr.Next()
			if err != nil {
				break
			}
			got = append(got, f.Rec.Seq)
		}
		if !errors.Is(err, durable.ErrTornFrame) {
			t.Fatalf("cut at %d: err %v, want ErrTornFrame", cut, err)
		}
		if len(got) != 2 || got[0] != 1 || got[1] != 2 {
			t.Fatalf("cut at %d: decoded seqs %v, want [1 2]", cut, got)
		}
	}

	// A cut exactly at the frame boundary is a clean io.EOF: resumable,
	// not torn.
	tr := durable.NewTailReader(bytes.NewReader(whole[:start]))
	for i := 0; i < 2; i++ {
		if _, err := tr.Next(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tr.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("boundary cut: %v, want io.EOF", err)
	}
}

// A header declaring the largest allowed body, followed by nothing, is a
// torn frame — and costs the reader what arrived, not what was declared.
func TestTailReaderDeclaredLengthNotAllocated(t *testing.T) {
	hdr := make([]byte, 8)
	binary.BigEndian.PutUint32(hdr, 64<<20)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := durable.NewTailReader(bytes.NewReader(hdr)).Next()
	runtime.ReadMemStats(&after)
	if !errors.Is(err, durable.ErrTornFrame) {
		t.Fatalf("header only: %v, want ErrTornFrame", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Fatalf("reading an 8-byte stream allocated %d bytes", alloc)
	}
}

// A flipped bit inside a frame body must fail its checksum as a torn
// frame rather than decode.
func TestTailReaderCorruptFrame(t *testing.T) {
	var buf bytes.Buffer
	if err := durable.WriteTailFrame(&buf, tailRec(1, `+p(1).`)); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[len(raw)-2] ^= 0x40
	if _, err := durable.NewTailReader(bytes.NewReader(raw)).Next(); !errors.Is(err, durable.ErrTornFrame) {
		t.Fatalf("corrupt frame: %v, want ErrTornFrame", err)
	}
}

// openTailStore builds a recovered store + database over faultfs.
func openTailStore(t *testing.T, fs *faultfs.FS) (*durable.Store, *core.Database) {
	t.Helper()
	store, err := durable.Open("tail-data", durable.Options{FS: fs, Generations: 2, CheckpointEvery: -1, CheckpointInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	db, err := store.Recover(freshDB)
	if err != nil {
		t.Fatal(err)
	}
	db.SetCommitHook(store.LogCommit)
	return store, db
}

func TestTailSinceAndFloor(t *testing.T) {
	fs := faultfs.New()
	store, db := openTailStore(t, fs)
	defer store.Close()

	for v := 0; v < 6; v++ {
		if err := commitValue(db, v); err != nil {
			t.Fatal(err)
		}
	}
	recs, head, floor, err := store.TailSince(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 6 || floor != 0 || head != recs[5].Seq {
		t.Fatalf("TailSince(0): %d recs, head %d, floor %d", len(recs), head, floor)
	}
	mid := recs[2].Seq
	part, _, _, err := store.TailSince(mid)
	if err != nil {
		t.Fatal(err)
	}
	if len(part) != 3 || part[0].Seq != mid+1 {
		t.Fatalf("TailSince(%d): %d recs starting %d", mid, len(part), part[0].Seq)
	}

	// Checkpoint twice: with 2 retained generations, the second raises
	// the floor to the first checkpoint's seq and truncates below it.
	if err := store.Checkpoint(db.SaveSnapshot); err != nil {
		t.Fatal(err)
	}
	ck1 := db.Seq()
	for v := 6; v < 9; v++ {
		if err := commitValue(db, v); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Checkpoint(db.SaveSnapshot); err != nil {
		t.Fatal(err)
	}
	if got := store.Floor(); got != ck1 {
		t.Fatalf("floor after 2 checkpoints = %d, want %d", got, ck1)
	}
	if _, _, _, err := store.TailSince(ck1 - 1); !errors.Is(err, durable.ErrJournalTruncated) {
		t.Fatalf("TailSince below floor: %v, want ErrJournalTruncated", err)
	}
	if recs, _, _, err := store.TailSince(ck1); err != nil || len(recs) != 3 {
		t.Fatalf("TailSince(floor): %d recs, err %v", len(recs), err)
	}

	// The cursor survives reopen: a fresh Recover reseeds it.
	store.Close()
	store2, _ := openTailStore(t, fs)
	defer store2.Close()
	if recs, _, _, err := store2.TailSince(ck1); err != nil || len(recs) != 3 {
		t.Fatalf("reopened TailSince(floor): %d recs, err %v", len(recs), err)
	}
}

func TestWaitSeq(t *testing.T) {
	fs := faultfs.New()
	store, db := openTailStore(t, fs)
	defer store.Close()
	if err := commitValue(db, 0); err != nil {
		t.Fatal(err)
	}
	seq := db.Seq()

	// Already satisfied: returns immediately.
	if err := store.WaitSeq(context.Background(), seq-1); err != nil {
		t.Fatal(err)
	}

	// Blocks until the next commit lands.
	done := make(chan error, 1)
	go func() { done <- store.WaitSeq(context.Background(), seq) }()
	select {
	case err := <-done:
		t.Fatalf("WaitSeq returned early: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	if err := commitValue(db, 1); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("WaitSeq did not wake on commit")
	}

	// Context cancellation unblocks.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := store.WaitSeq(ctx, db.Seq()); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("WaitSeq ctx: %v", err)
	}

	// Close unblocks with ErrClosed.
	go func() { done <- store.WaitSeq(context.Background(), db.Seq()) }()
	time.Sleep(10 * time.Millisecond)
	store.Close()
	select {
	case err := <-done:
		if !errors.Is(err, durable.ErrClosed) {
			t.Fatalf("WaitSeq after close: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("WaitSeq did not wake on close")
	}
}
