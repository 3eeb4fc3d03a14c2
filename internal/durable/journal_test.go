package durable

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"logicblox/internal/core"
)

func testRecord(seq uint64) core.CommitRecord {
	return core.CommitRecord{Seq: seq, Kind: "exec", Branch: "main", Src: "+p(1)."}
}

func openTestJournal(t *testing.T, dir string) *journal {
	t.Helper()
	j := &journal{fsys: OS, dir: dir}
	if err := j.open(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.close() })
	return j
}

func TestJournalAppendLoad(t *testing.T) {
	dir := t.TempDir()
	j := openTestJournal(t, dir)
	for seq := uint64(1); seq <= 5; seq++ {
		if err := j.append(testRecord(seq), true); err != nil {
			t.Fatal(err)
		}
	}
	recs, torn, err := j.load()
	if err != nil || torn {
		t.Fatalf("load: torn=%v err=%v", torn, err)
	}
	if len(recs) != 5 {
		t.Fatalf("len(recs) = %d, want 5", len(recs))
	}
	for i, rec := range recs {
		if rec.Seq != uint64(i+1) || rec.Kind != "exec" || rec.Src != "+p(1)." {
			t.Fatalf("recs[%d] = %+v", i, rec)
		}
	}
}

// A torn tail — the file ends mid-frame — must invalidate only the torn
// record: the prefix replays, torn is reported.
func TestJournalTornTail(t *testing.T) {
	dir := t.TempDir()
	j := openTestJournal(t, dir)
	for seq := uint64(1); seq <= 3; seq++ {
		if err := j.append(testRecord(seq), true); err != nil {
			t.Fatal(err)
		}
	}
	j.close()
	path := filepath.Join(dir, journalName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < 40; cut += 7 {
		if err := os.WriteFile(path, raw[:len(raw)-cut], 0o644); err != nil {
			t.Fatal(err)
		}
		recs, torn := readJournalFile(t, path)
		if !torn {
			t.Fatalf("cut %d: tear not detected", cut)
		}
		if len(recs) > 2 {
			t.Fatalf("cut %d: replayed %d records past the tear", cut, len(recs))
		}
		for i, rec := range recs {
			if rec.Seq != uint64(i+1) {
				t.Fatalf("cut %d: recs[%d].Seq = %d", cut, i, rec.Seq)
			}
		}
	}
	// A bit flip inside a record's frame is also a tear at that record.
	mut := append([]byte(nil), raw...)
	mut[len(journalMagic)+10] ^= 0x01
	if err := os.WriteFile(path, mut, 0o644); err != nil {
		t.Fatal(err)
	}
	recs, torn := readJournalFile(t, path)
	if !torn || len(recs) != 0 {
		t.Fatalf("bit flip in first record: recs=%d torn=%v", len(recs), torn)
	}
}

func readJournalFile(t *testing.T, path string) ([]core.CommitRecord, bool) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return readJournal(raw)
}

// rewrite truncates atomically and the journal accepts appends after it.
func TestJournalRewriteThenAppend(t *testing.T) {
	dir := t.TempDir()
	j := openTestJournal(t, dir)
	for seq := uint64(1); seq <= 4; seq++ {
		if err := j.append(testRecord(seq), true); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.rewrite([]core.CommitRecord{testRecord(3), testRecord(4)}); err != nil {
		t.Fatal(err)
	}
	if err := j.append(testRecord(5), true); err != nil {
		t.Fatal(err)
	}
	recs, torn, err := j.load()
	if err != nil || torn {
		t.Fatalf("load: torn=%v err=%v", torn, err)
	}
	if len(recs) != 3 || recs[0].Seq != 3 || recs[2].Seq != 5 {
		t.Fatalf("recs = %+v", recs)
	}
}

// An empty or missing journal is zero records, not an error.
func TestJournalMissing(t *testing.T) {
	j := &journal{fsys: OS, dir: t.TempDir()}
	recs, torn, err := j.load()
	if err != nil || torn || len(recs) != 0 {
		t.Fatalf("load on missing journal: recs=%d torn=%v err=%v", len(recs), torn, err)
	}
}

// Checkpoint rewrites the journal from the in-memory tail: after
// Open → Recover → commits → checkpoints, the file holds exactly the
// records above the oldest retained generation, and they are the tail.
// Before Recover there is no tail to truncate from, so Checkpoint fails
// and leaves the journal alone.
func TestCheckpointTruncatesFromTail(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Generations: 2, CheckpointEvery: -1, CheckpointInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	db := core.NewDatabase()
	if err := s.Checkpoint(db.SaveSnapshot); err == nil {
		t.Fatal("Checkpoint before Recover succeeded")
	}
	if db, err = s.Recover(func() (*core.Database, error) { return db, nil }); err != nil {
		t.Fatal(err)
	}
	db.SetCommitHook(s.LogCommit)
	commit := func(n int) {
		for i := 0; i < n; i++ {
			ws, err := db.Workspace(core.DefaultBranch)
			if err != nil {
				t.Fatal(err)
			}
			src := fmt.Sprintf("+p(%d).", db.Seq())
			res, err := ws.Exec(src)
			if err != nil {
				t.Fatal(err)
			}
			if err := db.CommitIfRecorded(core.DefaultBranch, ws, res.Workspace, core.CommitRecord{Kind: "exec", Src: src}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for round := 0; round < 4; round++ {
		commit(5)
		if err := s.Checkpoint(db.SaveSnapshot); err != nil {
			t.Fatal(err)
		}
		commit(3)
		raw, err := os.ReadFile(filepath.Join(dir, journalName))
		if err != nil {
			t.Fatal(err)
		}
		recs, torn := readJournal(raw)
		floor := s.Floor()
		if torn || len(recs) == 0 || recs[0].Seq != floor+1 || recs[len(recs)-1].Seq != db.Seq() {
			t.Fatalf("round %d: journal holds %d records (torn %v), want seqs %d..%d", round, len(recs), torn, floor+1, db.Seq())
		}
		tail, _, _, err := s.TailSince(floor)
		if err != nil {
			t.Fatal(err)
		}
		if len(tail) != len(recs) {
			t.Fatalf("round %d: journal holds %d records, tail %d", round, len(recs), len(tail))
		}
		for i := range recs {
			if recs[i] != tail[i] || i > 0 && recs[i].Seq != recs[i-1].Seq+1 {
				t.Fatalf("round %d: journal record %d = %+v, tail %+v", round, i, recs[i], tail[i])
			}
		}
	}
}
