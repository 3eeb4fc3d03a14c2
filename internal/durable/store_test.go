package durable_test

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"logicblox/internal/core"
	"logicblox/internal/durable"
	"logicblox/internal/obs"
)

func freshDB() (*core.Database, error) { return core.NewDatabase(), nil }

// commitValue runs one recorded exec committing +p(v). on main and
// reports whether the commit was acknowledged.
func commitValue(db *core.Database, v int) error {
	src := fmt.Sprintf("+p(%d).", v)
	ws, err := db.Workspace(core.DefaultBranch)
	if err != nil {
		return err
	}
	res, err := ws.Exec(src)
	if err != nil {
		return err
	}
	return db.CommitIfRecorded(core.DefaultBranch, ws, res.Workspace, core.CommitRecord{Kind: "exec", Src: src})
}

func TestStoreRoundtrip(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	store, err := durable.Open(dir, durable.Options{Obs: reg, Generations: 2, CheckpointEvery: -1, CheckpointInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	db, err := store.Recover(freshDB)
	if err != nil {
		t.Fatal(err)
	}
	db.SetCommitHook(store.LogCommit)

	for v := 0; v < 5; v++ {
		if err := commitValue(db, v); err != nil {
			t.Fatalf("commit %d: %v", v, err)
		}
	}
	if err := store.Checkpoint(db.SaveSnapshot); err != nil {
		t.Fatal(err)
	}
	for v := 5; v < 9; v++ {
		if err := commitValue(db, v); err != nil {
			t.Fatalf("commit %d: %v", v, err)
		}
	}
	// Simulated kill: no Close, no final checkpoint.

	store2, err := durable.Open(dir, durable.Options{Obs: reg, Generations: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	db2, err := store2.Recover(freshDB)
	if err != nil {
		t.Fatal(err)
	}
	got := relationInts(t, db2)
	if want := []int{0, 1, 2, 3, 4, 5, 6, 7, 8}; !equalInts(got, want) {
		t.Fatalf("recovered p = %v, want %v", got, want)
	}
	st := store2.Stats()
	if st.JournalReplayed != 4 {
		t.Fatalf("JournalReplayed = %d, want 4 (stats %+v)", st.JournalReplayed, st)
	}
	if st.RecoveredSnapshotSeq == 0 || st.CorruptSkipped != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if db2.Seq() != st.LastSeq {
		t.Fatalf("db seq %d != store last seq %d", db2.Seq(), st.LastSeq)
	}
	if got := reg.Counter("durable.recoveries").Value(); got < 1 {
		t.Fatalf("durable.recoveries = %d", got)
	}
	if got := reg.Counter("durable.journal_replayed").Value(); got != 4 {
		t.Fatalf("durable.journal_replayed = %d", got)
	}
}

// The required fallback case: the newest snapshot generation is corrupt;
// recovery must skip it (typed, counted) and rebuild from the previous
// generation plus the longer journal tail — no acknowledged commit lost.
func TestRecoverSkipsCorruptNewestGeneration(t *testing.T) {
	dir := t.TempDir()
	store, err := durable.Open(dir, durable.Options{Generations: 3, CheckpointEvery: -1, CheckpointInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	db, err := store.Recover(freshDB)
	if err != nil {
		t.Fatal(err)
	}
	db.SetCommitHook(store.LogCommit)

	for v := 0; v < 3; v++ {
		if err := commitValue(db, v); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Checkpoint(db.SaveSnapshot); err != nil {
		t.Fatal(err)
	}
	for v := 3; v < 6; v++ {
		if err := commitValue(db, v); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Checkpoint(db.SaveSnapshot); err != nil {
		t.Fatal(err)
	}
	for v := 6; v < 8; v++ {
		if err := commitValue(db, v); err != nil {
			t.Fatal(err)
		}
	}

	// Corrupt the newest generation's payload on disk.
	gens := snapshotFiles(t, dir)
	if len(gens) != 2 {
		t.Fatalf("generations = %v, want 2", gens)
	}
	newest := gens[len(gens)-1]
	raw, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-10] ^= 0xff
	if err := os.WriteFile(newest, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	store2, err := durable.Open(dir, durable.Options{Generations: 3, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	db2, err := store2.Recover(freshDB)
	if err != nil {
		t.Fatal(err)
	}
	got := relationInts(t, db2)
	if want := []int{0, 1, 2, 3, 4, 5, 6, 7}; !equalInts(got, want) {
		t.Fatalf("recovered p = %v, want %v", got, want)
	}
	st := store2.Stats()
	if st.CorruptSkipped != 1 {
		t.Fatalf("CorruptSkipped = %d (stats %+v)", st.CorruptSkipped, st)
	}
	// Fell back to the first checkpoint (seq covers commits 0-2), so the
	// journal replayed commits 3-7.
	if st.JournalReplayed != 5 {
		t.Fatalf("JournalReplayed = %d, want 5 (stats %+v)", st.JournalReplayed, st)
	}
	if got := reg.Counter("durable.corrupt_skipped").Value(); got != 1 {
		t.Fatalf("durable.corrupt_skipped = %d", got)
	}
}

// A generation in a payload version this build cannot read is not
// corruption: Recover must stop with ErrSnapshotVersion instead of
// skipping it, since falling back past every generation would start from
// an empty database and replay a journal already truncated to the
// oldest one.
func TestRecoverStopsAtUnsupportedVersion(t *testing.T) {
	dir := t.TempDir()
	store, err := durable.Open(dir, durable.Options{Generations: 1, CheckpointEvery: -1, CheckpointInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	db, err := store.Recover(freshDB)
	if err != nil {
		t.Fatal(err)
	}
	db.SetCommitHook(store.LogCommit)
	for v := 0; v < 3; v++ {
		if err := commitValue(db, v); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Checkpoint(db.SaveSnapshot); err != nil {
		t.Fatal(err)
	}
	if err := commitValue(db, 3); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	// A well-framed generation of a future payload version.
	gens := snapshotFiles(t, dir)
	if len(gens) != 1 {
		t.Fatalf("generations = %v, want 1", gens)
	}
	future := struct {
		Version int
		Format  string
	}{99, "logicblox-snapshot-v99"}
	if err := durable.WriteSnapshotFile(nil, gens[0], func(w io.Writer) error {
		return gob.NewEncoder(w).Encode(future)
	}); err != nil {
		t.Fatal(err)
	}

	store2, err := durable.Open(dir, durable.Options{CheckpointEvery: -1, CheckpointInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	db2, err := store2.Recover(freshDB)
	if !errors.Is(err, core.ErrSnapshotVersion) {
		t.Fatalf("Recover over a version-99 generation: db = %v, err = %v, want ErrSnapshotVersion", db2, err)
	}
	if errors.Is(err, core.ErrCorruptSnapshot) {
		t.Fatalf("an unsupported version reads as corruption: %v", err)
	}
	if err := store2.Checkpoint(db.SaveSnapshot); err == nil {
		t.Fatal("Checkpoint after a failed Recover truncated the journal")
	}
}

// A transient journal-append failure must reject that commit with
// ErrDurability, leave the head untouched, and not poison later commits.
func TestJournalFailureVetoesCommit(t *testing.T) {
	dir := t.TempDir()
	store, err := durable.Open(dir, durable.Options{CheckpointEvery: -1, CheckpointInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	db, err := store.Recover(freshDB)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("disk on fire")
	fail := true
	db.SetCommitHook(func(rec core.CommitRecord) error {
		if fail {
			return boom
		}
		return store.LogCommit(rec)
	})
	err = commitValue(db, 1)
	if !errors.Is(err, core.ErrDurability) {
		t.Fatalf("commit under failing hook: %v, want ErrDurability", err)
	}
	if got := relationInts(t, db); len(got) != 0 {
		t.Fatalf("head moved despite vetoed commit: %v", got)
	}
	fail = false
	if err := commitValue(db, 2); err != nil {
		t.Fatal(err)
	}
	if got := relationInts(t, db); !equalInts(got, []int{2}) {
		t.Fatalf("p = %v, want [2]", got)
	}
}

// The background checkpointer folds commits into a snapshot generation.
func TestStoreBackgroundCheckpointer(t *testing.T) {
	dir := t.TempDir()
	store, err := durable.Open(dir, durable.Options{
		CheckpointEvery:    3,
		CheckpointInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	db, err := store.Recover(freshDB)
	if err != nil {
		t.Fatal(err)
	}
	db.SetCommitHook(store.LogCommit)
	store.Start(db.SaveSnapshot)
	defer store.Close()
	for v := 0; v < 4; v++ {
		if err := commitValue(db, v); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if store.Stats().Generations > 0 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("no checkpoint after CheckpointEvery commits: %+v", store.Stats())
}

func snapshotFiles(t *testing.T, dir string) []string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "snap-*.lbsnap"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(matches)
	return matches
}

func relationInts(t *testing.T, db *core.Database) []int {
	t.Helper()
	ws, err := db.Workspace(core.DefaultBranch)
	if err != nil {
		t.Fatal(err)
	}
	var out []int
	rows, err := ws.Query(`_(x) <- p(x).`)
	if err != nil {
		// p not yet defined: nothing committed.
		return nil
	}
	for _, row := range rows {
		out = append(out, int(row[0].AsInt()))
	}
	sort.Ints(out)
	return out
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
