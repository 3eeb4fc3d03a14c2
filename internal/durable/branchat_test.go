package durable_test

import (
	"bytes"
	"errors"
	"path/filepath"
	"testing"

	"logicblox/internal/core"
	"logicblox/internal/durable"
)

// pValues returns the ints of p on branch of db.
func pValues(t *testing.T, db *core.Database, branch string) []int64 {
	t.Helper()
	ws, err := db.Workspace(branch)
	if err != nil {
		t.Fatal(err)
	}
	var out []int64
	for _, tup := range ws.Relation("p").Slice() {
		out = append(out, tup[0].AsInt())
	}
	return out
}

// branchAtAfterCheckpoint commits 6 values, checkpoints, commits 2 more
// and branches "past" at version 7, the first commit after the
// checkpoint: version numbers count commits, from the empty main at 0.
func branchAtAfterCheckpoint(t *testing.T) (*durable.Store, *core.Database, string) {
	t.Helper()
	dir := t.TempDir()
	store, err := durable.Open(dir, durable.Options{CheckpointEvery: -1, CheckpointInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	db, err := store.Recover(freshDB)
	if err != nil {
		t.Fatal(err)
	}
	db.SetCommitHook(store.LogCommit)
	for v := 0; v < 6; v++ {
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
	if err := db.BranchAt(7, "past"); err != nil {
		t.Fatal(err)
	}
	return store, db, dir
}

// TestBranchAtSurvivesRestart: a branchat journaled after a checkpoint
// names a version number that a recovery from that checkpoint rebuilds,
// so the recovered "past" is the version the primary branched.
func TestBranchAtSurvivesRestart(t *testing.T) {
	_, db, dir := branchAtAfterCheckpoint(t)
	want := pValues(t, db, "past")
	if len(want) != 7 {
		t.Fatalf("version 7 holds %v, want the first 7 values", want)
	}
	store2, err := durable.Open(dir, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	db2, err := store2.Recover(freshDB)
	if err != nil {
		t.Fatal(err)
	}
	if got := pValues(t, db2, "past"); !equalInt64s(got, want) {
		t.Fatalf("recovered past = %v, want %v", got, want)
	}
	if got, want := db2.Versions(), db.Versions(); got != want {
		t.Fatalf("recovered %d versions, want %d", got, want)
	}
}

// TestBranchAtFollowerFromSnapshot: a follower that starts from a
// snapshot and applies the journal after it numbers versions as the
// primary does, so it branches "past" at the same version.
func TestBranchAtFollowerFromSnapshot(t *testing.T) {
	store, db, dir := branchAtAfterCheckpoint(t)
	defer store.Close()
	gens, err := filepath.Glob(filepath.Join(dir, "snap-*"))
	if err != nil || len(gens) != 1 {
		t.Fatalf("generations %v: %v", gens, err)
	}
	payload, err := durable.ReadSnapshotFile(durable.OS, gens[0])
	if err != nil {
		t.Fatal(err)
	}
	fol, err := core.LoadDatabase(bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	recs, _, _, err := store.TailSince(store.Floor())
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := fol.ApplyRecord(rec); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := pValues(t, fol, "past"), pValues(t, db, "past"); !equalInt64s(got, want) {
		t.Fatalf("follower past = %v, want %v", got, want)
	}
}

// TestBranchAtRefusedBelowSnapshot: a version older than the newest
// snapshot is refused before it is journaled, since a recovery from that
// snapshot could not rebuild it.
func TestBranchAtRefusedBelowSnapshot(t *testing.T) {
	store, db, _ := branchAtAfterCheckpoint(t)
	defer store.Close()
	last := store.Stats().LastSeq
	if err := db.BranchAt(5, "older"); !errors.Is(err, core.ErrVersionEvicted) {
		t.Fatalf("BranchAt below the snapshot: %v, want ErrVersionEvicted", err)
	}
	if got := store.Stats().LastSeq; got != last {
		t.Fatalf("refused branchat was journaled: last seq %d, want %d", got, last)
	}
}

func equalInt64s(a, b []int64) bool {
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
