package durable_test

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"logicblox/internal/core"
	"logicblox/internal/durable"
	"logicblox/internal/durable/faultfs"
)

// The crash-recovery property test. One workload — a block install, a
// stream of recorded exec commits, periodic checkpoints (which rotate
// snapshot generations and truncate the journal) — runs against the
// fault-injection filesystem. A fault-free probe run counts the
// filesystem operations; then the workload is re-run crashing at every
// single operation index, recovery runs over the surviving state, and
// the recovered database must contain exactly the acknowledged commits:
// none lost (durability), none invented (no phantoms).

const (
	crashCommits    = 10
	crashCheckpoint = 3 // checkpoint every 3rd commit: rotation under fire
	crashDataDir    = "data"
)

type workloadResult struct {
	ackedBlock bool  // the addblock commit was acknowledged
	acked      []int // values whose exec commit was acknowledged
	attempted  []int // values whose exec commit was attempted, in order
	// served is every record the store's tail cursor handed out, polled
	// after each commit as a follower would poll GET /journal/tail.
	served []core.CommitRecord
	// checkpointFailed is set when a Checkpoint returned an error.
	checkpointFailed bool
}

// runCrashWorkload drives the workload until the filesystem gives out.
// Every error is tolerated — after the crash point fires, everything
// fails — and only acknowledged commits are recorded.
func runCrashWorkload(fs *faultfs.FS) workloadResult {
	return runWorkload(fs, crashCheckpoint)
}

// runWorkload is runCrashWorkload with a checkpoint after every
// checkpointEvery-th commit; 0 never checkpoints, so the journal is only
// ever appended to and every record stays in it.
func runWorkload(fs *faultfs.FS, checkpointEvery int) workloadResult {
	var res workloadResult
	opts := durable.Options{FS: fs, Generations: 2, CheckpointEvery: -1, CheckpointInterval: -1}
	store, err := durable.Open(crashDataDir, opts)
	if err != nil {
		return res
	}
	db, err := store.Recover(freshDB)
	if err != nil {
		return res
	}
	db.SetCommitHook(store.LogCommit)
	poll := func() {
		from := uint64(0)
		if n := len(res.served); n > 0 {
			from = res.served[n-1].Seq
		}
		if recs, _, _, err := store.TailSince(from); err == nil {
			res.served = append(res.served, recs...)
		}
	}

	ws, err := db.Workspace(core.DefaultBranch)
	if err != nil {
		return res
	}
	const blockSrc = `q(x, y) <- p(x), p(y), x < y.`
	next, err := ws.AddBlock("views", blockSrc)
	if err == nil {
		if db.CommitIfRecorded(core.DefaultBranch, ws, next, core.CommitRecord{Kind: "addblock", Name: "views", Src: blockSrc}) == nil {
			res.ackedBlock = true
		}
	}
	poll()

	for v := 0; v < crashCommits; v++ {
		res.attempted = append(res.attempted, v)
		if commitValue(db, v) == nil {
			res.acked = append(res.acked, v)
		}
		poll()
		if checkpointEvery > 0 && (v+1)%checkpointEvery == 0 {
			// A failed checkpoint must never lose journaled commits
			// (that is part of the property), so the workload goes on.
			if store.Checkpoint(db.SaveSnapshot) != nil {
				res.checkpointFailed = true
			}
		}
	}
	return res
}

// recoverAfterCrash reopens the directory post-crash and recovers.
func recoverAfterCrash(t *testing.T, fs *faultfs.FS) *core.Database {
	t.Helper()
	_, db := recoverStore(t, fs)
	return db
}

func recoverStore(t *testing.T, fs *faultfs.FS) (*durable.Store, *core.Database) {
	t.Helper()
	store, err := durable.Open(crashDataDir, durable.Options{FS: fs, Generations: 2})
	if err != nil {
		t.Fatalf("post-crash Open: %v", err)
	}
	db, err := store.Recover(freshDB)
	if err != nil {
		t.Fatalf("post-crash Recover: %v", err)
	}
	return store, db
}

func TestCrashRecoveryEveryPoint(t *testing.T) {
	probe := faultfs.New()
	full := runCrashWorkload(probe)
	total := probe.Ops()
	if len(full.acked) != crashCommits || !full.ackedBlock {
		t.Fatalf("fault-free run acked %d/%d commits (block %v)", len(full.acked), crashCommits, full.ackedBlock)
	}
	if total < 50 {
		t.Fatalf("workload performed only %d fs operations; crash sweep would be trivial", total)
	}

	for point := 1; point <= total; point++ {
		fs := faultfs.New()
		fs.SetCrashAt(point)
		res := runCrashWorkload(fs)
		fs.Crash()
		db := recoverAfterCrash(t, fs)
		got := relationInts(t, db)
		if !equalInts(got, res.acked) {
			t.Fatalf("crash at op %d: recovered %v, acked %v", point, got, res.acked)
		}
		// The derived view must have been re-derived over the recovered
		// base data (replay goes through the normal transaction path).
		if res.ackedBlock && len(res.acked) >= 2 {
			ws, err := db.Workspace(core.DefaultBranch)
			if err != nil {
				t.Fatal(err)
			}
			n := len(res.acked)
			if q := ws.Relation("q"); q.Len() != n*(n-1)/2 {
				t.Fatalf("crash at op %d: derived q has %d tuples, want %d", point, q.Len(), n*(n-1)/2)
			}
		}
	}
}

// Torn-write mode: at a random crash point, unsynced appends may persist
// a partial prefix and unsynced directory entries may or may not
// survive. Acknowledged commits must all survive (they were fsynced);
// beyond them, at most the single commit that was in flight at the
// crash may surface — never anything else, and never a gap.
func TestCrashRecoveryTornWrites(t *testing.T) {
	probe := faultfs.New()
	runCrashWorkload(probe)
	total := probe.Ops()
	rng := rand.New(rand.NewSource(42))

	for trial := 0; trial < 60; trial++ {
		point := 1 + rng.Intn(total)
		fs := faultfs.New()
		fs.SetCrashAt(point)
		res := runCrashWorkload(fs)
		fs.CrashTorn(rng)
		db := recoverAfterCrash(t, fs)
		got := relationInts(t, db)

		// got must be a contiguous prefix 0..k-1 of the attempted values
		// with len(acked) <= k <= len(acked)+1.
		for i, v := range got {
			if v != i {
				t.Fatalf("crash at op %d (trial %d): recovered %v has a gap", point, trial, got)
			}
		}
		if len(got) < len(res.acked) || len(got) > len(res.acked)+1 {
			t.Fatalf("crash at op %d (trial %d): recovered %v, acked %v — lost or phantom commits",
				point, trial, got, res.acked)
		}
	}
}

// Crashes during recovery itself (the journal-tail rewrite after a torn
// append) must not lose acknowledged commits either: recover, crash the
// recovery, recover again.
func TestCrashDuringRecovery(t *testing.T) {
	fs := faultfs.New()
	fs.SetCrashAt(55) // somewhere mid-workload
	res := runCrashWorkload(fs)
	fs.Crash()

	for point := 1; point <= 12; point++ {
		fs2 := faultfs.New()
		fs2.SetCrashAt(55)
		res2 := runCrashWorkload(fs2)
		fs2.Crash()
		if !equalInts(res2.acked, res.acked) {
			t.Fatalf("workload not deterministic: %v vs %v", res2.acked, res.acked)
		}
		fs2.SetCrashAt(point)
		store, err := durable.Open(crashDataDir, durable.Options{FS: fs2, Generations: 2})
		if err == nil {
			db, rerr := store.Recover(freshDB)
			if rerr == nil {
				// Recovery finished before the crash point fired; the
				// result must already be correct.
				if got := relationInts(t, db); !equalInts(got, res.acked) {
					t.Fatalf("recovery crash point %d: recovered %v, acked %v", point, got, res.acked)
				}
			}
		}
		fs2.Crash()
		db := recoverAfterCrash(t, fs2)
		if got := relationInts(t, db); !equalInts(got, res.acked) {
			t.Fatalf("second recovery after crash point %d: recovered %v, acked %v", point, got, res.acked)
		}
	}
}

// Short writes and transient errors reject the affected commit cleanly;
// the store keeps accepting commits afterwards and recovery stays exact.
// A fault is injected at every filesystem operation of the workload, with
// and without checkpoints (a checkpoint rewrites the journal, which would
// otherwise mask damage an earlier failed append left in it). After each
// run the machine crashes: the recovered data must be exactly the acked
// commits, and every record the tail cursor served a follower must have
// survived under the sequence number it was served with.
func TestTransientFaults(t *testing.T) {
	arms := []struct {
		name   string
		inject func(*faultfs.FS, int)
	}{
		{"error", func(fs *faultfs.FS, op int) { fs.FailAt(op, fmt.Errorf("transient io error")) }},
		{"short-write", func(fs *faultfs.FS, op int) { fs.ShortWriteAt(op) }},
	}
	modes := []struct {
		name            string
		checkpointEvery int
	}{
		{"checkpointed", crashCheckpoint},
		{"checkpoint-free", 0},
	}
	for _, arm := range arms {
		t.Run(arm.name, func(t *testing.T) {
			for _, mode := range modes {
				t.Run(mode.name, func(t *testing.T) {
					probe := faultfs.New()
					runWorkload(probe, mode.checkpointEvery)
					total := probe.Ops()
					for point := 1; point <= total; point++ {
						fs := faultfs.New()
						arm.inject(fs, point)
						res := runWorkload(fs, mode.checkpointEvery)
						if rejected := len(res.attempted) - len(res.acked); rejected > 2 {
							t.Errorf("fault at op %d rejected %d commits, want at most 2", point, rejected)
						}
						// The one fault was spent in the checkpoint, whose
						// failed journal rewrite is repaired before the next
						// append: no commit may pay for it.
						if res.checkpointFailed && len(res.acked) < len(res.attempted) {
							t.Errorf("fault at op %d failed a checkpoint and rejected a commit", point)
						}
						fs.Crash()
						store, db := recoverStore(t, fs)
						got := relationInts(t, db)
						if !equalInts(got, res.acked) {
							t.Errorf("fault at op %d: recovered %v, acked %v", point, got, res.acked)
						} else if err := checkServed(res.served, store, got); err != nil {
							t.Errorf("fault at op %d: %v", point, err)
						}
					}
				})
			}
		})
	}
}

// checkServed reports the first record served before the crash that did
// not survive it: its value must be recovered, and a record above the
// recovered store's floor must still be in the tail under the sequence
// number it was served with.
func checkServed(served []core.CommitRecord, store *durable.Store, got []int) error {
	floor := store.Floor()
	tail, _, _, err := store.TailSince(floor)
	if err != nil {
		return fmt.Errorf("post-crash TailSince: %w", err)
	}
	bySeq := make(map[uint64]core.CommitRecord, len(tail))
	for _, rec := range tail {
		bySeq[rec.Seq] = rec
	}
	for _, rec := range served {
		var v int
		if _, err := fmt.Sscanf(rec.Src, "+p(%d).", &v); err == nil && !slices.Contains(got, v) {
			return fmt.Errorf("served seq %d %q was not recovered", rec.Seq, rec.Src)
		}
		if rec.Seq <= floor {
			continue
		}
		if kept, ok := bySeq[rec.Seq]; !ok || kept.Kind != rec.Kind || kept.Src != rec.Src {
			return fmt.Errorf("served seq %d %s %q, recovered tail holds %+v", rec.Seq, rec.Kind, rec.Src, kept)
		}
	}
	return nil
}

// A short write tears the journal on a full disk: every operation after
// it fails for a while, the repairs included. Each commit until a repair
// succeeds is rejected with ErrDurability and appends nothing behind the
// torn frame; then commits are accepted again, and after a crash
// recovery holds exactly the acked commits.
func TestJournalRepairAfterFailedWrite(t *testing.T) {
	const (
		tearAt    = 8  // the second commit's frame (after Open's 5 ops and one commit)
		lastFault = 30 // the disk is full until this op
	)
	fs := faultfs.New()
	fs.ShortWriteAt(tearAt)
	for op := tearAt + 1; op <= lastFault; op++ {
		fs.FailAt(op, fmt.Errorf("no space left on device"))
	}
	store, err := durable.Open(crashDataDir, durable.Options{FS: fs, CheckpointEvery: -1, CheckpointInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	db, err := store.Recover(freshDB)
	if err != nil {
		t.Fatal(err)
	}
	db.SetCommitHook(store.LogCommit)
	var acked []int
	rejected := 0
	for v := 0; len(acked) < 6 && v < 100; v++ {
		faultsDone := fs.Ops() >= lastFault
		err := commitValue(db, v)
		if err == nil {
			acked = append(acked, v)
			continue
		}
		if !errors.Is(err, core.ErrDurability) {
			t.Fatalf("commit %d: %v, want ErrDurability", v, err)
		}
		if faultsDone {
			t.Fatalf("commit %d rejected after the faults ended: %v", v, err)
		}
		rejected++
	}
	if rejected < 2 || len(acked) < 6 {
		t.Fatalf("acked %v with %d rejected; want commits rejected until a repair succeeds and accepted after", acked, rejected)
	}
	fs.Crash()
	if got := relationInts(t, recoverAfterCrash(t, fs)); !equalInts(got, acked) {
		t.Fatalf("recovered %v, acked %v", got, acked)
	}
}
