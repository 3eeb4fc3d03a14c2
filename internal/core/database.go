package core

import (
	"fmt"
	"sort"
	"sync"
)

// Database manages named branches of workspaces and the version history
// (paper §2.2.2 Branch/Delete-branch, §3.1). Because workspaces are
// immutable values over persistent structures, Branch is an O(1) pointer
// copy, commit is a pointer swap, and any retained historical version can
// itself be branched (time travel); the version graph is an arbitrary DAG.
//
// Versions are numbered by commit, from 0, and the numbers survive a
// snapshot restore. Only the last keepVersions of them stay in memory: a
// version older than that lives on only while a branch head or a reader
// still holds it, so the database's memory follows its data, not its
// commit count (paper §3.1: versions are garbage-collected).
type Database struct {
	mu       sync.RWMutex
	branches map[string]*Workspace
	// history holds the retained versions: version i, for i in
	// [lowest(), versions), is history[i%keepVersions].
	history [keepVersions]VersionEntry
	// versions counts the committed versions, the ones before a restore
	// included.
	versions int
	// restored is the version count the snapshot this database was
	// restored from was taken at: no version below it is in memory.
	restored int
	// snapFloor is the version count at the newest SaveSnapshot. A
	// recovery or a follower starts from such a snapshot and cannot
	// rebuild a version below it, so BranchAt refuses one.
	snapFloor int
	// seq numbers every state-changing operation; snapshots record it so
	// journal replay (internal/durable) knows where a snapshot ends.
	seq uint64
	// hook, when set, is invoked under the write lock before a recorded
	// mutation takes effect; an error vetoes the mutation (write-ahead
	// logging: a commit that cannot be journaled does not happen).
	hook CommitHook
}

// CommitRecord describes one recorded state-changing operation in enough
// detail to replay it through the normal transaction path (the paper's
// T4 #5 recovery story: re-deriving from logic + base deltas rather than
// restoring physical state). Kind is one of "exec", "addblock",
// "branch", "branchat", "delete", "promote".
type CommitRecord struct {
	// Seq is assigned by the database under the commit lock; it is
	// strictly increasing across all recorded operations.
	Seq    uint64
	Kind   string
	Branch string // transaction branch (exec, addblock)
	Name   string // block name (addblock)
	Src    string // LogiQL source (exec, addblock)
	From   string // source branch (branch, promote)
	To     string // target branch (branch, branchat, delete, promote)
	// Version is the history index for branchat.
	Version int
}

// CommitHook observes recorded mutations before they take effect,
// typically appending them to a durable journal. It runs under the
// database write lock, so implementations must not call back into the
// database; returning an error aborts the mutation.
type CommitHook func(CommitRecord) error

// SetCommitHook installs (or, with nil, removes) the commit hook.
func (db *Database) SetCommitHook(h CommitHook) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.hook = h
}

// Seq returns the sequence number of the last state-changing operation.
func (db *Database) Seq() uint64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.seq
}

// AlignSeq raises the sequence counter to at least min. Callers swapping
// one database for another under a shared journal (POST /load) use it so
// journal sequence numbers stay monotonic across the swap.
func (db *Database) AlignSeq(min uint64) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.seq < min {
		db.seq = min
	}
}

// logLocked assigns the next sequence number to rec and runs the commit
// hook. Callers hold db.mu. On hook failure the sequence number is
// consumed (gaps are fine — replay only needs monotonic order) and the
// caller must not apply the mutation.
func (db *Database) logLocked(rec *CommitRecord) error {
	db.seq++
	rec.Seq = db.seq
	if db.hook == nil {
		return nil
	}
	if err := db.hook(*rec); err != nil {
		return fmt.Errorf("%w: %v", ErrDurability, err)
	}
	return nil
}

// keepVersions is how many of the latest committed versions the history
// retains.
const keepVersions = 64

// lowest is the oldest retained version. Callers hold db.mu.
func (db *Database) lowest() int { return max(db.restored, db.versions-keepVersions) }

// appendVersion records the next committed version, dropping the oldest
// retained one once keepVersions are held. Callers hold db.mu.
func (db *Database) appendVersion(e VersionEntry) {
	db.history[db.versions%keepVersions] = e
	db.versions++
}

// versionLocked returns version i. Callers hold db.mu.
func (db *Database) versionLocked(i int) (VersionEntry, error) {
	switch {
	case i < 0 || i >= db.versions:
		return VersionEntry{}, fmt.Errorf("version %d out of range [0, %d): %w", i, db.versions, ErrNoSuchBranch)
	case i < db.lowest():
		return VersionEntry{}, fmt.Errorf("version %d, retained from %d: %w", i, db.lowest(), ErrVersionEvicted)
	}
	return db.history[i%keepVersions], nil
}

// VersionEntry records one committed workspace version.
type VersionEntry struct {
	Branch    string
	Workspace *Workspace
}

// DefaultBranch is the branch created by NewDatabase.
const DefaultBranch = "main"

// NewDatabase returns a database with an empty workspace on "main".
func NewDatabase() *Database { return NewDatabaseWith(NewWorkspace()) }

// NewDatabaseWith returns a database whose main branch starts at ws —
// the hook the functional options of logicblox.Open use to configure
// the root workspace (its observer) before the first commit.
func NewDatabaseWith(ws *Workspace) *Database {
	db := &Database{branches: map[string]*Workspace{DefaultBranch: ws}}
	db.appendVersion(VersionEntry{Branch: DefaultBranch, Workspace: ws})
	return db
}

// Workspace returns the current workspace of a branch.
func (db *Database) Workspace(branch string) (*Workspace, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	ws, ok := db.branches[branch]
	if !ok {
		return nil, fmt.Errorf("unknown branch %s: %w", branch, ErrNoSuchBranch)
	}
	return ws, nil
}

// Branch creates branch `to` as a copy of branch `from`. This is O(1):
// no data is copied (paper §3.1).
func (db *Database) Branch(from, to string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	src, ok := db.branches[from]
	if !ok {
		return fmt.Errorf("unknown branch %s: %w", from, ErrNoSuchBranch)
	}
	if _, exists := db.branches[to]; exists {
		return fmt.Errorf("branch %s: %w", to, ErrBranchExists)
	}
	if err := db.logLocked(&CommitRecord{Kind: "branch", From: from, To: to}); err != nil {
		return err
	}
	db.branches[to] = src
	return nil
}

// BranchAt creates a branch from a historical version index (time travel).
// A version below the retained window, or below the newest snapshot
// SaveSnapshot took, is ErrVersionEvicted: a recovery or a follower
// starts from that snapshot and could not rebuild the version.
func (db *Database) BranchAt(version int, to string) error {
	return db.branchAt(version, to, false)
}

// branchAt is BranchAt; a replayed record skips the snapshot check, since
// the record was accepted against the snapshots of the process that
// journaled it.
func (db *Database) branchAt(version int, to string, replay bool) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	v, err := db.versionLocked(version)
	if err != nil {
		return err
	}
	if !replay && version < db.snapFloor {
		return fmt.Errorf("version %d is older than the newest snapshot (version count %d), which a recovery restarts from: %w", version, db.snapFloor, ErrVersionEvicted)
	}
	if _, exists := db.branches[to]; exists {
		return fmt.Errorf("branch %s: %w", to, ErrBranchExists)
	}
	if err := db.logLocked(&CommitRecord{Kind: "branchat", Version: version, To: to}); err != nil {
		return err
	}
	db.branches[to] = v.Workspace
	return nil
}

// DeleteBranch drops a branch. Aborting all its work is just dropping the
// reference.
func (db *Database) DeleteBranch(name string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if name == DefaultBranch {
		return fmt.Errorf("cannot delete %s", DefaultBranch)
	}
	if _, ok := db.branches[name]; !ok {
		return fmt.Errorf("unknown branch %s: %w", name, ErrNoSuchBranch)
	}
	if err := db.logLocked(&CommitRecord{Kind: "delete", To: name}); err != nil {
		return err
	}
	delete(db.branches, name)
	return nil
}

// moveHead is the one commit primitive: under the write lock it looks the
// branch up, optionally requires its head to still be parent (the
// optimistic compare-and-swap), optionally journals rec through the
// commit hook (which assigns rec.Seq and may veto the commit), and only
// then swaps the head pointer and appends the version history. A nil ws
// means "the head of branch rec.From", read under the same lock (promote).
// Every way of moving a branch head is a thin caller of this.
func (db *Database) moveHead(branch string, compare bool, parent, ws *Workspace, rec *CommitRecord) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if ws == nil {
		var ok bool
		if ws, ok = db.branches[rec.From]; !ok {
			return fmt.Errorf("unknown branch %s: %w", rec.From, ErrNoSuchBranch)
		}
	}
	head, ok := db.branches[branch]
	if !ok {
		return fmt.Errorf("unknown branch %s: %w", branch, ErrNoSuchBranch)
	}
	if compare && head != parent {
		return fmt.Errorf("branch %s moved since snapshot: %w", branch, ErrConflict)
	}
	if rec == nil {
		db.seq++
	} else if err := db.logLocked(rec); err != nil {
		return err
	}
	db.branches[branch] = ws
	db.appendVersion(VersionEntry{Branch: branch, Workspace: ws})
	return nil
}

// Commit makes ws the new head of branch and records it in the history.
// Conceptually just a pointer swap (paper T4). Commit bypasses the
// commit hook — a workspace value carries no replayable request — so
// embedders running with a durability journal must use
// CommitIfRecorded (or Promote for pointer-swap merges) instead.
func (db *Database) Commit(branch string, ws *Workspace) error {
	return db.moveHead(branch, false, nil, ws, nil)
}

// Promote makes branch from's head the new head of branch to (a
// pointer-swap commit, e.g. merging an accepted what-if scenario back,
// paper §2.2.2). Unlike Commit it is fully described by its branch
// names, so it goes through the commit hook and is replayable.
func (db *Database) Promote(from, to string) error {
	return db.moveHead(to, false, nil, nil, &CommitRecord{Kind: "promote", From: from, To: to})
}

// CommitIf is the optimistic-concurrency commit (paper §3.4's snapshot
// model without the fine-grained repair): it makes ws the new head of
// branch only if the head is still parent — the snapshot the transaction
// executed against. If another transaction committed in between, it
// returns ErrConflict and the caller re-executes against the new head
// (coarse-grained repair) or surfaces the conflict. The compare-and-swap
// and the history append are atomic under the database lock. Like Commit
// it bypasses the commit hook.
func (db *Database) CommitIf(branch string, parent, ws *Workspace) error {
	return db.moveHead(branch, true, parent, ws, nil)
}

// CommitIfRecorded is CommitIf for callers running under a durability
// journal: rec describes the request (kind, source, block name) that
// produced ws, and — only if the compare-and-swap would succeed — is
// passed to the commit hook before the head moves. A hook failure
// rejects the commit with ErrDurability and leaves the branch untouched:
// the journal is strictly write-ahead of the in-memory state, so an
// acknowledged commit is always recoverable. With no hook installed it
// is exactly CommitIf. rec.Branch and rec.Seq are filled in here.
func (db *Database) CommitIfRecorded(branch string, parent, ws *Workspace, rec CommitRecord) error {
	rec.Branch = branch
	return db.moveHead(branch, true, parent, ws, &rec)
}

// Branches lists branch names.
func (db *Database) Branches() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, 0, len(db.branches))
	for b := range db.branches {
		out = append(out, b)
	}
	sort.Strings(out)
	return out
}

// Versions returns the number of committed versions, the ones no longer
// retained included.
func (db *Database) Versions() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.versions
}

// RetainedVersions returns the retained window [lo, hi) of version
// indices: the ones VersionAt answers.
func (db *Database) RetainedVersions() (lo, hi int) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.lowest(), db.versions
}

// VersionAt returns the i-th committed version. An index below the
// retained window is ErrVersionEvicted, one never committed
// ErrNoSuchBranch.
func (db *Database) VersionAt(i int) (VersionEntry, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.versionLocked(i)
}
