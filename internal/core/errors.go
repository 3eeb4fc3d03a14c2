package core

import "errors"

// Typed sentinel errors for the public transaction surface. Every error
// returned by Database and Workspace operations that corresponds to one
// of these conditions wraps the matching sentinel, so callers dispatch
// with errors.Is instead of string matching — the HTTP layer
// (internal/server) maps them onto status codes:
//
//	ErrNoSuchBranch → 404    ErrConflict, ErrBranchExists → 409
//	ErrParse        → 400    ErrTypecheck                 → 422
//	ErrConstraint   → 409    context.DeadlineExceeded     → 504
//	ErrVersionEvicted → 410
var (
	// ErrNoSuchBranch marks operations on a branch name that does not
	// exist (or a version index out of range).
	ErrNoSuchBranch = errors.New("no such branch")
	// ErrVersionEvicted marks a version index the database no longer
	// holds: older than the retained window of the latest commits, or,
	// for BranchAt, older than the newest snapshot, which recovery and
	// followers restart from.
	ErrVersionEvicted = errors.New("version evicted")
	// ErrBranchExists marks branch creation over an existing name.
	ErrBranchExists = errors.New("branch already exists")
	// ErrConflict marks an optimistic commit that lost the race: the
	// branch head moved since the transaction's snapshot was taken. It
	// also covers installing a block under a name already taken.
	ErrConflict = errors.New("conflict")
	// ErrParse marks LogiQL source that failed to parse.
	ErrParse = errors.New("parse error")
	// ErrTypecheck marks source that parsed but failed compilation
	// (arity mismatches, modifying derived predicates, bad directives).
	ErrTypecheck = errors.New("typecheck error")
	// ErrConstraint marks a transaction aborted by integrity-constraint
	// violations.
	ErrConstraint = errors.New("integrity constraint violation")
	// ErrCorruptSnapshot marks a snapshot that cannot be restored:
	// truncated or bit-flipped gob payloads, framed snapshot files whose
	// checksum does not match, and decoded snapshots whose contents fail
	// re-derivation. Recovery (internal/durable) falls back to the
	// previous snapshot generation on it; the HTTP layer maps it to 400.
	ErrCorruptSnapshot = errors.New("corrupt snapshot")
	// ErrSnapshotVersion marks a well-formed snapshot written in a payload
	// version this build does not read (a downgrade, or a newer build's
	// format). Unlike corruption it is not skipped: recovery stops with
	// it rather than fall back past the generation; the HTTP layer maps
	// it to 400.
	ErrSnapshotVersion = errors.New("unsupported snapshot version")
	// ErrDurability marks a commit rejected because its journal record
	// could not be made durable (the commit hook failed). The in-memory
	// state is unchanged: a commit that cannot be logged does not happen.
	ErrDurability = errors.New("durability failure")
	// ErrRepairNotApplicable marks a conflicted transaction whose record
	// cannot be repaired against the new head (paper §3.4): the logic or
	// a predicate arity changed under it, so its compiled program no
	// longer fits. It is the only decline; callers fall back to full
	// re-execution.
	ErrRepairNotApplicable = errors.New("repair not applicable")
)
