package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"time"

	"logicblox/internal/obs"
)

// TxOptions is the caller's policy for the transactions (exec, addblock)
// that Database.Apply runs. The zero value — no observer, no retries —
// is what journal replay and follower apply use.
type TxOptions struct {
	// Obs, when not nil, is the registry the transaction records into
	// instead of the branch head's own observer.
	Obs *obs.Registry
	// MaxRetries bounds the lost commit races a transaction survives
	// before ErrConflict surfaces; when it is positive an exec keeps the
	// repair record (paper §3.4) a retry uses.
	MaxRetries int
	// replay marks a journaled record re-applied by ApplyRecord.
	replay bool
}

// Applied reports what Database.Apply did. The counts are valid on error
// too.
type Applied struct {
	// Workspace is the transaction's resulting version of rec.Branch (the
	// unchanged head when the transaction was a no-op); nil for branch
	// operations.
	Workspace *Workspace
	// BaseDeltas lists an exec's insertions and deletions per base
	// predicate.
	BaseDeltas map[string]ExecDelta
	// Committed reports that a new version became the branch head.
	Committed bool
	// Retries counts the lost commit races the transaction survived,
	// split into those resolved by fine-grained repair and those that
	// re-executed in full.
	Retries, Repairs, FullReexecs int
	// CommitFailed marks an error that came from the commit step (races
	// exhausted, journal failure, branch deleted underneath) rather than
	// from running the transaction.
	CommitFailed bool
}

// Apply carries out one CommitRecord against the database: the one write
// path, shared by journal recovery, follower apply and the live HTTP
// handlers, and the only place a record kind is mapped to the calls that
// perform it. Branch operations (branch, branchat, delete, promote) are
// single pointer moves under the database lock. Transactions (exec,
// addblock) go through the optimistic-commit loop in transact.
func (db *Database) Apply(rctx context.Context, rec CommitRecord, opt TxOptions) (Applied, error) {
	switch rec.Kind {
	case "exec":
		return db.transact(rctx, rec, opt, func(ws *Workspace) (*ExecResult, *ExecRecord, error) {
			return ws.execCtx(rctx, rec.Src, opt.MaxRetries > 0)
		})
	case "addblock":
		return db.transact(rctx, rec, opt, func(ws *Workspace) (*ExecResult, *ExecRecord, error) {
			next, err := ws.AddBlockCtx(rctx, rec.Name, rec.Src)
			return &ExecResult{Workspace: next}, nil, err
		})
	case "branch":
		return Applied{}, db.Branch(rec.From, rec.To)
	case "branchat":
		return Applied{}, db.branchAt(rec.Version, rec.To, opt.replay)
	case "delete":
		return Applied{}, db.DeleteBranch(rec.To)
	case "promote":
		return Applied{}, db.Promote(rec.From, rec.To)
	default:
		return Applied{}, fmt.Errorf("unknown record kind %q", rec.Kind)
	}
}

// transact is the optimistic-commit loop (paper §3.4): snapshot the
// branch head, run the transaction on it, and compare-and-swap the result
// in, journaling rec write-ahead when a commit hook is installed. On a
// lost race an exec is repaired against the new head, at once the first
// time and after a backoff every later time; an addblock, or an exec
// whose logic changed under it, backs off and re-runs in full on a fresh
// snapshot.
func (db *Database) transact(rctx context.Context, rec CommitRecord, opt TxOptions, run func(*Workspace) (*ExecResult, *ExecRecord, error)) (Applied, error) {
	var out Applied
	observed := func(ws *Workspace) *Workspace {
		if opt.Obs != nil {
			return ws.WithObserver(opt.Obs)
		}
		return ws
	}
	var head, ws *Workspace // the snapshot, and the observed copy res ran on
	var res *ExecResult
	var xrec *ExecRecord
	execute := func() (err error) {
		if head, err = db.Workspace(rec.Branch); err != nil {
			return err
		}
		ws = observed(head)
		res, xrec, err = run(ws)
		return err
	}
	if err := execute(); err != nil {
		return out, err
	}
	for {
		var err error
		if res.Workspace != ws { // ws itself comes back when nothing changed
			err = db.CommitIfRecorded(rec.Branch, head, res.Workspace, rec)
			out.Committed = err == nil
		}
		if err == nil {
			out.Workspace, out.BaseDeltas = res.Workspace, res.BaseDeltas
			return out, nil
		}
		if !errors.Is(err, ErrConflict) || out.Retries >= opt.MaxRetries || rctx.Err() != nil {
			out.CommitFailed = true
			return out, err
		}
		out.Retries++
		if xrec != nil {
			if out.Retries > 1 {
				// A repeat loser backs off before it repairs again, or on
				// few cores it keeps losing to the same writers.
				BackoffConflict(rctx, out.Retries)
			}
			if newHead, werr := db.Workspace(rec.Branch); werr == nil && newHead != head {
				onto := observed(newHead)
				repaired, _, rerr := xrec.Repair(rctx, onto)
				if rerr == nil {
					out.Repairs++
					head, ws, res = newHead, onto, repaired
					continue
				}
				if !errors.Is(rerr, ErrRepairNotApplicable) {
					return out, rerr
				}
			}
		}
		out.FullReexecs++
		BackoffConflict(rctx, out.Retries)
		if err := execute(); err != nil {
			return out, err
		}
	}
}

// BackoffConflict sleeps before retry n (1-based) of a lost race — a
// re-execution, or any repair after the first: exponential from 2ms
// capped at 50ms, with full jitter so colliding writers desynchronize
// instead of re-colliding. It returns early if the transaction's context
// ends first.
func BackoffConflict(ctx context.Context, attempt int) {
	d := 2 * time.Millisecond << min(attempt-1, 5)
	if d > 50*time.Millisecond {
		d = 50 * time.Millisecond
	}
	d = time.Duration(rand.Int64N(int64(d))) + time.Millisecond
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

// ApplyRecord re-executes one journaled operation through the normal
// transaction path (recovery, paper T4 #5: derived state is re-computed,
// not restored). It must run before SetCommitHook installs a hook —
// replay must not re-journal itself — and records must be applied in
// ascending Seq order. After each record the database's sequence counter
// is pinned to rec.Seq so post-recovery commits continue the journal's
// numbering.
func (db *Database) ApplyRecord(rec CommitRecord) error {
	if _, err := db.Apply(context.Background(), rec, TxOptions{replay: true}); err != nil {
		return fmt.Errorf("replay seq %d (%s): %w", rec.Seq, rec.Kind, err)
	}
	db.mu.Lock()
	db.seq = rec.Seq
	db.mu.Unlock()
	return nil
}
