// Package logicblox is a from-scratch Go implementation of the LogicBlox
// system ("Design and Implementation of the LogicBlox System",
// SIGMOD 2015): a unified declarative database programming system built
// around LogiQL (a Datalog dialect), purely functional data structures,
// worst-case-optimal leapfrog triejoin query processing, incremental view
// maintenance, live programming, lock-free concurrency
// through transaction repair, and built-in prescriptive (LP/MIP) and
// predictive (ML) analytics.
//
// The public API re-exports the workspace/transaction surface. Open
// takes functional options configuring the root workspace:
//
//	db := logicblox.Open(logicblox.WithObs(logicblox.NewObsRegistry()))
//	ws, _ := db.Workspace(logicblox.DefaultBranch)
//	ws, _ = ws.AddBlock("schema", `
//	    profit[sku] = sellingPrice[sku] - buyingPrice[sku] <- Product(sku).`)
//	res, _ := ws.Exec(`+Product("eis"). +sellingPrice["eis"] = 3.0. +buyingPrice["eis"] = 1.0.`)
//	rows, _ := res.Workspace.Query(`_(p, v) <- profit[p] = v.`)
//	db.Commit(logicblox.DefaultBranch, res.Workspace)
//
// Every transaction method has a context-aware form (ExecCtx, QueryCtx,
// AddBlockCtx) whose deadline or cancellation is honored inside every
// join the engine runs — rules, constraints and streamed answers alike —
// within one binding. QueryStream runs a
// read-only query as a pull cursor (Next/Err/Close) that pipelines
// rows straight from the join iterators without materializing the
// result (a row stays valid until the next Next, so clone one to keep
// it); Query/QueryCtx drain the same cursor into a slice. Failures
// carry typed
// sentinel errors (ErrParse, ErrTypecheck, ErrConflict, ErrNoSuchBranch,
// ErrConstraint) matchable with errors.Is. cmd/lb-serve exposes the same
// surface over HTTP; see docs/server.md.
//
// Lower-level building blocks (the treap and relation substrates, the
// leapfrog triejoin, the incremental-maintenance strategies, transaction
// repair, and the LP/MIP solver) live in the internal packages and are
// exercised by the benchmark harness in bench_test.go and
// cmd/lb-experiments.
package logicblox

import (
	"io"

	"logicblox/internal/analysis/logiql"
	"logicblox/internal/core"
	"logicblox/internal/relation"
	"logicblox/internal/solver"
	"logicblox/internal/tuple"
)

// Database manages named branches of workspaces with O(1) branching and
// a time-travelable version history.
type Database = core.Database

// Workspace is one immutable version of the database: logic plus data.
type Workspace = core.Workspace

// ExecResult reports what an exec transaction changed.
type ExecResult = core.ExecResult

// ExecDelta is the per-predicate effect of an exec transaction.
type ExecDelta = core.ExecDelta

// VersionEntry records one committed workspace version.
type VersionEntry = core.VersionEntry

// Solution is the outcome of a prescriptive-analytics solve.
type Solution = solver.Solution

// CheckWarning is one advisory finding from the warning-tier LogiQL
// program checker (Workspace.CheckProgram, the REPL's :check command,
// and the server's POST /check): dead rules, unconsumed heads, singleton
// variables, duplicate/subsumed rules, unsatisfiable constraint bodies.
// Warnings never reject a program.
type CheckWarning = logiql.Warning

// Relation is an immutable set of tuples (persistent storage).
type Relation = relation.Relation

// Tuple is an ordered sequence of values.
type Tuple = tuple.Tuple

// Value is a scalar LogiQL value.
type Value = tuple.Value

// DefaultBranch is the branch created by Open.
const DefaultBranch = core.DefaultBranch

// Typed sentinel errors carried (via errors.Is) by every failure of the
// transaction surface. lb-serve maps them onto HTTP statuses (404, 409,
// 400, 422); embedders switch on them the same way instead of matching
// message strings.
var (
	// ErrNoSuchBranch marks operations naming an unknown branch or
	// version.
	ErrNoSuchBranch = core.ErrNoSuchBranch
	// ErrBranchExists marks branch creation over an existing name.
	ErrBranchExists = core.ErrBranchExists
	// ErrConflict marks an optimistic commit that lost its race
	// (Database.CommitIf) or a duplicate block install.
	ErrConflict = core.ErrConflict
	// ErrParse marks LogiQL syntax errors.
	ErrParse = core.ErrParse
	// ErrTypecheck marks semantic errors: type clashes, unbound head
	// variables, writes to derived predicates.
	ErrTypecheck = core.ErrTypecheck
	// ErrConstraint marks a transaction aborted by an integrity
	// constraint violation.
	ErrConstraint = core.ErrConstraint
	// ErrCorruptSnapshot marks a snapshot file or stream that fails
	// validation (bad checksum, truncation, undecodable state).
	ErrCorruptSnapshot = core.ErrCorruptSnapshot
	// ErrDurability marks a commit rejected because its journal append
	// failed; the in-memory state is untouched.
	ErrDurability = core.ErrDurability
)

// Option configures the root workspace of a database opened with Open;
// the configuration is inherited by every branch and version derived
// from it.
type Option = core.Option

// WithObs attaches a metrics registry to the workspace lineage: every
// transaction records per-rule profiles, phase spans and engine counters
// into reg.
func WithObs(reg *ObsRegistry) Option { return core.OptObserver(reg) }

// Open creates a database whose main branch starts from an empty
// workspace configured by the given options.
//
// The pre-option spelling — Open() followed by committing
// ws.WithObserver(reg) onto the branch — keeps working; the option is the
// preferred way to say the same thing at open time.
func Open(opts ...Option) *Database {
	ws := core.NewWorkspace()
	for _, opt := range opts {
		ws = opt(ws)
	}
	return core.NewDatabaseWith(ws)
}

// LoadDatabase restores a database from a snapshot written with
// Database.Save; derived predicates are re-materialized (there is no
// transaction log to replay — recovery is reloading the immutable state,
// paper T4).
func LoadDatabase(r io.Reader) (*Database, error) { return core.LoadDatabase(r) }

// NewWorkspace returns an empty standalone workspace (no logic, no data),
// for use without branch management.
func NewWorkspace() *Workspace { return core.NewWorkspace() }

// Value constructors, re-exported for building tuples programmatically.
var (
	Int     = tuple.Int
	Float   = tuple.Float
	String  = tuple.String
	Bool    = tuple.Bool
	Ints    = tuple.Ints
	Strings = tuple.Strings
	Of      = tuple.Of
)
