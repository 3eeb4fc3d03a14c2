package core

import (
	"context"
	"fmt"
	"slices"

	"logicblox/internal/compiler"
	"logicblox/internal/engine"
	"logicblox/internal/obs"
	"logicblox/internal/parser"
	"logicblox/internal/relation"
	"logicblox/internal/tuple"
)

// Cursor is a pull cursor over a query's answer tuples, in the exact
// order (and with the exact set semantics) that Query returns them:
// lexicographically sorted, duplicates removed. For streaming-eligible
// programs the tuples are pipelined one at a time out of the LFTJ join
// iterators without ever materializing the answer relation; otherwise an
// internal materialized cursor serves the same sequence, so the API is
// total. A Cursor holds the branch snapshot (and, on the fast path, open
// trie iterators) until Close — always Close it, on every path.
type Cursor struct {
	rctx     context.Context
	sp       *obs.Span   // transaction span; ended by done
	esp      *obs.Span   // eval span held open while streaming (nil when materialized)
	done     func(error) // records tx.<kind>.commit/.abort; set by the opener
	rc       *engine.RuleCursor
	mat      *relation.Cursor
	prev     tuple.Tuple // last emitted tuple, for adjacent dedup (fast path)
	cur      tuple.Tuple // the head being projected; swaps with prev
	hint     int         // result-size hint (fallback path: exact)
	rows     int64
	err      error
	streamed bool
	closed   bool
}

// Next returns the next answer tuple; ok=false means exhaustion or error
// (check Err after the loop). Tuples are yielded in ascending
// lexicographic order with no duplicates — byte-identical to the sequence
// Query would return. Like bufio.Scanner.Bytes, the tuple stays valid
// only until the next call to Next or Close, and is read-only: a
// streamed cursor projects every row into a buffer it owns, so a caller
// that keeps a row must Clone it.
func (c *Cursor) Next() (t tuple.Tuple, ok bool) {
	if c.closed || c.err != nil {
		return nil, false
	}
	if c.mat != nil {
		t, ok := c.mat.Next()
		if !ok {
			return nil, false
		}
		c.rows++
		return t, true
	}
	for c.rc.NextInto(c.cur) {
		// The streaming plan enumerates the head variables first (its
		// single-valued constants among them), so the projected heads
		// arrive sorted and duplicates are adjacent.
		if c.rows > 0 && c.prev.Equal(c.cur) {
			continue
		}
		c.prev, c.cur = c.cur, c.prev
		c.rows++
		return c.prev, true
	}
	c.err = c.rc.Err()
	return nil, false
}

// Err returns the first error the cursor hit (nil after clean
// exhaustion). Cancellation of the context passed to QueryStream
// surfaces here.
func (c *Cursor) Err() error { return c.err }

// Rows returns the number of answer tuples yielded so far.
func (c *Cursor) Rows() int64 { return c.rows }

// Streamed reports whether answers are pipelined straight out of the
// join iterators (true) or served from the "_" relation the stratum walk
// materialized (false: an answer rule that aggregates, predicts,
// computes a head column or is read by a rule or a constraint, or
// several "_" rules — an installed one among them).
func (c *Cursor) Streamed() bool { return c.streamed }

// Close releases the cursor: join iterators unwound, spans ended, the
// transaction outcome recorded (abort when the cursor erred or its
// context was cancelled — e.g. a client disconnect mid-stream).
// Idempotent; safe on every path.
func (c *Cursor) Close() {
	if c.closed {
		return
	}
	c.closed = true
	if c.rc != nil {
		c.rc.Close()
	}
	err := c.err
	if err == nil && c.rctx != nil {
		err = c.rctx.Err()
	}
	if c.esp != nil {
		c.esp.End()
	}
	if c.sp != nil {
		c.sp.SetAttr("answers", c.rows)
		if c.streamed {
			c.sp.SetAttr("streamed", 1)
		}
	}
	if c.done != nil {
		c.done(err)
	}
}

// QueryStream runs a read-only query transaction as a pull cursor: src
// is a program with a designated answer predicate "_" (plus auxiliary
// rules), exactly as for Query. Its rules settle up front as a transient
// addblock's would; the answer rule itself is pipelined when the program
// shape allows (see Cursor.Streamed). The transaction's span kind is
// tx.query.stream, and its commit/abort is recorded when the cursor is
// Closed — not when this call returns.
func (ws *Workspace) QueryStream(rctx context.Context, src string) (*Cursor, error) {
	return ws.queryCursor(rctx, src, "query.stream")
}

// QueryCursor is QueryStream under the classic tx.query span kind: the
// cursor QueryCtx drains, handed to callers that want only a window of
// the answers (the HTTP envelope's row cap) and so stop pulling early.
func (ws *Workspace) QueryCursor(rctx context.Context, src string) (*Cursor, error) {
	return ws.queryCursor(rctx, src, "query")
}

func (ws *Workspace) queryCursor(rctx context.Context, src, kind string) (*Cursor, error) {
	sp, done := ws.txSpan(rctx, kind)
	cur, err := ws.openCursor(rctx, src, sp)
	if err != nil {
		done(err)
		return nil, err
	}
	cur.sp, cur.done = sp, done
	return cur, nil
}

// openCursor parses and compiles a query program and settles it as a
// transient addblock, returning a cursor over the answers. A query holds
// no reactive rule (one reading a delta or @start predicate): no reactive
// stratum runs in a query, so such a rule is an ErrTypecheck. The query's
// rules go through the transaction tail as an addblock's would, checks
// included, but on a clone of the receiver treated as checked: a
// read-only transaction reports what its own rules break, not what an
// unchecked Load left behind. A constraint that reads "_", installed or
// the query's own, needs the answer materialized. The caller owns the
// transaction span; the cursor ends only its internal eval span.
func (ws *Workspace) openCursor(rctx context.Context, src string, sp *obs.Span) (*Cursor, error) {
	psp := sp.Child("parse")
	qprog, err := parser.Parse(src)
	psp.End()
	if err != nil {
		return nil, fmt.Errorf("query %w: %w", ErrParse, err)
	}
	csp := sp.Child("compile")
	combined, err := compiler.Extend(ws.prog, qprog)
	csp.End()
	if err == nil && len(combined.Reactive) > len(ws.prog.Reactive) {
		err = fmt.Errorf("reactive rule %q in a query: a query reads installed predicates, not deltas or @start versions", combined.Reactive[len(ws.prog.Reactive)].Source)
	}
	if err == nil {
		err = ws.checkArities(combined)
	}
	if err != nil {
		return nil, fmt.Errorf("query %w: %w", ErrTypecheck, err)
	}
	// The heads of the query's rules (Extend appends them) changed, as an
	// addblock's would: the stratum walk re-evaluates them and maintains
	// their readers, installed ones included, but leaves a streamable
	// answer rule's stratum to the cursor.
	changed := map[string]bool{}
	for _, r := range combined.Rules[len(ws.prog.Rules):] {
		changed[r.HeadName] = true
	}
	walked := *combined
	answer := streamableAnswer(combined)
	if slices.ContainsFunc(combined.Constraints, func(k *compiler.ConstraintPlan) bool { return slices.Contains(k.References(), "_") }) {
		answer = nil
	}
	if n := len(combined.Strata); answer != nil && combined.Strata[n-1][0].HeadName == "_" {
		walked.Strata = combined.Strata[: n-1 : n-1] // the answer's stratum is the last
	} else if answer != nil {
		walked.Strata = slices.DeleteFunc(slices.Clone(combined.Strata), func(s []*compiler.RulePlan) bool {
			return s[0].HeadName == "_"
		})
	}
	q := ws.clone()
	q.unchecked = false
	_, ctx, err := q.settle(rctx, q, &walked, changed, nil, sp, true)
	if err != nil {
		return nil, err
	}
	if answer == nil {
		rel := ctx.Relation("_")
		return &Cursor{rctx: rctx, mat: rel.Cursor(), hint: rel.Len()}, nil
	}
	esp := sp.Child("eval")
	ctx.SetSpan(esp)
	rc, err := ctx.StreamRule(answer)
	if err != nil {
		esp.End()
		return nil, err
	}
	w := len(answer.HeadExprs)
	return &Cursor{
		rctx: rctx, esp: esp, rc: rc, streamed: true,
		prev: make(tuple.Tuple, w), cur: make(tuple.Tuple, w),
	}, nil
}

// streamableAnswer returns the single answer rule in the order it streams
// in (compiler.StreamOrder: its head's distinct variables first, with its
// constant-bound variables among them), when the program shape admits
// pipelined evaluation with output identical to the materialized path:
// exactly one rule derives "_" (so an installed "_" rule rules it out),
// nothing consumes "_", the rule neither aggregates nor predicts, and
// every head column is a join variable or a constant. LFTJ enumerates
// bindings lexicographically in the variable order, and projecting a
// monotone prefix keeps that order, so the heads then arrive sorted with
// duplicates adjacent — the materialized relation's iteration order after
// adjacent dedup. A constant-bound variable in that prefix takes exactly
// one value, so interleaving it with the head variables leaves the
// projected order as it was, while the join seeks the constant at its
// level instead of enumerating every binding before reaching it. Returns
// nil when any condition fails — the walk then materializes the answer.
func streamableAnswer(prog *compiler.Program) *compiler.RulePlan {
	var rule *compiler.RulePlan
	n := 0
	for _, stratum := range prog.Strata {
		for _, r := range stratum {
			if r.HeadName == "_" {
				rule = r
				n++
			}
			if r.ReadsAny(func(name string) bool { return name == "_" }) {
				return nil
			}
		}
	}
	if n != 1 || rule.Agg != nil || rule.Predict != nil {
		return nil
	}
	for _, e := range rule.HeadExprs {
		switch e := e.(type) {
		case compiler.VarExpr:
			if e.Idx >= rule.NumJoinVars {
				return nil // computed slot: breaks output monotonicity
			}
		case compiler.ConstExpr:
		default:
			return nil
		}
	}
	return compiler.StreamOrder(rule)
}
