package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"logicblox/internal/relation"
	"logicblox/internal/tuple"
)

const writePathSchema = `
	p(x) -> int(x).
	q(x) -> int(x).
	r(x) -> int(x).
	f[k] = v -> int(k), int(v).
	pair(x, y) -> int(x), int(y).
	fd[x] = y <- pair(x, y).
	big(x) <- p(x), x > 1.
	r(x) -> q(x).`

func writePathSeed(t *testing.T) *Workspace {
	t.Helper()
	ws := mustAddBlock(t, NewWorkspace(), "schema", writePathSchema)
	return mustExec(t, ws, `+p(1). +p(2). +q(5). +r(5). +f[1] = 10. +pair(1, 2). +B(0).`)
}

// relationsDiffer names the first predicate whose contents differ
// between two workspaces (base and derived), or "" when none does.
func relationsDiffer(a, b *Workspace) string {
	ra, rb := a.relations(), b.relations()
	for name, x := range ra {
		if y, ok := rb[name]; !ok || !x.Equal(y) {
			return name
		}
	}
	for name := range rb {
		if _, ok := ra[name]; !ok {
			return name
		}
	}
	return ""
}

// TestWritePathEquivalence pins that the ways to change base data are
// one path: a direct Insert/Delete, an Exec of the equivalent +/- facts,
// the recorded exec, and journal replay of that exec produce the same
// relations, the same exact base deltas, the same version bump (none on a
// no-op) and errors matching the same sentinel.
func TestWritePathEquivalence(t *testing.T) {
	cases := []struct {
		name     string
		pred     string
		ins, del []tuple.Tuple
		src      string
		wantErr  error
		wantMsg  string // substring of every path's error
		noop     bool
	}{
		{name: "insert", pred: "p", ins: []tuple.Tuple{tuple.Ints(3)}, src: `+p(3).`},
		{name: "delete", pred: "p", del: []tuple.Tuple{tuple.Ints(2)}, src: `-p(2).`},
		{name: "functional upsert", pred: "f", ins: []tuple.Tuple{tuple.Ints(1, 20)}, del: []tuple.Tuple{tuple.Ints(1, 10)}, src: `^f[1] = 20.`},
		{name: "no-op", pred: "p", ins: []tuple.Tuple{tuple.Ints(1)}, del: []tuple.Tuple{tuple.Ints(9)}, src: `+p(1). -p(9).`, noop: true},
		{name: "constraint violation", pred: "r", ins: []tuple.Tuple{tuple.Ints(99)}, src: `+r(99).`, wantErr: ErrConstraint},
		{name: "functional delete then insert", pred: "f", ins: []tuple.Tuple{tuple.Ints(1, 30)}, del: []tuple.Tuple{tuple.Ints(1, 10)}, src: `-f[1] = 10. +f[1] = 30.`},
		{name: "functional re-insert", pred: "f", ins: []tuple.Tuple{tuple.Ints(1, 10)}, src: `+f[1] = 10.`, noop: true},
		{name: "functional second value", pred: "f", ins: []tuple.Tuple{tuple.Ints(1, 11)}, src: `+f[1] = 11.`, wantErr: ErrConstraint, wantMsg: "f: key (1) has values 10 and 11"},
		{name: "functional double insert", pred: "f", ins: []tuple.Tuple{tuple.Ints(2, 1), tuple.Ints(2, 2)}, src: `+f[2] = 1. +f[2] = 2.`, wantErr: ErrConstraint, wantMsg: "f: key (2)"},
		{name: "derived functional second derivation", pred: "pair", ins: []tuple.Tuple{tuple.Ints(1, 3)}, src: `+pair(1, 3).`, wantErr: ErrConstraint, wantMsg: "fd: key (1) has values 2 and 3"},
		{name: "derived target", pred: "big", ins: []tuple.Tuple{tuple.Ints(7)}, src: `+big(7).`, wantErr: ErrTypecheck},
		{name: "data arity", pred: "B", ins: []tuple.Tuple{tuple.Ints(1, 2)}, src: `+B(1, 2).`, wantErr: ErrTypecheck},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			seed := writePathSeed(t)
			type outcome struct {
				path string
				res  *ExecResult
				err  error
			}
			var outs []outcome
			res, err := seed.applyDirect(tc.pred, tc.ins, tc.del, true)
			outs = append(outs, outcome{"direct", res, err})
			res, err = seed.Exec(tc.src)
			outs = append(outs, outcome{"Exec", res, err})
			res, _, err = seed.ExecRecordedCtx(context.Background(), tc.src)
			outs = append(outs, outcome{"ExecRecordedCtx", res, err})
			db := NewDatabaseWith(seed)
			err = db.ApplyRecord(CommitRecord{Seq: 1, Kind: "exec", Branch: DefaultBranch, Src: tc.src})
			head, herr := db.Workspace(DefaultBranch)
			if herr != nil {
				t.Fatal(herr)
			}
			// Replay reports no deltas; the relations and version of the
			// head it committed are what it is compared on.
			outs = append(outs, outcome{"ApplyRecord", &ExecResult{Workspace: head}, err})

			for _, o := range outs {
				if !errors.Is(o.err, tc.wantErr) || (tc.wantErr == nil && o.err != nil) {
					t.Fatalf("%s: err = %v, want %v", o.path, o.err, tc.wantErr)
				}
				if tc.wantMsg != "" && !strings.Contains(o.err.Error(), tc.wantMsg) {
					t.Fatalf("%s: err = %v, want it to mention %q", o.path, o.err, tc.wantMsg)
				}
			}
			if tc.wantErr != nil {
				if head != seed {
					t.Fatal("ApplyRecord moved the head on an aborted transaction")
				}
				return
			}
			want := outs[0].res
			if tc.noop != (want.Workspace == seed) {
				t.Fatalf("direct: no-op = %v, want %v", want.Workspace == seed, tc.noop)
			}
			if d := want.BaseDeltas[tc.pred]; !tc.noop && (len(d.Ins) != len(tc.ins) || len(d.Del) != len(tc.del)) {
				t.Fatalf("direct: BaseDeltas = %v", want.BaseDeltas)
			}
			for _, o := range outs[1:] {
				if name := relationsDiffer(want.Workspace, o.res.Workspace); name != "" {
					t.Errorf("%s: relation %s differs from the direct write: %v vs %v",
						o.path, name, o.res.Workspace.Relation(name).Slice(), want.Workspace.Relation(name).Slice())
				}
				if got, w := o.res.Workspace.Version(), want.Workspace.Version(); got != w {
					t.Errorf("%s: version %d, direct write gave %d (seed %d)", o.path, got, w, seed.Version())
				}
				if tc.noop && o.res.Workspace != seed {
					t.Errorf("%s: a no-op produced a new workspace value", o.path)
				}
				if o.path == "ApplyRecord" {
					continue
				}
				if got, w := fmt.Sprint(o.res.BaseDeltas), fmt.Sprint(want.BaseDeltas); got != w {
					t.Errorf("%s: BaseDeltas = %s, direct write gave %s", o.path, got, w)
				}
			}

			// Insert and Delete are the direct write with one side empty.
			var viaAPI *Workspace
			switch {
			case len(tc.del) == 0:
				viaAPI, err = seed.Insert(tc.pred, tc.ins...)
			case len(tc.ins) == 0:
				viaAPI, err = seed.Delete(tc.pred, tc.del...)
			default:
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if name := relationsDiffer(want.Workspace, viaAPI); name != "" {
				t.Errorf("Insert/Delete: relation %s differs from the direct write", name)
			}
		})
	}
}

// TestFunctionalDependencyFirstWrite: a functional predicate the receiver
// holds nothing of is swept whole, so the very first write — and a
// restore, which starts from the empty workspace — cannot smuggle in two
// values for one key.
func TestFunctionalDependencyFirstWrite(t *testing.T) {
	_, err := NewWorkspace().Exec(`+g[1] = 2. +g[1] = 3.`)
	if !errors.Is(err, ErrConstraint) || !strings.Contains(err.Error(), "g: key (1) has values 2 and 3") {
		t.Fatalf("first write of two values for g[1]: err = %v, want ErrConstraint naming g and key (1)", err)
	}
	_, err = restoreWorkspace(nil, map[string]string{"s": `g[k] = v -> int(k), int(v).`},
		map[string]relation.Relation{"g": relation.FromTuples(2, []tuple.Tuple{tuple.Ints(1, 2), tuple.Ints(1, 3)})})
	if !errors.Is(err, ErrConstraint) {
		t.Fatalf("restore of two values for g[1]: err = %v, want ErrConstraint", err)
	}
}

// TestLoadSkipsConstraints pins Load's real contract: it is an exec of +
// facts with the integrity check off, so referentially tied predicates
// can be seeded in any order; the next checked transaction surfaces a
// violation Load left behind.
func TestLoadSkipsConstraints(t *testing.T) {
	seed := writePathSeed(t)
	if _, err := seed.Insert("r", tuple.Ints(99)); !errors.Is(err, ErrConstraint) {
		t.Fatalf("Insert violating r(x) -> q(x): err = %v, want ErrConstraint", err)
	}
	loaded, err := seed.Load("r", []tuple.Tuple{tuple.Ints(99)})
	if err != nil {
		t.Fatalf("Load violating r(x) -> q(x): %v (Load does not check constraints)", err)
	}
	if !loaded.Relation("r").Contains(tuple.Ints(99)) {
		t.Fatal("Load dropped the tuple")
	}
	if _, err := loaded.Insert("p", tuple.Ints(3)); !errors.Is(err, ErrConstraint) {
		t.Fatalf("checked transaction after the violating Load: err = %v, want ErrConstraint", err)
	}
	fixed, err := loaded.Load("q", []tuple.Tuple{tuple.Ints(99)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fixed.Insert("p", tuple.Ints(3)); err != nil {
		t.Fatalf("after loading the referenced fact: %v", err)
	}
	if _, err := seed.Load("big", []tuple.Tuple{tuple.Ints(7)}); !errors.Is(err, ErrTypecheck) {
		t.Fatalf("Load into a derived predicate: err = %v, want ErrTypecheck", err)
	}
}

// TestExecPlainHeadedReactiveRule pins the merge of plain-headed reactive
// derivations (audit logs fed by +R) into their extensional heads: they
// are one more +R of the frame step, so a head tuple the transaction both
// deletes and re-derives stays, and BaseDeltas report the net change.
func TestExecPlainHeadedReactiveRule(t *testing.T) {
	ws := mustAddBlock(t, NewWorkspace(), "s", `p(x) -> int(x). log(x) -> int(x).`)
	ws = mustExec(t, ws, `+p(1). +log(1). +log(2).`)
	for _, tc := range []struct{ src, log, deltas string }{
		{`log(x) <- +p(x). +p(5).`, "[(1) (2) (5)]", "map[log:{[(5)] []} p:{[(5)] []}]"},
		{`log(x) <- +p(x). +p(1). -log(2).`, "[(1)]", "map[log:{[] [(2)]}]"},
		{`log(x) <- +p(x). +p(2). -log(2).`, "[(1) (2)]", "map[p:{[(2)] []}]"},
	} {
		res, err := ws.Exec(tc.src)
		if err != nil {
			t.Fatalf("%s: %v", tc.src, err)
		}
		if got := fmt.Sprint(res.Workspace.Relation("log").Slice()); got != tc.log {
			t.Errorf("%s: log = %s, want %s", tc.src, got, tc.log)
		}
		if got := fmt.Sprint(res.BaseDeltas); got != tc.deltas {
			t.Errorf("%s: BaseDeltas = %s, want %s", tc.src, got, tc.deltas)
		}
	}
}

// TestExecReactiveBodyReadsStartState pins what a reactive body reads of
// a plain predicate: its state at the start of the exec, even when a
// plain-headed reactive rule of the same exec inserts into it. That rule
// derives log's +log, which the frame rule applies after the reactive
// strata, so neither seen nor seen2 sees p(1) or log(1). The rules behave
// alike installed and carried by the exec itself.
func TestExecReactiveBodyReadsStartState(t *testing.T) {
	const rules = `log(x) <- +p(x). seen(x) <- +q(x), log(x). seen2(x) <- +q(x), p(x).`
	installed := mustAddBlock(t, NewWorkspace(), "r", rules)
	for _, tc := range []struct {
		name string
		ws   *Workspace
		src  string
	}{
		{"installed", installed, `+p(1). +q(1).`},
		{"in the exec", NewWorkspace(), rules + ` +p(1). +q(1).`},
	} {
		ws := mustExec(t, tc.ws, tc.src)
		for pred, want := range map[string]string{"log": "[(1)]", "seen": "[]", "seen2": "[]"} {
			if got := fmt.Sprint(ws.Relation(pred).Slice()); got != want {
				t.Errorf("%s: %s = %s, want %s", tc.name, pred, got, want)
			}
		}
	}
}

// TestExecDeletesDifferentKindTwins checks view maintenance on the
// transaction path: v(1) and v(1.0) print alike but are two tuples, and
// deleting both of their derivations must empty the view.
func TestExecDeletesDifferentKindTwins(t *testing.T) {
	ws := mustAddBlock(t, NewWorkspace(), "v", `v(k) <- a(k, x).`)
	ws = mustExec(t, ws, `+a(1, 10). +a(1.0, 20).`)
	if got := ws.Relation("v"); got.Len() != 2 {
		t.Fatalf("v = %v after inserting the twins, want both", got.Slice())
	}
	ws = mustExec(t, ws, `-a(1, 10). -a(1.0, 20).`)
	if got := ws.Relation("v"); got.Len() != 0 {
		t.Fatalf("v = %v after deleting both derivations, want empty", got.Slice())
	}
}

// TestExecStaticRuleRejected: an exec holds delta facts, reactive rules
// and declarations. A static rule in it would never be evaluated, so the
// exec fails with ErrTypecheck instead of committing nothing, through
// Exec, ExecRecordedCtx and Database.Apply alike, and nothing is
// journaled.
func TestExecStaticRuleRejected(t *testing.T) {
	const schema = `a(x) -> int(x). b(x) -> int(x).`
	const src = `tmp(x) <- b(x). +a(x) <- tmp(x).`
	db := NewDatabase()
	ctx := context.Background()
	for _, rec := range []CommitRecord{
		{Kind: "addblock", Branch: DefaultBranch, Name: "s", Src: schema},
		{Kind: "exec", Branch: DefaultBranch, Src: `+b(2).`},
	} {
		if _, err := db.Apply(ctx, rec, TxOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	var journaled int
	db.SetCommitHook(func(CommitRecord) error { journaled++; return nil })
	ws, _ := db.Workspace(DefaultBranch)
	if _, err := ws.Exec(src); !errors.Is(err, ErrTypecheck) {
		t.Errorf("Exec: err = %v, want ErrTypecheck", err)
	}
	if _, _, err := ws.ExecRecordedCtx(ctx, src); !errors.Is(err, ErrTypecheck) {
		t.Errorf("ExecRecordedCtx: err = %v, want ErrTypecheck", err)
	}
	out, err := db.Apply(ctx, CommitRecord{Kind: "exec", Branch: DefaultBranch, Src: src}, TxOptions{MaxRetries: 3})
	if !errors.Is(err, ErrTypecheck) || out.Committed {
		t.Errorf("Apply: err = %v, committed %v; want ErrTypecheck, not committed", err, out.Committed)
	}
	head, _ := db.Workspace(DefaultBranch)
	if head != ws || journaled != 0 {
		t.Errorf("head moved: %v, %d records journaled; want neither", head != ws, journaled)
	}
	if got := head.Relation("a"); !got.IsEmpty() {
		t.Errorf("a = %v, want []", got.Slice())
	}
	// A declaration stays allowed: it types the predicate it introduces.
	if _, err := ws.Exec(`c(x) -> int(x). +c(1).`); err != nil {
		t.Errorf("exec with a declaration: %v", err)
	}
}
