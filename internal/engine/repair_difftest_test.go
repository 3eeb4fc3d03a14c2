package engine_test

// Repair differential harness (paper §3.4): every generated program is
// turned into a live workspace, then pairs of concurrent writer
// transactions race for the same head. The loser's recorded execution is
// repaired against the winner's head via sensitivity-interval
// intersection, and the repaired head must be byte-identical to the
// oracle — serially re-executing the loser's source on the winner's
// head. The logic never changes between the two, so every conflict must
// repair: fact-only transactions (empty read set) replay every stratum
// from the record, and transactions whose reads the winner overwrote
// re-evaluate from the first affected stratum on. Only a logic change
// declines with ErrRepairNotApplicable.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"logicblox/internal/core"
	"logicblox/internal/relation"
	"logicblox/internal/tuple"
)

// buildRepairWorkspace installs the generated program as a block and
// loads its base relations, returning the head workspace and the sorted
// base-predicate names.
func buildRepairWorkspace(t *testing.T, p *genProgram) (*core.Workspace, []string) {
	t.Helper()
	ws := core.NewWorkspace()
	var err error
	ws, err = ws.AddBlock("gen", p.source())
	if err != nil {
		t.Fatalf("seed %d: addblock: %v\n%s", p.seed, err, p.source())
	}
	names := make([]string, 0, len(p.base))
	for name := range p.base {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ws, err = ws.Insert(name, p.base[name].Slice()...)
		if err != nil {
			t.Fatalf("seed %d: load %s: %v", p.seed, name, err)
		}
	}
	return ws, names
}

// genTxn emits one writer transaction against p: 1-3 random delta facts
// over base predicates, plus sometimes a reactive rule deriving facts
// for a base predicate from a scan of another predicate. The rule gives
// the transaction a read set, so a winner that touches the scanned
// predicate defeats repair; fact-only transactions read nothing and must
// always repair.
func genTxn(rng *rand.Rand, p *genProgram, baseNames []string) string {
	var b strings.Builder
	n := 1 + rng.Intn(3)
	for i := 0; i < n; i++ {
		pred := baseNames[rng.Intn(len(baseNames))]
		sign := "+"
		if rng.Intn(4) == 0 {
			sign = "-"
		}
		vals := make([]string, p.arities[pred])
		for k := range vals {
			vals[k] = fmt.Sprintf("%d", rng.Intn(genDomain+3))
		}
		fmt.Fprintf(&b, "%s%s(%s).\n", sign, pred, strings.Join(vals, ", "))
	}
	if rng.Intn(3) == 0 {
		dst := baseNames[rng.Intn(len(baseNames))]
		pool := append(append([]string(nil), baseNames...), p.derived...)
		src := pool[rng.Intn(len(pool))]
		svars := make([]string, p.arities[src])
		for k := range svars {
			svars[k] = fmt.Sprintf("s%d", k)
		}
		hvars := make([]string, p.arities[dst])
		for k := range hvars {
			hvars[k] = svars[rng.Intn(len(svars))]
		}
		fmt.Fprintf(&b, "+%s(%s) <- %s(%s).\n",
			dst, strings.Join(hvars, ", "), src, strings.Join(svars, ", "))
	}
	return b.String()
}

// factSrc renders a single delta fact with every column set to v.
func factSrc(sign, pred string, arity int, v int) string {
	vals := make([]string, arity)
	for k := range vals {
		vals[k] = fmt.Sprintf("%d", v)
	}
	return fmt.Sprintf("%s%s(%s).\n", sign, pred, strings.Join(vals, ", "))
}

// assertHeadsEqual compares every relation (base and derived) of the two
// workspaces; missing relations count as empty.
func assertHeadsEqual(t *testing.T, label string, got, want *core.Workspace) {
	t.Helper()
	gr, wr := got.Relations(), want.Relations()
	names := map[string]bool{}
	for n := range gr {
		names[n] = true
	}
	for n := range wr {
		names[n] = true
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)
	for _, n := range sorted {
		g, gok := gr[n]
		w, wok := wr[n]
		if !gok {
			g = relation.New(w.Arity())
		}
		if !wok {
			w = relation.New(g.Arity())
		}
		if !g.Equal(w) {
			t.Fatalf("%s: relation %s diverged:\n  repaired: %v\n  serial:   %v",
				label, n, g.Slice(), w.Slice())
		}
	}
}

// TestRepairDifferential races randomized writer pairs over every
// generated program: repair must succeed whenever serial re-execution
// does, fail whenever it fails, and the repaired head must equal the
// serial re-execution oracle. No pair changes the logic, so repair never
// declines.
func TestRepairDifferential(t *testing.T) {
	ctx := context.Background()
	var repaired, reevaluated, failed int
	for seed := int64(0); seed < diffPrograms; seed++ {
		p := generate(seed)
		head, baseNames := buildRepairWorkspace(t, p)
		rng := rand.New(rand.NewSource(seed + 0x5eed))
		for round := 0; round < 4; round++ {
			srcA := genTxn(rng, p, baseNames)
			srcB := genTxn(rng, p, baseNames)
			label := fmt.Sprintf("seed %d round %d\nsrcA:\n%ssrcB:\n%s", seed, round, srcA, srcB)

			// A executes on head and records; B wins the race.
			_, recA, err := head.ExecRecordedCtx(ctx, srcA)
			if err != nil {
				t.Fatalf("%s: recorded exec: %v", label, err)
			}
			resB, err := head.Exec(srcB)
			if err != nil {
				t.Fatalf("%s: winner exec: %v", label, err)
			}
			headB := resB.Workspace

			serial, serr := headB.Exec(srcA)
			got, stats, rerr := recA.Repair(ctx, headB)
			if errors.Is(rerr, core.ErrRepairNotApplicable) {
				t.Fatalf("%s: repair declined though the logic did not change: %v", label, rerr)
			}
			if (rerr == nil) != (serr == nil) {
				t.Fatalf("%s: repair error %v, serial re-execution error %v", label, rerr, serr)
			}
			if rerr != nil {
				failed++
				continue
			}
			if stats.StrataReused > stats.StrataTotal {
				t.Fatalf("%s: stats out of range: %+v", label, stats)
			}
			repaired++
			if stats.StrataReused < stats.StrataTotal {
				reevaluated++
			}
			assertHeadsEqual(t, label, got.Workspace, serial.Workspace)
			head = got.Workspace
		}
	}
	if repaired == 0 || reevaluated == 0 {
		t.Fatalf("%d conflicts repaired, %d of them re-evaluating a stratum, across %d programs: the repair path was not exercised",
			repaired, reevaluated, diffPrograms)
	}
	t.Logf("repair differential: %d conflicts repaired (%d re-evaluating from an affected stratum), %d failed as serial re-execution did, 0 declined",
		repaired, reevaluated, failed)
}

// TestRepairDisjointFactWriters pins the headline property: a loser that
// only wrote delta facts recorded no reads, so it must repair — with
// every stratum reused — no matter what the winner wrote, even to the
// same predicate (repair is tuple-granular, not predicate-granular).
func TestRepairDisjointFactWriters(t *testing.T) {
	ctx := context.Background()
	for seed := int64(0); seed < 10; seed++ {
		p := generate(seed)
		head, baseNames := buildRepairWorkspace(t, p)
		x, y := baseNames[0], baseNames[1]
		srcA := factSrc("+", x, p.arities[x], 97)
		for _, tc := range []struct{ name, srcB string }{
			{"disjoint predicates", factSrc("+", y, p.arities[y], 99)},
			{"same predicate, different tuple", factSrc("+", x, p.arities[x], 99)},
		} {
			_, rec, err := head.ExecRecordedCtx(ctx, srcA)
			if err != nil {
				t.Fatalf("seed %d %s: recorded exec: %v", seed, tc.name, err)
			}
			resB, err := head.Exec(tc.srcB)
			if err != nil {
				t.Fatalf("seed %d %s: winner exec: %v", seed, tc.name, err)
			}
			headB := resB.Workspace
			if headB == head {
				t.Fatalf("seed %d %s: winner was a no-op", seed, tc.name)
			}
			got, stats, rerr := rec.Repair(ctx, headB)
			if rerr != nil {
				t.Fatalf("seed %d %s: fact-only loser (empty read set) must repair, got %v", seed, tc.name, rerr)
			}
			if stats.StrataTotal == 0 || stats.StrataReused != stats.StrataTotal {
				t.Fatalf("seed %d %s: want all strata reused, got %+v", seed, tc.name, stats)
			}
			serial, err := headB.Exec(srcA)
			if err != nil {
				t.Fatalf("seed %d %s: serial oracle: %v", seed, tc.name, err)
			}
			assertHeadsEqual(t, fmt.Sprintf("seed %d %s", seed, tc.name), got.Workspace, serial.Workspace)
		}
	}
}

// TestRepairOverlappingRead pins the path a read conflict takes: when
// the winner writes into a predicate the loser's rule scanned, the
// recorded intervals intersect the write set from the first stratum on,
// so nothing replays from the record — yet repair still succeeds by
// re-evaluating every stratum on the new head with the recorded program,
// and its head equals serial re-execution.
func TestRepairOverlappingRead(t *testing.T) {
	ctx := context.Background()
	for seed := int64(0); seed < 10; seed++ {
		p := generate(seed)
		head, baseNames := buildRepairWorkspace(t, p)
		x, y := baseNames[0], baseNames[1]
		svars := make([]string, p.arities[x])
		for k := range svars {
			svars[k] = fmt.Sprintf("s%d", k)
		}
		hvars := make([]string, p.arities[y])
		for k := range hvars {
			hvars[k] = svars[0]
		}
		// A scans all of x to derive facts for y; B writes a new x tuple.
		srcA := fmt.Sprintf("+%s(%s) <- %s(%s).\n",
			y, strings.Join(hvars, ", "), x, strings.Join(svars, ", "))
		srcB := factSrc("+", x, p.arities[x], 98)

		_, rec, err := head.ExecRecordedCtx(ctx, srcA)
		if err != nil {
			t.Fatalf("seed %d: recorded exec: %v", seed, err)
		}
		resB, err := head.Exec(srcB)
		if err != nil {
			t.Fatalf("seed %d: winner exec: %v", seed, err)
		}
		got, stats, rerr := rec.Repair(ctx, resB.Workspace)
		if rerr != nil {
			t.Fatalf("seed %d: winner overwrote the loser's read set; repair must still succeed, got %v", seed, rerr)
		}
		if stats.StrataTotal == 0 || stats.StrataReused != 0 {
			t.Fatalf("seed %d: want the first stratum affected (nothing reused), got %+v", seed, stats)
		}
		serial, err := resB.Workspace.Exec(srcA)
		if err != nil {
			t.Fatalf("seed %d: serial oracle: %v", seed, err)
		}
		assertHeadsEqual(t, fmt.Sprintf("seed %d", seed), got.Workspace, serial.Workspace)
	}
}

// TestRepairChainedConflictsAndSchemaChange checks two edges of the
// record's validity: it repairs against a head that moved several times
// since the snapshot (the diff is always taken against the original
// snapshot), and it conservatively declines once the winner changed the
// installed program itself.
func TestRepairChainedConflictsAndSchemaChange(t *testing.T) {
	ctx := context.Background()
	p := generate(3)
	head, baseNames := buildRepairWorkspace(t, p)
	x, y := baseNames[0], baseNames[1]
	srcA := factSrc("+", x, p.arities[x], 97)

	_, rec, err := head.ExecRecordedCtx(ctx, srcA)
	if err != nil {
		t.Fatalf("recorded exec: %v", err)
	}
	res1, err := head.Exec(factSrc("+", y, p.arities[y], 41))
	if err != nil {
		t.Fatalf("winner 1: %v", err)
	}
	res2, err := res1.Workspace.Exec(factSrc("+", y, p.arities[y], 42))
	if err != nil {
		t.Fatalf("winner 2: %v", err)
	}
	h2 := res2.Workspace

	got, _, rerr := rec.Repair(ctx, h2)
	if rerr != nil {
		t.Fatalf("repair against twice-moved head: %v", rerr)
	}
	serial, err := h2.Exec(srcA)
	if err != nil {
		t.Fatalf("serial oracle: %v", err)
	}
	assertHeadsEqual(t, "twice-moved head", got.Workspace, serial.Workspace)

	// A winner that installed a block changed the compiled program: the
	// record's stratum structure no longer matches, so repair declines.
	svars := make([]string, p.arities[x])
	for k := range svars {
		svars[k] = fmt.Sprintf("s%d", k)
	}
	h3, err := h2.AddBlock("extra", fmt.Sprintf("zz9(%s) <- %s(%s).\n",
		strings.Join(svars, ", "), x, strings.Join(svars, ", ")))
	if err != nil {
		t.Fatalf("addblock: %v", err)
	}
	if _, _, rerr := rec.Repair(ctx, h3); !errors.Is(rerr, core.ErrRepairNotApplicable) {
		t.Fatalf("schema changed under the record; want ErrRepairNotApplicable, got %v", rerr)
	}
}

// TestRepairPlainHeadedReactiveRule repairs a loser against an installed
// plain-headed reactive rule, an audit log fed by +item: the rule derives
// +audit, so its stratum replays from the record like any other delta
// head. In "prefix" the winner writes only what the loser's last stratum
// reads, so the item facts and the audit stratum replay and the note
// stratum re-evaluates; in "all" it writes what the first stratum reads,
// and every stratum re-evaluates. Either way the repaired head equals
// serial re-execution.
func TestRepairPlainHeadedReactiveRule(t *testing.T) {
	ctx := context.Background()
	head, err := core.NewWorkspace().AddBlock("s", `item(x) -> int(x). src(x) -> int(x). audit(x) <- +item(x).`)
	if err == nil {
		head, err = head.Insert("src", tuple.Ints(2))
	}
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, loser, winner string
		reused              int
	}{
		{"prefix", `+item(1). +item(2). +note(x) <- +audit(x), src(x).`, `+item(3). +src(1).`, 2},
		{"all", `+item(x) <- src(x). +item(4).`, `+item(3). +src(5).`, 0},
	} {
		_, rec, err := head.ExecRecordedCtx(ctx, tc.loser)
		if err != nil {
			t.Fatalf("%s: recorded exec: %v", tc.name, err)
		}
		won, err := head.Exec(tc.winner)
		if err != nil {
			t.Fatalf("%s: winner exec: %v", tc.name, err)
		}
		got, stats, err := rec.Repair(ctx, won.Workspace)
		if err != nil {
			t.Fatalf("%s: repair: %v", tc.name, err)
		}
		if stats.StrataReused != tc.reused {
			t.Errorf("%s: %d of %d strata reused, want %d", tc.name, stats.StrataReused, stats.StrataTotal, tc.reused)
		}
		serial, err := won.Workspace.Exec(tc.loser)
		if err != nil {
			t.Fatalf("%s: serial oracle: %v", tc.name, err)
		}
		assertHeadsEqual(t, tc.name, got.Workspace, serial.Workspace)
		if got.Workspace.Relation("audit").Len() == 0 {
			t.Fatalf("%s: audit is empty after repair", tc.name)
		}
	}
}
