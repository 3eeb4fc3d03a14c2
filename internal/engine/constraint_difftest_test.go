package engine_test

// Constraint differential arm: a transaction settles its integrity
// constraints by delta — skipping the ones nothing they read moved and
// checking the rest over the bindings the transaction created, unless a
// fallback calls for a full check. Over the suite's programs, generated
// constraints (bodies over base and derived predicates, negated atoms,
// comparison, required-atom, negated-atom and functional-lookup heads)
// are installed and then batches of every kind run against them; each
// transaction must be rejected exactly when a full CheckConstraints over
// the state it would commit, built from scratch, finds violations — with
// the same violations, in the same order, in its error.

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"logicblox/internal/ast"
	"logicblox/internal/compiler"
	"logicblox/internal/core"
	"logicblox/internal/engine"
	"logicblox/internal/ivm"
	"logicblox/internal/obs"
	"logicblox/internal/parser"
	"logicblox/internal/relation"
	"logicblox/internal/tuple"
)

// fvDecl declares the functional base predicate every arm program gets
// for head lookups (the aggregate views are the derived ones).
const fvDecl = "fv[k] = n -> int(k), int(n).\n"

// genConstraint is one generated integrity constraint.
type genConstraint struct {
	src      string
	required []string // predicates a head atom requires a fact of
}

// genConstraintFor draws one constraint over p's predicates and fv: one or
// two positive body atoms, possibly a comparison and a negated atom, and a
// head of one literal — a comparison near the edge of the value domain, a
// required atom with some columns wildcards, a negated atom, or a
// functional lookup (fv or an aggregate view) compared with a constant.
func genConstraintFor(rng *rand.Rand, p *genProgram) genConstraint {
	names := make([]string, 0, len(p.arities))
	for name := range p.arities {
		names = append(names, name)
	}
	sort.Strings(names)
	var parts, vars []string
	for i, n := 0, 1+rng.Intn(2); i < n; i++ {
		pred := names[rng.Intn(len(names))]
		vs := pickVars(rng, p.arities[pred], vars)
		for _, v := range vs {
			if !containsStr(vars, v) {
				vars = append(vars, v)
			}
		}
		parts = append(parts, fmt.Sprintf("%s(%s)", pred, strings.Join(vs, ", ")))
	}
	bound := func() string { return vars[rng.Intn(len(vars))] }
	if rng.Intn(3) == 0 {
		parts = append(parts, fmt.Sprintf("%s %s %d", bound(), genCmpOps[rng.Intn(len(genCmpOps))], rng.Intn(genDomain)))
	}
	if rng.Intn(4) == 0 {
		pred := names[rng.Intn(len(names))]
		args := make([]string, p.arities[pred])
		for i := range args {
			args[i] = bound()
		}
		parts = append(parts, fmt.Sprintf("!%s(%s)", pred, strings.Join(args, ", ")))
	}
	k := genConstraint{}
	var head string
	switch rng.Intn(4) {
	case 0:
		switch rng.Intn(3) {
		case 0:
			head = fmt.Sprintf("%s <= %d", bound(), genDomain-1-rng.Intn(3))
		case 1:
			head = fmt.Sprintf("%s >= %d", bound(), rng.Intn(3))
		default:
			head = fmt.Sprintf("%s != %s", bound(), bound())
		}
	case 1:
		base := p.baseNames()
		pred := base[rng.Intn(len(base))]
		if rng.Intn(3) == 0 {
			pred = names[rng.Intn(len(names))]
		}
		args := make([]string, p.arities[pred])
		for i := range args {
			args[i] = "_"
			if i == 0 || rng.Intn(2) == 0 {
				args[i] = bound()
			}
		}
		head = fmt.Sprintf("%s(%s)", pred, strings.Join(args, ", "))
		k.required = []string{pred}
	case 2:
		pred := names[rng.Intn(len(names))]
		args := make([]string, p.arities[pred])
		for i := range args {
			args[i] = bound()
		}
		head = fmt.Sprintf("!%s(%s)", pred, strings.Join(args, ", "))
	default:
		fn, keys := "fv", []string{bound()}
		var views []string
		for _, d := range p.derived {
			if strings.HasPrefix(d, "g") {
				views = append(views, d)
			}
		}
		if len(views) > 0 && rng.Intn(2) == 0 {
			fn = views[rng.Intn(len(views))]
			keys = make([]string, p.arities[fn]-1)
			for i := range keys {
				keys[i] = bound()
			}
		}
		head = fmt.Sprintf("%s[%s] >= %d", fn, strings.Join(keys, ", "), rng.Intn(3))
	}
	k.src = fmt.Sprintf("%s -> %s.\n", strings.Join(parts, ", "), head)
	return k
}

func containsStr(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

// fullCheck is the oracle: the violations a full CheckConstraints finds in
// the state the installed blocks derive from base, built from scratch.
func fullCheck(t *testing.T, blocks map[string]string, base map[string]relation.Relation) []engine.Violation {
	t.Helper()
	names := make([]string, 0, len(blocks))
	for name := range blocks {
		names = append(names, name)
	}
	sort.Strings(names) // the workspace compiles its blocks in name order
	progs := make([]*ast.Program, 0, len(names))
	for _, name := range names {
		prog, err := parser.Parse(blocks[name])
		if err != nil {
			t.Fatalf("block %s: %v\n%s", name, err, blocks[name])
		}
		progs = append(progs, prog)
	}
	prog, err := compiler.Compile(progs...)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	ctx := engine.NewContext(prog, base, engine.Options{})
	if err := ctx.EvalAll(); err != nil {
		t.Fatalf("eval: %v", err)
	}
	vs, err := ctx.CheckConstraints()
	if err != nil {
		t.Fatalf("full check: %v", err)
	}
	return vs
}

// violationError is the error a transaction aborted by vs reports.
func violationError(vs []engine.Violation) string {
	msg := ""
	for i, v := range vs {
		if i == 5 {
			msg += fmt.Sprintf("\n  … and %d more", len(vs)-5)
			break
		}
		msg += "\n  " + v.String()
	}
	return fmt.Sprintf("transaction aborted: %d %s(s):%s", len(vs), core.ErrConstraint, msg)
}

// constraintArm is one program's run through the arm: the workspace under
// test and, beside it, the model the oracle rebuilds from.
type constraintArm struct {
	t         *testing.T
	p         *genProgram
	rng       *rand.Rand
	ws        *core.Workspace
	blocks    map[string]string            // installed block name → source
	cur       map[string]relation.Relation // the generated base predicates
	fv, u     relation.Relation
	installed []genConstraint
	log       []string
	// rejected counts, per step kind, the transactions the oracle expected
	// (and saw) rejected; accepted the others.
	rejected, accepted map[string]int
}

// base is the model's full base data.
func (a *constraintArm) base(cur map[string]relation.Relation, fv, u relation.Relation) map[string]relation.Relation {
	out := map[string]relation.Relation{"fv": fv, "u": u}
	for name, rel := range cur {
		out[name] = rel
	}
	return out
}

// agree checks one transaction's outcome against the oracle's violations
// and reports whether it committed.
func (a *constraintArm) agree(kind string, err error, want []engine.Violation) bool {
	a.t.Helper()
	fail := func(format string, args ...any) {
		a.t.Helper()
		a.t.Fatalf("seed %d, %s: %s\nprogram:\n%sconstraints:\n%ssteps:\n%s", a.p.seed, kind, fmt.Sprintf(format, args...),
			a.p.source(), a.constraintSources(), strings.Join(a.log, "\n"))
	}
	if len(want) == 0 {
		if err != nil {
			fail("rejected, but a full check of the result finds no violation: %v", err)
		}
		a.accepted[kind]++
		return true
	}
	if !errors.Is(err, core.ErrConstraint) || err.Error() != violationError(want) {
		fail("err = %v\nbut a full check of the result finds:\n%s", err, violationError(want))
	}
	a.rejected[kind]++
	return false
}

func (a *constraintArm) constraintSources() string {
	var b strings.Builder
	for _, k := range a.installed {
		b.WriteString(k.src)
	}
	return b.String()
}

// addConstraint runs an addblock of k and keeps it when it commits.
func (a *constraintArm) addConstraint(kind string, k genConstraint) {
	name := fmt.Sprintf("k%02d", len(a.log))
	blocks := map[string]string{name: k.src}
	for n, src := range a.blocks {
		blocks[n] = src
	}
	want := fullCheck(a.t, blocks, a.base(a.cur, a.fv, a.u))
	a.log = append(a.log, "addblock "+strings.TrimSpace(k.src))
	next, err := a.ws.AddBlock(name, k.src)
	if a.agree(kind, err, want) {
		a.ws, a.blocks, a.installed = next, blocks, append(a.installed, k)
	}
}

// exec runs deltas (and an fv upsert when fvKey ≥ 0) as one exec.
func (a *constraintArm) exec(kind string, deltas map[string]ivm.Delta, fvKey, fvVal int64) {
	src := execSource(deltas)
	fv := a.fv
	if fvKey >= 0 {
		src += fmt.Sprintf("^fv[%d] = %d.\n", fvKey, fvVal)
		if old, ok := fv.FuncGet(tuple.Ints(fvKey)); ok {
			fv = fv.Delete(tuple.Tuple{tuple.Int(fvKey), old})
		}
		fv = fv.Insert(tuple.Ints(fvKey, fvVal))
	}
	if src == "" {
		return
	}
	cur := applyToBase(a.cur, deltas)
	want := fullCheck(a.t, a.blocks, a.base(cur, fv, a.u))
	a.log = append(a.log, kind+": "+strings.ReplaceAll(src, "\n", " "))
	res, err := a.ws.Exec(src)
	if a.agree(kind, err, want) {
		a.ws, a.cur, a.fv = res.Workspace, cur, fv
	}
}

// headDeletion deletes one or two tuples from a base predicate that an
// installed constraint's head requires facts of.
func (a *constraintArm) headDeletion() {
	var preds []string
	for _, k := range a.installed {
		for _, pred := range k.required {
			if rel, ok := a.cur[pred]; ok && !rel.IsEmpty() && !containsStr(preds, pred) {
				preds = append(preds, pred)
			}
		}
	}
	if len(preds) == 0 {
		return
	}
	sort.Strings(preds)
	pred := preds[a.rng.Intn(len(preds))]
	existing := a.cur[pred].Slice()
	var d ivm.Delta
	for i := 0; i < 1+a.rng.Intn(2); i++ {
		d.Del = append(d.Del, existing[a.rng.Intn(len(existing))])
	}
	a.exec("head deletion", map[string]ivm.Delta{pred: d}, -1, 0)
}

// violatingAddblock installs a new constraint, preferring one the current
// state already violates.
func (a *constraintArm) violatingAddblock() {
	var k genConstraint
	for try := 0; try < 10; try++ {
		k = genConstraintFor(a.rng, a.p)
		blocks := map[string]string{"new": k.src}
		for n, src := range a.blocks {
			blocks[n] = src
		}
		if len(fullCheck(a.t, blocks, a.base(a.cur, a.fv, a.u))) > 0 {
			break
		}
	}
	a.addConstraint("violating addblock", k)
}

// loadThenUnrelated Loads tuples into a base predicate — preferring ones
// that break an installed constraint, which Load does not check — and
// then execs an insert into u, which nothing reads: the exec must surface
// what the Load left behind. A rejected exec leaves the arm where it was
// before the Load.
func (a *constraintArm) loadThenUnrelated() {
	names := a.p.baseNames()
	var pred string
	var tuples []tuple.Tuple
	var cur map[string]relation.Relation
	u := a.u.Insert(tuple.Ints(int64(a.u.Len())))
	for try := 0; try < 10; try++ {
		pred, tuples = names[a.rng.Intn(len(names))], nil
		for i := 0; i < 1+a.rng.Intn(3); i++ {
			t := make(tuple.Tuple, a.p.arities[pred])
			for c := range t {
				t[c] = tuple.Int(int64(a.rng.Intn(genDomain)))
			}
			tuples = append(tuples, t)
		}
		cur = applyToBase(a.cur, map[string]ivm.Delta{pred: {Ins: tuples}})
		if len(fullCheck(a.t, a.blocks, a.base(cur, a.fv, u))) > 0 {
			break
		}
	}
	a.log = append(a.log, fmt.Sprintf("load %s %v", pred, tuples))
	loaded, err := a.ws.Load(pred, tuples)
	if err != nil {
		a.t.Fatalf("seed %d: load %s: %v", a.p.seed, pred, err)
	}
	want := fullCheck(a.t, a.blocks, a.base(cur, a.fv, u))
	src := fmt.Sprintf("+u(%d).", u.Len()-1)
	a.log = append(a.log, "unrelated exec: "+src)
	res, err := loaded.Exec(src)
	if a.agree("exec after load", err, want) {
		a.ws, a.cur, a.u = res.Workspace, cur, u
	}
}

var batchNames = map[batchKind]string{mixedBatch: "mixed batch", insertOnly: "insert batch", deleteOnly: "delete batch"}

// constraintArmSteps is how many constraints each program is offered
// before its batches run.
const constraintArmSteps = 6

func TestDifferentialConstraints(t *testing.T) {
	reg := obs.NewRegistry()
	rejected, accepted := map[string]int{}, map[string]int{}
	for seed := int64(0); seed < suitePrograms; seed++ {
		p := suiteProgram(seed)
		rng := rand.New(rand.NewSource(seed ^ 0xc0de))
		all := make([]int, len(p.rules))
		blocks := map[string]string{"fv": fvDecl}
		for i := range p.rules {
			all[i] = i
			blocks[blockName(i)] = p.rules[i].source()
		}
		ws := buildLiveWorkspace(t, p, p.base, all)
		fv := relation.New(2)
		for k := 0; k < genDomain; k++ {
			fv = fv.Insert(tuple.Ints(int64(k), int64(rng.Intn(genDomain))))
		}
		ws, err := ws.Insert("fv", fv.Slice()...)
		if err == nil {
			ws, err = ws.AddBlock("fv", fvDecl)
		}
		if err != nil {
			t.Fatalf("seed %d: fv: %v", seed, err)
		}
		a := &constraintArm{t: t, p: p, rng: rng, ws: ws.WithObserver(reg), blocks: blocks, cur: p.base,
			fv: fv, u: relation.New(1), rejected: rejected, accepted: accepted}
		for i := 0; i < constraintArmSteps; i++ {
			a.addConstraint("addblock", genConstraintFor(rng, p))
		}
		for _, kind := range ivmBatches {
			fvKey := int64(-1)
			if kind == mixedBatch && rng.Intn(2) == 0 {
				fvKey = int64(rng.Intn(genDomain))
			}
			a.exec(batchNames[kind], randomDeltas(rng, p, a.cur, kind), fvKey, int64(rng.Intn(genDomain+1))-1)
		}
		a.headDeletion()
		a.violatingAddblock()
		a.loadThenUnrelated()
	}
	// The arm must have reached every decision and outcome it exists for.
	snap := reg.Snapshot()
	for _, c := range []string{"core.constraints.delta_checked", "core.constraints.full_checked", "core.constraints.skipped"} {
		if snap.Counters[c] == 0 {
			t.Errorf("%s = 0 over the arm", c)
		}
	}
	for _, kind := range []string{"head deletion", "violating addblock", "exec after load", "addblock"} {
		if rejected[kind] == 0 || accepted[kind] == 0 {
			t.Errorf("%s: %d rejected, %d accepted — want both outcomes", kind, rejected[kind], accepted[kind])
		}
	}
	t.Logf("rejected %v, accepted %v, counters delta=%d full=%d skipped=%d", rejected, accepted,
		snap.Counters["core.constraints.delta_checked"], snap.Counters["core.constraints.full_checked"], snap.Counters["core.constraints.skipped"])
}
