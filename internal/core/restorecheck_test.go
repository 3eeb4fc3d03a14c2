package core

import (
	"errors"
	"fmt"
	"testing"

	"logicblox/internal/relation"
	"logicblox/internal/tuple"
)

// checkedDecl declares the base predicates of FuzzCheckedStateRestores'
// histories: f is functional, g is not until a block or an exec makes it
// so.
const checkedDecl = `f[x] = y -> int(x), int(y).
a(x) -> int(x).
b(x) -> int(x).`

// checkedBlocks are the blocks the histories install and remove: a
// constraint, a view and a declaration that make g functional, an
// aggregate, negation, and a view with a constraint of its own.
var checkedBlocks = []struct{ name, src string }{
	{"k", `a(x) -> b(x).`},
	{"v", `v(x, y) <- g[x] = y.`},
	{"fd", `g[x] = y -> int(x), int(y).`},
	{"n", `n[x] = c <- agg<<c = count()>> g(x, y).`},
	{"w", `w(x) <- a(x), !b(x).`},
	{"u", "u(y) <- f[x] = y.\nu(y) -> y < 3."},
}

// checkedPreds are the base predicates the histories write.
var checkedPreds = []struct {
	name  string
	arity int
}{{"f", 2}, {"g", 2}, {"a", 1}, {"b", 1}}

// The operations of a history, one per three bytes: kind, which, val.
const (
	opLoad   = iota // Load checkedPreds[which%4] with one tuple
	opInsert        // Insert that tuple
	opExec          // Exec: which/4%4 picks +p, -p, +p with g's declaration, or ^f
	opAdd           // AddBlock checkedBlocks[which%6]
	opRemove        // RemoveBlock checkedBlocks[which%6]
	opKinds
)

// checkedOps encodes a history: each op is {kind, which, val}, and val
// holds a tuple's values as x + 4y.
func checkedOps(ops ...[3]byte) []byte {
	var out []byte
	for _, op := range ops {
		out = append(out, op[:]...)
	}
	return out
}

// FuzzCheckedStateRestores: after every checked transaction of a history
// that succeeds, a restore of the result — its blocks installed over its
// base data on an empty workspace, which holds no constraint and no
// functional dependency, so it checks everything in full — succeeds and
// derives the same relations. It checks the shortcuts a transaction takes
// on what its receiver held (a constraint checked against the delta, a
// dependency probed at the inserted tuples) against a check that takes
// none.
func FuzzCheckedStateRestores(f *testing.F) {
	for _, seed := range [][]byte{
		// An exec gives g two values for one key; a block then reads g
		// in the bracket shape, making it functional.
		checkedOps([3]byte{opExec, 1, 1 + 4*2}, [3]byte{opExec, 1, 1 + 4*3}, [3]byte{opAdd, 1, 0}),
		// The same by a declaration in a block, and in an exec, whose
		// declaration holds for the exec only.
		checkedOps([3]byte{opExec, 1, 1 + 4*2}, [3]byte{opExec, 1, 1 + 4*3}, [3]byte{opAdd, 2, 0}),
		checkedOps([3]byte{opExec, 1, 1 + 4*2}, [3]byte{opExec, 1, 1 + 4*3}, [3]byte{opExec, 1 + 4*2, 2 + 4*1}),
		// Load gives f two values for one key; a write elsewhere follows.
		checkedOps([3]byte{opLoad, 0, 1 + 4*2}, [3]byte{opLoad, 0, 1 + 4*3}, [3]byte{opInsert, 3, 1}),
		// Load breaks a constraint; writes follow, one mending it.
		checkedOps([3]byte{opAdd, 0, 0}, [3]byte{opLoad, 2, 1}, [3]byte{opInsert, 2, 2}, [3]byte{opLoad, 3, 1}, [3]byte{opInsert, 3, 2}, [3]byte{opInsert, 2, 2}),
		// Views, negation, an aggregate and upserts through removals.
		checkedOps([3]byte{opAdd, 4, 0}, [3]byte{opAdd, 3, 0}, [3]byte{opAdd, 5, 0}, [3]byte{opInsert, 2, 1}, [3]byte{opExec, 1, 0 + 4*1},
			[3]byte{opExec, 4 * 3, 1 + 4*2}, [3]byte{opExec, 4 * 3, 1 + 4*3}, [3]byte{opInsert, 3, 1}, [3]byte{opRemove, 4, 0}, [3]byte{opExec, 4 * 1, 1 + 4*2}),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ws := mustAddBlock(t, NewWorkspace(), "decl", checkedDecl)
		for i := 0; i+3 <= len(data) && i < 3*24; i += 3 {
			kind, which, val := data[i]%opKinds, data[i+1], data[i+2]
			p := checkedPreds[which%4]
			x, y := int64(val%4), int64(val/4%4)
			tup, args := tuple.Ints(x), fmt.Sprint(x)
			if p.arity == 2 {
				tup, args = tuple.Ints(x, y), fmt.Sprintf("%d, %d", x, y)
			}
			block := checkedBlocks[int(which)%len(checkedBlocks)]
			var (
				next *Workspace
				desc string
				err  error
			)
			switch kind {
			case opLoad:
				if next, err = ws.Load(p.name, []tuple.Tuple{tup}); err == nil {
					ws = next
				}
				continue // unchecked: nothing to restore against
			case opInsert:
				desc = fmt.Sprintf("Insert(%s%v)", p.name, tup)
				next, err = ws.Insert(p.name, tup)
			case opExec:
				switch which / 4 % 4 {
				case 0:
					desc = fmt.Sprintf("+%s(%s).", p.name, args)
				case 1:
					desc = fmt.Sprintf("-%s(%s).", p.name, args)
				case 2:
					desc = fmt.Sprintf("%s +%s(%s).", checkedBlocks[2].src, p.name, args)
				default:
					desc = fmt.Sprintf("^f[%d] = %d.", x, y)
				}
				var res *ExecResult
				if res, err = ws.Exec(desc); err == nil {
					next = res.Workspace
				}
			case opAdd:
				desc = "AddBlock " + block.name
				next, err = ws.AddBlock(block.name, block.src)
			case opRemove:
				desc = "RemoveBlock " + block.name
				next, err = ws.RemoveBlock(block.name)
			}
			if err != nil {
				if errors.Is(err, ErrConstraint) || errors.Is(err, ErrConflict) || errors.Is(err, ErrTypecheck) {
					continue // aborted: the receiver stays
				}
				if kind == opRemove {
					continue // not installed
				}
				t.Fatalf("%s: %v", desc, err)
			}
			ws = next
			restoresAs(t, ws, desc)
		}
	})
}

// restoresAs checks that ws restores from its blocks and base data, with
// every derived relation as ws holds it.
func restoresAs(t *testing.T, ws *Workspace, desc string) {
	t.Helper()
	blocks := map[string]string{}
	ws.blocks.Range(func(name, src string) bool { blocks[name] = src; return true })
	base := map[string]relation.Relation{}
	ws.base.Range(func(name string, r relation.Relation) bool { base[name] = r; return true })
	fresh, err := restoreWorkspace(nil, blocks, base)
	if err != nil {
		t.Fatalf("after %s, committed: the result does not restore: %v", desc, err)
	}
	for _, name := range ws.prog.IDBPreds {
		if got, want := ws.Relation(name), fresh.Relation(name); !got.Equal(want) {
			t.Fatalf("after %s: %s = %v, its restore derives %v", desc, name, got.Slice(), want.Slice())
		}
	}
}
