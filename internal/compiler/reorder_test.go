package compiler

import (
	"slices"
	"testing"
)

func TestOrderMovesFirstVariablesAhead(t *testing.T) {
	// Join variables in compiler order: b (three atoms), then a, c.
	r := compile(t, `out(c, a) <- r(a, b), s(b, c), t(b).`).Rules[0]
	if got := r.VarNames[:r.NumJoinVars]; !slices.Equal(got, []string{"b", "a", "c"}) {
		t.Fatalf("compiler order = %v, want [b a c]", got)
	}
	if got := r.HeadVars(); !slices.Equal(got, []int{2, 1}) {
		t.Fatalf("HeadVars = %v, want [2 1]", got)
	}
	for _, first := range [][]int{
		{2, 1},
		{-1, 2, 2, 1, -1}, // negative and repeated entries are skipped
		{2, 1, 0},
	} {
		p := Order(r, first)
		if got := p.VarNames[:p.NumJoinVars]; !slices.Equal(got, []string{"c", "a", "b"}) {
			t.Fatalf("Order(%v) = %v, want [c a b]", first, got)
		}
		if got := p.HeadVars(); !slices.Equal(got, []int{0, 1}) {
			t.Fatalf("Order(%v).HeadVars = %v, want [0 1]", first, got)
		}
		for i, a := range p.Atoms {
			// Each atom reads the same stored columns, now bound to the
			// renumbered variables.
			want := StoredVars(r.Atoms[i])
			for c, v := range want {
				want[c] = slices.Index(p.VarNames, r.VarNames[v])
			}
			if got := StoredVars(a); !slices.Equal(got, want) || !slices.IsSorted(a.Vars) {
				t.Fatalf("Order(%v) atom %s: vars %v perm %v, stored %v want %v", first, a.Name, a.Vars, a.Perm, got, want)
			}
		}
	}
}

func TestOrderIdentityReturnsRule(t *testing.T) {
	r := compile(t, `out(b, a) <- r(a, b), s(b), t(b).`).Rules[0]
	for _, first := range [][]int{nil, {0}, {0, 1}, {-1, 0, 0}, r.HeadVars()} {
		if p := Order(r, first); p != r {
			t.Fatalf("Order(%v) made a new plan for an unchanged order", first)
		}
	}
}

// TestStreamOrderSeeksConstants: a streamed plan keeps the head
// variables in head-column order and places each constant-bound variable
// among them where the fewest atoms need a permuted index, earliest on a
// tie; past the cap the constants lead.
func TestStreamOrderSeeksConstants(t *testing.T) {
	for _, tc := range []struct {
		src   string
		order []string // the streamed plan's join variables
		perms int      // atoms needing a permuted index
	}{
		{`_(u) <- f(7, u).`, []string{"$k1", "u"}, 0},
		{`_(s, n) <- sales(7, s, n).`, []string{"$k1", "s", "n"}, 0},
		{`_(p, n) <- sales(p, 3, n).`, []string{"p", "$k1", "n"}, 0},
		{`_(p, s) <- sales(p, s, 4).`, []string{"p", "s", "$k1"}, 0},
		{`_(s) <- sales(7, s, 2).`, []string{"$k1", "s", "$k2"}, 0},
		{`_(x) <- r(x), s(7).`, []string{"$k1", "x"}, 0},
		{`_(n, s) <- sales(7, s, n).`, []string{"$k1", "n", "s"}, 1},
		{`_(a, b, c) <- r(a, 1, b, 2, c, 3).`, []string{"$k1", "$k2", "$k3", "a", "b", "c"}, 1},
		{`_(a, b) <- r(a, b).`, []string{"a", "b"}, 0},
	} {
		r := compile(t, tc.src).Rules[0]
		p := StreamOrder(r)
		perms := 0
		for _, a := range p.Atoms {
			if a.Perm != nil {
				perms++
			}
		}
		if got := p.VarNames[:p.NumJoinVars]; !slices.Equal(got, tc.order) || perms != tc.perms {
			t.Errorf("StreamOrder(%s) = %v with %d permuted atoms, want %v with %d", tc.src, got, perms, tc.order, tc.perms)
		}
	}
}

func TestHeadVarsMarksComputedColumns(t *testing.T) {
	r := compile(t, `out(x, 1, y) <- r(x, z), y = z + 1.`).Rules[0]
	if got := r.HeadVars(); got[0] != 0 || got[1] != -1 || got[2] != -1 {
		t.Fatalf("HeadVars = %v, want [0 -1 -1]", got)
	}
	agg := compile(t, `tot[s] = u <- agg<<u = sum(n)>> sales[p, s] = n.`).Rules[0]
	if got := agg.HeadVars(); len(got) != 1 || agg.VarNames[got[0]] != "s" {
		t.Fatalf("aggregate HeadVars = %v over %v, want the key s", got, agg.VarNames)
	}
}

func TestPlanAtomInvertsStoredVars(t *testing.T) {
	for _, stored := range [][]int{{}, {0}, {0, 1, 2}, {2, 0, 1}, {1, 0}, {3, 1, 2, 0}} {
		a := planAtom("r", stored)
		if !slices.IsSorted(a.Vars) || (a.Perm == nil) != slices.IsSorted(stored) {
			t.Fatalf("planAtom(%v) = vars %v perm %v", stored, a.Vars, a.Perm)
		}
		if got := StoredVars(a); !slices.Equal(got, stored) {
			t.Fatalf("StoredVars(planAtom(%v)) = %v", stored, got)
		}
	}
}
