package graphgen

import "testing"

func TestPreferentialAttachmentDeterministic(t *testing.T) {
	a := PreferentialAttachment(500, 3, 42)
	b := PreferentialAttachment(500, 3, 42)
	if len(a) != len(b) {
		t.Fatalf("non-deterministic edge count: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic at %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := PreferentialAttachment(500, 3, 43)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatalf("different seeds produced identical graphs")
	}
}

func TestPreferentialAttachmentSkew(t *testing.T) {
	// The whole point of the generator: a heavy tail. The top 1% of
	// vertices should hold a disproportionate share of endpoints.
	edges := PreferentialAttachment(2000, 3, 7)
	maxDeg, top1 := DegreeStats(edges)
	if maxDeg < 20 {
		t.Errorf("max degree %d suspiciously small for preferential attachment", maxDeg)
	}
	if top1 < 0.05 {
		t.Errorf("top-1%% endpoint share %.3f shows no skew", top1)
	}
	// Contrast: an Erdős–Rényi graph of the same size is much flatter.
	er := ErdosRenyi(2000, len(edges), 7)
	erMax, _ := DegreeStats(er)
	if erMax >= maxDeg {
		t.Errorf("ER max degree %d >= PA max degree %d; generator not skewed", erMax, maxDeg)
	}
}

func TestCanonical(t *testing.T) {
	edges := []Edge{{2, 1}, {1, 2}, {3, 3}, {4, 5}}
	got := Canonical(edges)
	if len(got) != 2 {
		t.Fatalf("canonical = %v", got)
	}
	for _, e := range got {
		if e.U >= e.V {
			t.Fatalf("non-canonical edge %v", e)
		}
	}
}

func TestToRelation(t *testing.T) {
	edges := []Edge{{1, 2}, {3, 4}}
	r := ToRelation(edges)
	if r.Len() != 2 || r.Arity() != 2 {
		t.Fatalf("ToRelation wrong: %d tuples", r.Len())
	}
}

func TestErdosRenyiProperties(t *testing.T) {
	edges := ErdosRenyi(100, 300, 11)
	if len(edges) != 300 {
		t.Fatalf("edge count = %d", len(edges))
	}
	seen := map[[2]int64]bool{}
	for _, e := range edges {
		if e.U >= e.V {
			t.Fatalf("non-canonical ER edge %v", e)
		}
		k := [2]int64{e.U, e.V}
		if seen[k] {
			t.Fatalf("duplicate edge %v", e)
		}
		seen[k] = true
	}
}

func TestSmallGraphEdgeCases(t *testing.T) {
	if got := PreferentialAttachment(1, 3, 1); len(got) != 0 {
		t.Fatalf("single-vertex graph has edges: %v", got)
	}
	if got := PreferentialAttachment(2, 1, 1); len(got) != 1 {
		t.Fatalf("two-vertex graph: %v", got)
	}
	if maxDeg, share := DegreeStats(nil); maxDeg != 0 || share != 0 {
		t.Fatalf("empty DegreeStats = %d, %f", maxDeg, share)
	}
}
