package tuple

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTupleCompareLexicographic(t *testing.T) {
	cases := []struct {
		a, b Tuple
		want int
	}{
		{Ints(1, 2), Ints(1, 3), -1},
		{Ints(1, 3), Ints(1, 2), 1},
		{Ints(1, 2), Ints(1, 2), 0},
		{Ints(1), Ints(1, 0), -1}, // prefix orders first
		{Ints(2), Ints(1, 9), 1},
		{Tuple{}, Ints(0), -1},
		{Tuple{}, Tuple{}, 0},
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("%v.Compare(%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestTupleEqualAndClone(t *testing.T) {
	a := Of(Int(1), String("x"), Float(2.5))
	b := a.Clone()
	if !a.Equal(b) {
		t.Fatalf("clone not equal")
	}
	b[0] = Int(9)
	if a.Equal(b) {
		t.Fatalf("mutating clone affected original comparison")
	}
	if a[0].AsInt() != 1 {
		t.Fatalf("clone shares storage with original")
	}
}

func TestTuplePermute(t *testing.T) {
	a := Ints(10, 20, 30)
	p := a.Permute([]int{2, 0, 1})
	want := Ints(30, 10, 20)
	if !p.Equal(want) {
		t.Errorf("Permute = %v, want %v", p, want)
	}
}

func TestTupleHashConsistency(t *testing.T) {
	f := func(a, b int64) bool {
		return Ints(a, b).Hash() == Ints(a, b).Hash()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if Ints(1, 2).Hash() == Ints(2, 1).Hash() {
		t.Errorf("hash ignores order")
	}
}

func TestSortTuplesAndDedup(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var ts []Tuple
	for i := 0; i < 500; i++ {
		ts = append(ts, Ints(rng.Int63n(20), rng.Int63n(20)))
	}
	SortTuples(ts)
	for i := 1; i < len(ts); i++ {
		if ts[i-1].Compare(ts[i]) > 0 {
			t.Fatalf("not sorted at %d", i)
		}
	}
	d := DedupSorted(ts)
	for i := 1; i < len(d); i++ {
		if d[i-1].Compare(d[i]) >= 0 {
			t.Fatalf("dedup left duplicate or disorder at %d", i)
		}
	}
	// Every original tuple must still be present in the deduped slice.
	present := func(x Tuple) bool {
		for _, y := range d {
			if x.Equal(y) {
				return true
			}
		}
		return false
	}
	for _, x := range ts {
		if !present(x) {
			t.Fatalf("dedup dropped %v entirely", x)
		}
	}
}

func TestSortTuplesEmptyAndSingle(t *testing.T) {
	SortTuples(nil)
	one := []Tuple{Ints(1)}
	SortTuples(one)
	if len(one) != 1 {
		t.Fatal("single-element sort broke slice")
	}
	if got := DedupSorted(nil); len(got) != 0 {
		t.Fatalf("DedupSorted(nil) = %v", got)
	}
}

func TestTupleString(t *testing.T) {
	got := Of(Int(1), String("a")).String()
	if got != `(1, "a")` {
		t.Errorf("String() = %q", got)
	}
}

// TestTupleAppendKey: two tuples encode alike exactly when Compare finds
// them equal, and then hash alike, across kinds, signed zeros, NaN
// payloads and strings whose bytes could run into the next value.
func TestTupleAppendKey(t *testing.T) {
	vals := []Value{
		Null, Bool(false), Bool(true), Int(0), Int(1), Int(-1), Float(0), Float(math.Copysign(0, -1)),
		Float(1), Float(-1), Float(math.NaN()), Float(math.Float64frombits(0xfff8_0000_0000_0abc)),
		String(""), String("1"), String("a"), String("a\x00"),
		Entity(1, 0), Entity(0, 1), MaxValue(),
	}
	var ts []Tuple
	for _, a := range vals {
		ts = append(ts, Of(a))
		for _, b := range vals {
			ts = append(ts, Of(a, b))
		}
	}
	ts = append(ts, Of(String("a"), String("b")), Of(String("ab")), Of(String("a"), String("")))
	for _, x := range ts {
		for _, y := range ts {
			same := string(x.AppendKey(nil)) == string(y.AppendKey(nil))
			if want := x.Compare(y) == 0; same != want {
				t.Fatalf("AppendKey(%v) == AppendKey(%v) is %v; Compare says equal=%v", x, y, same, want)
			}
			if same && x.Hash() != y.Hash() {
				t.Fatalf("%v and %v encode alike but hash apart", x, y)
			}
		}
	}
}
