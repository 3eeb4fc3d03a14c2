package pmap

import (
	"sort"
	"testing"
	"testing/quick"
)

func TestMapBasics(t *testing.T) {
	m := NewMap[int]()
	m1 := m.Set("a", 1).Set("b", 2)
	if v, ok := m1.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %d,%v", v, ok)
	}
	if m.Len() != 0 {
		t.Fatalf("original map mutated")
	}
	m2 := m1.Delete("a")
	if m2.Contains("a") || !m1.Contains("a") {
		t.Fatalf("delete semantics wrong")
	}
	if got := m1.Keys(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("Keys = %v", got)
	}
}

func TestMapRangeOrderAndEarlyStop(t *testing.T) {
	m := NewMap[int]().Set("c", 3).Set("a", 1).Set("b", 2)
	var ks []string
	m.Range(func(k string, v int) bool {
		ks = append(ks, k)
		return k != "b"
	})
	if len(ks) != 2 || ks[0] != "a" || ks[1] != "b" {
		t.Fatalf("Range visited %v", ks)
	}
}

func TestMapDiff(t *testing.T) {
	old := NewMap[int]().Set("x", 1).Set("y", 2).Set("z", 3)
	upd := old.Delete("y").Set("w", 9).Set("z", 30)
	var del, ins, chg []string
	old.Diff(upd, func(a, b int) bool { return a == b },
		func(k string, _ int) { del = append(del, k) },
		func(k string, _ int) { ins = append(ins, k) },
		func(k string, _, _ int) { chg = append(chg, k) })
	if len(del) != 1 || del[0] != "y" {
		t.Fatalf("del = %v", del)
	}
	if len(ins) != 1 || ins[0] != "w" {
		t.Fatalf("ins = %v", ins)
	}
	if len(chg) != 1 || chg[0] != "z" {
		t.Fatalf("chg = %v", chg)
	}
}

func TestMapModelProperty(t *testing.T) {
	// Persistent map behaves like Go's built-in map under random workloads.
	f := func(ops []struct {
		Key string
		Val int
		Del bool
	}) bool {
		m := NewMap[int]()
		model := map[string]int{}
		for _, op := range ops {
			if op.Del {
				m = m.Delete(op.Key)
				delete(model, op.Key)
			} else {
				m = m.Set(op.Key, op.Val)
				model[op.Key] = op.Val
			}
		}
		if m.Len() != len(model) {
			return false
		}
		keys := m.Keys()
		if !sort.StringsAreSorted(keys) {
			return false
		}
		for k, v := range model {
			if got, ok := m.Get(k); !ok || got != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
