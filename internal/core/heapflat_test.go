package core

import (
	"context"
	"fmt"
	"runtime"
	"testing"
)

// TestHeapFlatOverCommits: the database's retained heap follows its data,
// not its commit count. 20 000 one-fact upserts over 100 keys, each
// maintaining an aggregate view, with a query whose auxiliary aggregate
// the memo keeps every 100 commits, leave the heap after a collection
// within 1.25× of what it was at 2 000 commits.
func TestHeapFlatOverCommits(t *testing.T) {
	if testing.Short() {
		t.Skip("20 000 commits")
	}
	ws, err := NewWorkspace().AddBlock("b", `c[k] = v -> int(k), int(v).
total[] = u <- agg<<u = sum(v)>> c[k] = v.
big(k) <- c[k] = v, v > 50.`)
	if err != nil {
		t.Fatal(err)
	}
	db := NewDatabaseWith(ws)
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	var at2k uint64
	for i := 1; i <= 20000; i++ {
		rec := CommitRecord{Kind: "exec", Branch: DefaultBranch, Src: fmt.Sprintf("^c[%d] = %d.", i%100, i%97)}
		out, err := db.Apply(context.Background(), rec, TxOptions{})
		if err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
		if i%100 == 0 {
			if _, err := out.Workspace.Query("byK[k] = u <- agg<<u = sum(v)>> c[k] = v.\n_(k, u) <- byK[k] = u."); err != nil {
				t.Fatalf("query at commit %d: %v", i, err)
			}
		}
		if i == 2000 {
			at2k = heap()
		}
	}
	at20k := heap()
	runtime.KeepAlive(db)
	t.Logf("retained heap: %d B at 2 000 commits, %d B at 20 000", at2k, at20k)
	if float64(at20k) > 1.25*float64(at2k) {
		t.Fatalf("retained heap grew from %d B at 2 000 commits to %d B at 20 000 (> 1.25×)", at2k, at20k)
	}
}
