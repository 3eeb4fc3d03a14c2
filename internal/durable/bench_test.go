package durable_test

import (
	"bytes"
	"fmt"
	"testing"

	"logicblox/internal/core"
	"logicblox/internal/durable"
	"logicblox/internal/tuple"
)

// checkpointDB builds a retail-shaped database of facts sales facts
// (sales[p, s, wk] = n over 10 stores × 10 weeks, and a derived weekly
// total) in one of three head shapes: "1head" is main alone; "4alias"
// adds three branches that alias main's head (O(1) branches, one head);
// "4diverged" adds three branches that each commit 20 facts of their
// own, so the snapshot holds four distinct heads.
func checkpointDB(b *testing.B, facts int, shape string) *core.Database {
	b.Helper()
	db := core.NewDatabase()
	ws, err := db.Workspace(core.DefaultBranch)
	if err != nil {
		b.Fatal(err)
	}
	ws, err = ws.AddBlock("retail", `
		sales[p, s, wk] = n -> int(p), int(s), int(wk), int(n).
		salesByWeek[wk] = u <- agg<<u = sum(n)>> sales[p, s, wk] = n.`)
	if err != nil {
		b.Fatal(err)
	}
	rows := make([]tuple.Tuple, 0, facts)
	for i := 0; i < facts; i++ {
		rows = append(rows, tuple.Ints(int64(i/100), int64(i/10%10), int64(i%10), int64(i%97)))
	}
	if ws, err = ws.Load("sales", rows); err != nil {
		b.Fatal(err)
	}
	if err := db.Commit(core.DefaultBranch, ws); err != nil {
		b.Fatal(err)
	}
	if shape == "1head" {
		return db
	}
	for k := 1; k < 4; k++ {
		name := fmt.Sprintf("b%d", k)
		if err := db.Branch(core.DefaultBranch, name); err != nil {
			b.Fatal(err)
		}
		if shape != "4diverged" {
			continue
		}
		var src bytes.Buffer
		for i := 0; i < 20; i++ {
			fmt.Fprintf(&src, "+sales[%d, %d, %d] = %d.\n", -k, i/10, i%10, i)
		}
		res, err := ws.Exec(src.String())
		if err != nil {
			b.Fatal(err)
		}
		if err := db.Commit(name, res.Workspace); err != nil {
			b.Fatal(err)
		}
	}
	return db
}

// BenchmarkCheckpoint times Store.Checkpoint, snapshot encode plus the
// crash-safe generation write and journal truncation, at 20k and 50k
// facts in each head shape. snap-B is the size of one snapshot payload.
func BenchmarkCheckpoint(b *testing.B) {
	for _, facts := range []int{20000, 50000} {
		for _, shape := range []string{"1head", "4alias", "4diverged"} {
			b.Run(fmt.Sprintf("facts=%d/%s", facts, shape), func(b *testing.B) {
				db := checkpointDB(b, facts, shape)
				st, err := durable.Open(b.TempDir(), durable.Options{CheckpointEvery: -1, CheckpointInterval: -1})
				if err != nil {
					b.Fatal(err)
				}
				defer st.Close()
				if db, err = st.Recover(func() (*core.Database, error) { return db, nil }); err != nil {
					b.Fatal(err)
				}
				var snap bytes.Buffer
				if _, err := db.SaveSnapshot(&snap); err != nil {
					b.Fatal(err)
				}
				head, err := db.Workspace(core.DefaultBranch)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					// A checkpoint with nothing committed since the last
					// one is a no-op; an unchanged commit moves the seq.
					b.StopTimer()
					if err := db.Commit(core.DefaultBranch, head); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					if err := st.Checkpoint(db.SaveSnapshot); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(snap.Len()), "snap-B")
			})
		}
	}
}
