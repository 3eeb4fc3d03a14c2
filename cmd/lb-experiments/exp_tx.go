package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"logicblox/internal/core"
)

// runRepair reproduces the paper's §3.4 illustration on the real engine:
// optimistic transactions race for one branch head, and a loser either
// re-executes in full (coarse retry) or is repaired from its recorded
// sensitivity intervals. Each transaction touches any of n inventory
// items with probability α·n^(−1/2), so two transactions share α² items
// in expectation; every touched item is decremented through a point read
// (^inv[k] = r <- inv@start[k] = q, r = q - 1.), which records a point
// interval on exactly that key. A loser with an item set disjoint from
// the winner's replays its strata from the record; one that shares items
// re-evaluates them on the new head with its compiled program. Either
// way the repair arm never re-executes in full, while the coarse arm
// re-executes every lost race — hardware-independent counts beside the
// wall-clock speedups (bounded by GOMAXPROCS, printed below).
func runRepair(quick bool) {
	n := 2000
	txCount := 128
	if quick {
		n, txCount = 500, 48
	}
	workerSet := []int{2, 4, 8}
	cpus := runtime.GOMAXPROCS(0)
	fmt.Printf("GOMAXPROCS = %d (speedups are bounded by available cores)\n", cpus)

	for _, alpha := range []float64{0.1, 1, 10} {
		seed := inventoryWorkspace(n)
		txs := inventoryTxns(n, txCount, alpha, 11)
		ops := 0
		for _, tx := range txs {
			ops += strings.Count(tx, "\n")
		}
		fmt.Printf("alpha=%.1f: E[shared items per pair] = %.2f, avg ops/tx = %d\n",
			alpha, alpha*alpha, ops/len(txs))

		t0 := time.Now()
		want := runTxSerial(core.NewDatabaseWith(seed), txs)
		serial := time.Since(t0)
		fmt.Printf("  serial: %v\n", serial.Round(time.Millisecond))
		fmt.Printf("  %-9s %-12s %-9s %-9s %-9s %-12s %-9s %-9s\n",
			"workers", "repair", "speedup", "repaired", "full", "coarse", "speedup", "full")
		for _, w := range workerSet {
			t0 = time.Now()
			gotR, statsR := runTxConcurrent(core.NewDatabaseWith(seed), txs, w, true)
			dR := time.Since(t0)
			t0 = time.Now()
			gotC, statsC := runTxConcurrent(core.NewDatabaseWith(seed), txs, w, false)
			dC := time.Since(t0)
			if !want.Relation("inv").Equal(gotR.Relation("inv")) || !want.Relation("inv").Equal(gotC.Relation("inv")) {
				panic("serializability violated: concurrent final state diverged from serial")
			}
			if statsR.fullReexecs != 0 {
				panic(fmt.Sprintf("repair arm re-executed %d transactions in full; the logic never changes, so every lost race must repair", statsR.fullReexecs))
			}
			fmt.Printf("  %-9d %-12v %-9.2f %-9d %-9d %-12v %-9.2f %-9d\n",
				w, dR.Round(time.Millisecond), serial.Seconds()/dR.Seconds(), statsR.repairs, statsR.fullReexecs,
				dC.Round(time.Millisecond), serial.Seconds()/dC.Seconds(), statsC.fullReexecs)
		}
	}
	fmt.Println("shape check: the repair arm repairs every lost race (full = 0, the logic")
	fmt.Println("never changes; a loser sharing items with the winner re-evaluates its stratum);")
	fmt.Println("the coarse arm re-executes every lost race, more of them as α² grows.")
}

// inventoryWorkspace seeds inv[k] = 1000 for k in [0, n).
func inventoryWorkspace(n int) *core.Workspace {
	var b strings.Builder
	for k := 0; k < n; k++ {
		fmt.Fprintf(&b, "+inv[%d] = 1000.\n", k)
	}
	ws := core.NewWorkspace()
	res, err := ws.Exec(b.String())
	if err != nil {
		panic(err)
	}
	return res.Workspace
}

// inventoryTxns builds txCount transaction sources; each decrements every
// item it touches (probability α·n^(−1/2) per item) via a point read.
func inventoryTxns(n, txCount int, alpha float64, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	p := alpha / math.Sqrt(float64(n))
	txs := make([]string, 0, txCount)
	for i := 0; i < txCount; i++ {
		var b strings.Builder
		for k := 0; k < n; k++ {
			if rng.Float64() < p {
				fmt.Fprintf(&b, "^inv[%d] = r <- inv@start[%d] = q, r = q - 1.\n", k, k)
			}
		}
		if b.Len() == 0 { // empty transactions carry no signal
			k := rng.Intn(n)
			fmt.Fprintf(&b, "^inv[%d] = r <- inv@start[%d] = q, r = q - 1.\n", k, k)
		}
		txs = append(txs, b.String())
	}
	return txs
}

type txStats struct {
	repairs, fullReexecs int64
}

// runTxSerial applies the transactions one at a time — the ground-truth
// final state and the speedup baseline.
func runTxSerial(db *core.Database, txs []string) *core.Workspace {
	head, _ := runTxConcurrent(db, txs, 1, false)
	return head
}

// runTxConcurrent races the transactions over `workers` goroutines.
// The repair arm commits through the database's own optimistic-commit
// loop (core.Database.Apply, the path lb-serve commits through), which
// repairs every lost race from the recorded execution. The coarse arm
// applies each transaction without retries and, on ErrConflict, backs
// off and re-executes it in full against the new head.
func runTxConcurrent(db *core.Database, txs []string, workers int, repair bool) (*core.Workspace, txStats) {
	var stats txStats
	work := make(chan string, len(txs))
	for _, src := range txs {
		work <- src
	}
	close(work)
	var opt core.TxOptions
	if repair {
		opt.MaxRetries = math.MaxInt
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for src := range work {
				rec := core.CommitRecord{Kind: "exec", Branch: "main", Src: src}
				for attempt := 1; ; attempt++ {
					out, err := db.Apply(context.Background(), rec, opt)
					atomic.AddInt64(&stats.repairs, int64(out.Repairs))
					atomic.AddInt64(&stats.fullReexecs, int64(out.FullReexecs))
					if err == nil {
						break
					}
					if repair || !errors.Is(err, core.ErrConflict) {
						panic(err)
					}
					atomic.AddInt64(&stats.fullReexecs, 1)
					core.BackoffConflict(context.Background(), attempt)
				}
			}
		}()
	}
	wg.Wait()
	head, _ := db.Workspace("main")
	return head, stats
}
