package bench

import (
	"context"
	"net/http/httptest"
	"reflect"
	"runtime"
	"testing"
	"time"

	"logicblox/internal/core"
	"logicblox/internal/durable"
	"logicblox/internal/durable/faultfs"
	"logicblox/internal/obs"
	"logicblox/internal/replica"
	"logicblox/internal/server"
)

// TestGenOpsDeterministic: the op sequence is a pure function of the
// config — same seed replays the same workload, a different seed does
// not.
func TestGenOpsDeterministic(t *testing.T) {
	cfg := Config{Seed: 7, Ops: 500, Keys: 32, ReadFrac: 0.5, HotFrac: 0.8, Branches: 3, Rate: 200}
	a, b := GenOps(cfg), GenOps(cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same config produced different op sequences")
	}
	cfg2 := cfg
	cfg2.Seed = 8
	if reflect.DeepEqual(a, GenOps(cfg2)) {
		t.Fatal("different seeds produced identical op sequences")
	}

	// The sequence respects the configured shape: both op kinds, all
	// branches, monotone arrival schedule, keys in range.
	kinds, branches := map[string]int{}, map[string]int{}
	var prev time.Duration
	for _, op := range a {
		kinds[op.Kind]++
		branches[op.Branch]++
		if op.Arrival < prev {
			t.Fatalf("arrival schedule not monotone: %v after %v", op.Arrival, prev)
		}
		prev = op.Arrival
		if op.Key < 0 || op.Key >= cfg.Keys {
			t.Fatalf("key %d out of range", op.Key)
		}
	}
	if kinds["exec"] == 0 || kinds["query"] == 0 {
		t.Fatalf("op mix missing a kind: %v", kinds)
	}
	for _, b := range []string{"main", "bench-1", "bench-2"} {
		if branches[b] == 0 {
			t.Fatalf("branch fan-out missing %s: %v", b, branches)
		}
	}
}

func TestPercentile(t *testing.T) {
	lats := make([]time.Duration, 100)
	for i := range lats {
		lats[i] = time.Duration(i+1) * time.Millisecond
	}
	for _, tc := range []struct {
		q    float64
		want time.Duration
	}{
		{0.50, 50 * time.Millisecond},
		{0.95, 95 * time.Millisecond},
		{0.99, 99 * time.Millisecond},
		{1.0, 100 * time.Millisecond},
	} {
		if got := percentile(lats, tc.q); got != tc.want {
			t.Errorf("percentile(%.2f) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile(empty) = %v", got)
	}
}

// TestBenchSmoke runs a small seeded closed-loop benchmark against an
// in-process server (part of `make ci`): the report must be
// well-formed, with zero 5xx answers, non-zero latency
// percentiles for both endpoints, and contention evidence (server-side
// optimistic retries and/or client-visible 409 conflicts) from the
// hot-key write skew.
func TestBenchSmoke(t *testing.T) {
	// On a single-CPU box GOMAXPROCS(1) serializes the sub-millisecond
	// transactions so writers never race; give the scheduler parallel Ps
	// so optimistic commits genuinely interleave.
	if runtime.GOMAXPROCS(0) < 4 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	}
	reg := obs.NewRegistry()
	s := server.New(core.NewDatabase(), server.Config{Workers: 4, MaxRetries: 1, Obs: reg})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	r := &Runner{
		Config: Config{
			BaseURL:     ts.URL,
			Seed:        42,
			Mode:        ModeClosed,
			Concurrency: 6,
			Ops:         300,
			Keys:        8,
			ReadFrac:    0.4,
			HotFrac:     0.9,
			Branches:    2,
			QueueSample: time.Millisecond,
		},
		Client: ts.Client(),
	}
	if err := r.Setup(); err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	if rep.TotalOps != 300 {
		t.Fatalf("TotalOps = %d, want 300", rep.TotalOps)
	}
	if rep.Errors5xx != 0 {
		t.Fatalf("Errors5xx = %d, statuses %v", rep.Errors5xx, rep.StatusCounts)
	}
	if rep.Throughput <= 0 || rep.ElapsedMs <= 0 {
		t.Fatalf("throughput/elapsed not positive: %+v", rep)
	}
	for _, ep := range []string{"exec", "query"} {
		st, ok := rep.Endpoints[ep]
		if !ok || st.Count == 0 {
			t.Fatalf("no %s samples: %v", ep, rep.Endpoints)
		}
		if st.P50Ms <= 0 || st.P95Ms <= 0 || st.P99Ms <= 0 {
			t.Fatalf("%s percentiles not positive: %+v", ep, st)
		}
		if st.P50Ms > st.P95Ms || st.P95Ms > st.P99Ms || st.P99Ms > st.MaxMs {
			t.Fatalf("%s percentiles not monotone: %+v", ep, st)
		}
	}
	// Six workers hammering eight keys (90% in the hot set) on two
	// branches with MaxRetries 1 must collide: some execs re-run
	// optimistically, some surface 409 after exhausting retries.
	if rep.Conflicts+rep.Retries == 0 {
		t.Fatalf("no contention evidence: %+v", rep)
	}
}

// TestBenchStream: with Stream set, query ops consume the NDJSON
// response (accounted under the query.stream endpoint with row/byte
// totals) and scan ops transfer full relations; the gauge sampler picks
// up the server's heap profile alongside queue depth.
func TestBenchStream(t *testing.T) {
	reg := obs.NewRegistry()
	s := server.New(core.NewDatabase(), server.Config{Workers: 4, Obs: reg})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	r := &Runner{
		Config: Config{
			BaseURL:     ts.URL,
			Seed:        7,
			Mode:        ModeClosed,
			Concurrency: 4,
			Ops:         200,
			Keys:        16,
			ReadFrac:    0.6,
			Stream:      true,
			ScanFrac:    0.5,
			QueueSample: time.Millisecond,
		},
		Client: ts.Client(),
	}
	if err := r.Setup(); err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors5xx != 0 {
		t.Fatalf("Errors5xx = %d, statuses %v", rep.Errors5xx, rep.StatusCounts)
	}
	st, ok := rep.Endpoints["query.stream"]
	if !ok || st.Count == 0 {
		t.Fatalf("no query.stream samples: %v", rep.Endpoints)
	}
	if _, ok := rep.Endpoints["query"]; ok {
		t.Fatalf("streamed run still produced materialized query samples: %v", rep.Endpoints)
	}
	if rep.StreamBytes <= 0 {
		t.Fatalf("stream bytes = %d", rep.StreamBytes)
	}
	if got := reg.Counter("server.query.streamed").Value(); got != int64(st.Count) {
		t.Fatalf("server.query.streamed = %d, client saw %d", got, st.Count)
	}
	if len(rep.HeapInuse) == 0 || rep.HeapInuseMax <= 0 {
		t.Fatalf("no heap samples: len=%d max=%d", len(rep.HeapInuse), rep.HeapInuseMax)
	}

	// ScanFrac must not perturb the op sequence of an existing seed.
	plain := Config{Seed: 7, Ops: 200, Keys: 16, ReadFrac: 0.6}
	scanning := plain
	scanning.ScanFrac = 0.5
	a, b := GenOps(plain), GenOps(scanning)
	for i := range a {
		b[i].Scan = false
		if !reflect.DeepEqual(a[i], b[i]) {
			t.Fatalf("op %d diverged once ScanFrac was set: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestBenchReplicaRouting: with ReplicaURLs set, the read fraction is
// routed round-robin across the replicas (writes stay on the primary),
// the report carries per-target latency summaries, and the lag poller
// records each replica's observed max lag.
func TestBenchReplicaRouting(t *testing.T) {
	pst, err := durable.Open("data", durable.Options{
		FS: faultfs.New(), Generations: 2, CheckpointEvery: -1, CheckpointInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pst.Close() })
	pdb, err := pst.Recover(func() (*core.Database, error) { return core.NewDatabase(), nil })
	if err != nil {
		t.Fatal(err)
	}
	pdb.SetCommitHook(pst.LogCommit)
	ps := server.New(pdb, server.Config{
		Durable: pst, Workers: 4, TailWindow: 2 * time.Second, TailHeartbeat: 20 * time.Millisecond,
	})
	pts := httptest.NewServer(ps.Handler())
	defer pts.Close()

	var replicaURLs []string
	var fols []*replica.Follower
	for i := 0; i < 2; i++ {
		fst, err := durable.Open("fdata", durable.Options{
			FS: faultfs.New(), Generations: 2, CheckpointEvery: -1, CheckpointInterval: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { fst.Close() })
		fdb, err := fst.Recover(func() (*core.Database, error) { return core.NewDatabase(), nil })
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		fol, err := replica.New(replica.Config{
			PrimaryURL: pts.URL, Store: fst, DB: fdb,
			StalenessBound: time.Minute, PollWindow: time.Second, Obs: reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		fol.Start(context.Background())
		t.Cleanup(fol.Stop)
		fs := server.New(fdb, server.Config{Follower: fol, Durable: fst, Workers: 4, Obs: reg})
		fts := httptest.NewServer(fs.Handler())
		t.Cleanup(fts.Close)
		replicaURLs = append(replicaURLs, fts.URL)
		fols = append(fols, fol)
	}

	r := &Runner{
		Config: Config{
			BaseURL:     pts.URL,
			Seed:        11,
			Mode:        ModeClosed,
			Concurrency: 4,
			Ops:         200,
			Keys:        16,
			ReadFrac:    0.6,
			QueueSample: 2 * time.Millisecond,
			ReplicaURLs: replicaURLs,
		},
		Client: pts.Client(),
	}
	if err := r.Setup(); err != nil {
		t.Fatal(err)
	}
	// Let both followers replay the schema install before reads land on
	// them, so no read 503s as never-caught-up stale.
	head := pst.Stats().LastSeq
	deadline := time.Now().Add(10 * time.Second)
	for _, fol := range fols {
		for fol.Status().AppliedSeq < head {
			if time.Now().After(deadline) {
				t.Fatal("follower did not catch up with bench schema")
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	rep, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors5xx != 0 {
		t.Fatalf("Errors5xx = %d, statuses %v", rep.Errors5xx, rep.StatusCounts)
	}

	// Every target got ops: the primary exactly the writes, the replicas
	// the reads split round-robin.
	if len(rep.Targets) != 3 {
		t.Fatalf("targets = %v, want primary + 2 replicas", rep.Targets)
	}
	execCount := rep.Endpoints["exec"].Count
	queryCount := rep.Endpoints["query"].Count
	if execCount == 0 || queryCount == 0 {
		t.Fatalf("op mix missing a kind: %v", rep.Endpoints)
	}
	if got := rep.Targets[pts.URL].Count; got != execCount {
		t.Fatalf("primary received %d ops, want the %d writes only", got, execCount)
	}
	var replicaOps int
	for _, u := range replicaURLs {
		st := rep.Targets[u]
		if st.Count == 0 {
			t.Fatalf("replica %s received no reads: %v", u, rep.Targets)
		}
		if st.P50Ms <= 0 || st.P50Ms > st.MaxMs {
			t.Fatalf("replica %s percentiles malformed: %+v", u, st)
		}
		replicaOps += st.Count
	}
	if replicaOps != queryCount {
		t.Fatalf("replicas received %d ops, want all %d reads", replicaOps, queryCount)
	}
	// Round-robin balance: with 2 replicas the split is even within one.
	d := rep.Targets[replicaURLs[0]].Count - rep.Targets[replicaURLs[1]].Count
	if d < -1 || d > 1 {
		t.Fatalf("round-robin imbalance: %d vs %d reads",
			rep.Targets[replicaURLs[0]].Count, rep.Targets[replicaURLs[1]].Count)
	}

	// The lag poller sampled both replicas' /healthz.
	if len(rep.ReplicaLagMax) != 2 {
		t.Fatalf("replica lag map = %v, want both replicas sampled", rep.ReplicaLagMax)
	}
	if rep.ReplicaLagMaxSeq < 0 {
		t.Fatalf("ReplicaLagMaxSeq = %d", rep.ReplicaLagMaxSeq)
	}
}
