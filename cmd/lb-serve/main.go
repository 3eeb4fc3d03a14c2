// Command lb-serve exposes a logicblox database over HTTP. Requests run
// as concurrent transactions with optimistic commits, per-request
// deadlines honored inside the engine, and Prometheus metrics on
// /metrics; see docs/server.md for the API.
//
// Usage:
//
//	lb-serve [-addr :8080] [-workers N] [-queue N] [-timeout 30s]
//	         [-retries 3] [-default-limit N]
//	         [-access-log stderr|stdout|file] [-slow-query 500ms]
//	         [-debug-addr :6060]
//	         [-data-dir dir [-fsync always|interval] [-fsync-interval 50ms]
//	          [-checkpoint-every 256] [-checkpoint-interval 30s]
//	          [-generations 3]]
//	         [-follow http://primary:8080 [-staleness-bound 10s]
//	          [-promote-on-failure] [-probe-interval 2s]]
//
// Observability: -access-log writes one JSON line per request (slog);
// -slow-query additionally logs any slower request with its full span
// tree and cached-plan fingerprints; -debug-addr serves net/http/pprof
// on a separate, private mux so profiling endpoints never share the
// public listener (see docs/server.md and docs/observability.md).
//
// With -data-dir, the server runs durably: at startup it recovers the
// database from the newest valid snapshot generation plus a replay of
// the commit journal, and every committed transaction is journaled
// write-ahead before the client sees its ack; shutdown writes a final
// checkpoint (see docs/durability.md). Without -data-dir the database
// lives in memory only. Either way POST /save and POST /load export and
// import a single snapshot file. On SIGINT/SIGTERM the server drains:
// new requests get 503 + Retry-After while in-flight transactions
// finish, and open /journal/tail streams end with a clean end-of-stream
// frame.
//
// With -follow, the server runs as a read replica: it bootstraps from
// the primary's snapshot, tails its commit journal over
// GET /journal/tail, replays records through the normal transaction
// path, and serves read-only queries — writes are rejected 421 with
// the primary's address. When replication has not caught up within
// -staleness-bound, /healthz and /query flip to 503 so load balancers
// route around the stale replica. POST /promote (or
// -promote-on-failure with -probe-interval) turns the follower into a
// writable primary; see docs/replication.md for the failover runbook.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"logicblox"
	"logicblox/internal/core"
	"logicblox/internal/durable"
	"logicblox/internal/replica"
	"logicblox/internal/server"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "max concurrently executing transactions (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 0, "max requests waiting for a worker before 503 (0 = 64)")
	timeout := flag.Duration("timeout", 30*time.Second, "default per-request deadline")
	retries := flag.Int("retries", 3, "max optimistic re-executions after commit conflicts")
	defaultLimit := flag.Int("default-limit", 0, "default row cap on materialized /query responses (0 = 10000, negative = uncapped; explicit limit in the request always wins)")
	dataDir := flag.String("data-dir", "", "run durably from this directory: snapshot generations + write-ahead commit journal")
	fsync := flag.String("fsync", durable.FsyncAlways, "journal fsync policy: always (durable acks) or interval (bounded loss, higher throughput)")
	fsyncInterval := flag.Duration("fsync-interval", 50*time.Millisecond, "journal flush period under -fsync interval")
	ckptEvery := flag.Int("checkpoint-every", 256, "checkpoint after this many journaled commits (<0 disables)")
	ckptInterval := flag.Duration("checkpoint-interval", 30*time.Second, "checkpoint at least this often while commits are pending (<0 disables)")
	generations := flag.Int("generations", 3, "rotated snapshot generations to keep in -data-dir")
	grace := flag.Duration("grace", 15*time.Second, "max time to drain in-flight requests on shutdown")
	accessLog := flag.String("access-log", "", "JSON access-log destination: stderr, stdout, or a file path (empty disables)")
	slowQuery := flag.Duration("slow-query", 500*time.Millisecond, "log requests slower than this with their span tree (needs -access-log; <=0 disables)")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof on this separate address (empty disables)")
	follow := flag.String("follow", "", "run as a read replica tailing this primary base URL (requires -data-dir; see docs/replication.md)")
	stalenessBound := flag.Duration("staleness-bound", 10*time.Second, "follower: flip /healthz and /query to 503 when not caught up for this long")
	promoteOnFailure := flag.Bool("promote-on-failure", false, "follower: auto-promote to primary after consecutive primary health-probe failures")
	probeInterval := flag.Duration("probe-interval", 2*time.Second, "follower: primary health-probe period for -promote-on-failure")
	flag.Parse()

	if *follow != "" && *dataDir == "" {
		log.Fatalf("lb-serve: -follow requires -data-dir (the follower journals replayed commits locally)")
	}

	reg := logicblox.NewObsRegistry()
	logicblox.EnableStorageStats(true)

	logger, logClose, err := openAccessLog(*accessLog)
	if err != nil {
		log.Fatalf("lb-serve: %v", err)
	}
	if logClose != nil {
		defer logClose()
	}

	var db *core.Database
	var store *durable.Store
	if *dataDir != "" {
		store, db, err = openDurable(*dataDir, durable.Options{
			Fsync:              *fsync,
			FsyncInterval:      *fsyncInterval,
			CheckpointEvery:    *ckptEvery,
			CheckpointInterval: *ckptInterval,
			Generations:        *generations,
			Obs:                reg,
		}, *follow == "")
		if err != nil {
			log.Fatalf("lb-serve: %v", err)
		}
	} else {
		db = logicblox.Open()
	}

	var follower *replica.Follower
	if *follow != "" {
		follower, err = replica.New(replica.Config{
			PrimaryURL:       *follow,
			Store:            store,
			DB:               db,
			StalenessBound:   *stalenessBound,
			PromoteOnFailure: *promoteOnFailure,
			ProbeInterval:    *probeInterval,
			Obs:              reg,
			Logger:           logger,
		})
		if err != nil {
			log.Fatalf("lb-serve: %v", err)
		}
		follower.Start(context.Background())
		log.Printf("lb-serve: following %s (staleness bound %s)", *follow, *stalenessBound)
	}

	s := server.New(db, server.Config{
		Workers:      *workers,
		Queue:        *queue,
		Timeout:      *timeout,
		MaxRetries:   *retries,
		DefaultLimit: *defaultLimit,
		Obs:          reg,
		Durable:      store,
		AccessLog:    logger,
		SlowQuery:    *slowQuery,
		Follower:     follower,
	})
	if store != nil {
		// The background checkpointer must snapshot whatever database the
		// server currently serves — POST /load and a follower resync both
		// swap the pointer.
		store.Start(s.SaveSnapshot)
	}

	if *debugAddr != "" {
		go serveDebug(*debugAddr)
	}

	httpSrv := &http.Server{Addr: *addr, Handler: s.Handler()}
	go func() {
		log.Printf("lb-serve: listening on %s", *addr)
		if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("lb-serve: %v", err)
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig

	// Graceful shutdown: reject new work immediately, then drain.
	log.Printf("lb-serve: draining (%d in flight)", s.Inflight())
	s.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("lb-serve: shutdown: %v", err)
	}
	if follower != nil {
		follower.Stop()
	}

	if store != nil {
		// Fold the journal tail into a final snapshot so the next boot
		// replays nothing; the journal keeps every record the retained
		// generations need, so even a failure here loses no commit.
		if err := store.Checkpoint(s.Database().SaveSnapshot); err != nil {
			log.Printf("lb-serve: final checkpoint: %v", err)
		}
		if err := store.Close(); err != nil {
			log.Printf("lb-serve: closing store: %v", err)
		}
	}
}

// openAccessLog builds the JSON slog logger for -access-log. The
// returned close function (nil unless a file was opened) flushes the log
// file on shutdown.
func openAccessLog(dest string) (*slog.Logger, func(), error) {
	var w *os.File
	switch dest {
	case "":
		return nil, nil, nil
	case "stderr":
		w = os.Stderr
	case "stdout":
		w = os.Stdout
	default:
		f, err := os.OpenFile(dest, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, nil, fmt.Errorf("access log %s: %w", dest, err)
		}
		return slog.New(slog.NewJSONHandler(f, nil)), func() { f.Close() }, nil
	}
	return slog.New(slog.NewJSONHandler(w, nil)), nil, nil
}

// serveDebug exposes net/http/pprof on its own mux and listener, so the
// profiling endpoints are bound to a private address instead of riding
// on the public API listener (and never on http.DefaultServeMux).
func serveDebug(addr string) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	log.Printf("lb-serve: pprof on %s/debug/pprof/", addr)
	if err := http.ListenAndServe(addr, mux); err != nil {
		log.Printf("lb-serve: debug listener: %v", err)
	}
}

// openDurable opens the data directory, recovers the database it
// describes (newest valid snapshot generation + journal replay) and, on
// a primary, hooks the journal into the commit path. In follower mode
// (primary=false) the replica subsystem journals replayed records itself
// and installs the hook on promotion. The caller starts the background
// checkpointer once the server exists.
func openDurable(dir string, opts durable.Options, primary bool) (*durable.Store, *core.Database, error) {
	store, err := durable.Open(dir, opts)
	if err != nil {
		return nil, nil, err
	}
	db, err := store.Recover(func() (*core.Database, error) {
		return logicblox.Open(), nil
	})
	if err != nil {
		store.Close()
		return nil, nil, fmt.Errorf("recovering %s: %w", dir, err)
	}
	st := store.Stats()
	log.Printf("lb-serve: recovered %s (snapshot seq %d, %d journal records replayed, %d corrupt generations skipped)",
		dir, st.RecoveredSnapshotSeq, st.JournalReplayed, st.CorruptSkipped)
	if primary {
		db.SetCommitHook(store.LogCommit)
	}
	return store, db, nil
}
