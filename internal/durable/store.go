package durable

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"logicblox/internal/core"
	"logicblox/internal/obs"
)

// ErrClosed reports an operation on a store that has been Closed.
var ErrClosed = errors.New("durable: store is closed")

// Options tunes a Store. The zero value takes the documented defaults.
type Options struct {
	// FS is the filesystem (default: the real one). The fault-injection
	// harness passes a faultfs.FS here.
	FS FS
	// Generations is how many rotated snapshot generations to keep
	// (default 3). Recovery falls back through them newest-first when a
	// generation is corrupt, so the journal is only truncated up to the
	// oldest retained generation's sequence number.
	Generations int
	// CheckpointEvery triggers a checkpoint after this many journaled
	// commits (default 256; <0 disables count-based checkpoints).
	CheckpointEvery int
	// CheckpointInterval triggers a periodic checkpoint when commits are
	// pending (default 30s; <0 disables timer-based checkpoints).
	CheckpointInterval time.Duration
	// Obs receives the durable.* counters, gauges and histograms; nil is
	// a valid no-op registry.
	Obs *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.FS == nil {
		o.FS = OS
	}
	if o.Generations <= 0 {
		o.Generations = 3
	}
	if o.CheckpointEvery == 0 {
		o.CheckpointEvery = 256
	}
	if o.CheckpointInterval == 0 {
		o.CheckpointInterval = 30 * time.Second
	}
	return o
}

// Stats is a point-in-time view of the store, surfaced on /healthz.
type Stats struct {
	// Recovery outcome of the last Recover call.
	RecoveredSnapshotSeq uint64 `json:"recovered_snapshot_seq"`
	JournalReplayed      int    `json:"journal_replayed"`
	CorruptSkipped       int    `json:"corrupt_skipped"`
	// Live state.
	LastSeq            uint64 `json:"last_seq"`
	RetainedFloor      uint64 `json:"retained_floor"`
	PendingCommits     int    `json:"pending_commits"`
	Generations        int    `json:"generations"`
	LastCheckpointSeq  uint64 `json:"last_checkpoint_seq"`
	LastCheckpointUnix int64  `json:"last_checkpoint_unix"`
}

// SaveFunc writes a database snapshot payload and returns the operation
// sequence number it covers (core.Database.SaveSnapshot).
type SaveFunc func(io.Writer) (uint64, error)

// Store is the durability subsystem for one data directory: rotated
// checksummed snapshot generations plus a write-ahead commit journal.
// LogCommit is installed as the database's commit hook; Checkpoint (or
// the background checkpointer started by Start) folds the journal into
// a fresh snapshot generation. All methods are safe for concurrent use.
//
// Once Recover has run, the journal's valid records are exactly tail:
// the acknowledged records above the retained floor, each fsynced before
// its ack. A failed journal write breaks that (the file may end in a
// torn frame, or hold a rejected record whose fsync failed), so the
// store rewrites the journal from tail before it appends anything else.
type Store struct {
	dir  string
	opts Options
	fsys FS
	reg  *obs.Registry

	mu       sync.Mutex // journal handle, genSeqs, pending counters
	j        *journal
	genSeqs  []uint64 // retained snapshot generations, ascending
	lastSeq  uint64   // last journaled sequence number
	pending  int      // journaled commits since the newest snapshot
	lastCkpt time.Time
	closed   bool

	// tail mirrors the journal's records above the retained floor in
	// memory — the cursor GET /journal/tail streams from, and what
	// Checkpoint rewrites the journal from, so neither rereads the
	// journal file. Populated by Recover, appended by LogCommit, trimmed
	// by Checkpoint's truncation.
	tail []core.CommitRecord
	// ready is set once Recover has seeded tail; LogCommit and
	// Checkpoint refuse to run before.
	ready bool
	// broken is set when a journal write failed and cleared once the
	// journal has been rewritten from tail (repairLocked).
	broken bool
	// notify is closed and replaced under mu whenever the tail grows (or
	// the store closes): the broadcast WaitSeq long-polls on.
	notify chan struct{}

	cpMu sync.Mutex // single-flight checkpoints

	recovered Stats // recovery outcome, frozen after Recover

	kick chan struct{}
	stop chan struct{}
	wg   sync.WaitGroup
}

// Open opens (creating if needed) the data directory and its journal.
func Open(dir string, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	if err := opts.FS.MkdirAll(dir); err != nil {
		return nil, err
	}
	s := &Store{
		dir:    dir,
		opts:   opts,
		fsys:   opts.FS,
		reg:    opts.Obs,
		j:      &journal{fsys: opts.FS, dir: dir},
		kick:   make(chan struct{}, 1),
		stop:   make(chan struct{}),
		notify: make(chan struct{}),
	}
	seqs, err := listGenerations(s.fsys, dir)
	if err != nil {
		return nil, err
	}
	s.genSeqs = seqs
	if err := s.j.open(); err != nil {
		return nil, err
	}
	return s, nil
}

// Dir returns the store's data directory.
func (s *Store) Dir() string { return s.dir }

// Recover rebuilds the database this directory describes: the newest
// snapshot generation that validates (corrupt generations are skipped,
// counted in durable.corrupt_skipped; one of a payload version this build
// does not read stops recovery with core.ErrSnapshotVersion) plus a
// replay of the journal tail
// through the normal transaction path (derived predicates re-derive;
// paper T4 #5). fresh supplies the database when the directory holds no
// usable snapshot. The returned database has no commit hook installed
// yet — callers attach the store with db.SetCommitHook(store.LogCommit)
// after recovery, so replay cannot re-journal itself.
func (s *Store) Recover(fresh func() (*core.Database, error)) (*core.Database, error) {
	var db *core.Database
	var snapSeq uint64
	corrupt := 0
	found := false
	s.mu.Lock()
	gens := append([]uint64(nil), s.genSeqs...)
	s.mu.Unlock()
	for i := len(gens) - 1; i >= 0; i-- {
		path := filepath.Join(s.dir, snapName(gens[i]))
		payload, err := ReadSnapshotFile(s.fsys, path)
		if err == nil {
			db, err = core.LoadDatabase(bytes.NewReader(payload))
		}
		if errors.Is(err, core.ErrSnapshotVersion) {
			// Not damage: a build that cannot read this generation must
			// not fall back past it and replay a journal truncated to
			// the oldest one.
			return nil, fmt.Errorf("durable: %s: %w", path, err)
		}
		if err != nil {
			// Fall back to the previous generation on any unusable
			// snapshot; the journal keeps records back to the oldest
			// retained generation, so no acknowledged commit is lost.
			corrupt++
			s.reg.Counter("durable.corrupt_skipped").Inc()
			db = nil
			continue
		}
		snapSeq = gens[i]
		found = true
		break
	}
	if db == nil {
		var err error
		db, err = fresh()
		if err != nil {
			return nil, err
		}
	}

	s.mu.Lock()
	recs, torn, err := s.j.load()
	s.mu.Unlock()
	if err != nil {
		return nil, fmt.Errorf("durable: reading journal: %w", err)
	}
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].Seq < recs[j].Seq })
	replayed := 0
	for _, rec := range recs {
		if rec.Seq <= snapSeq {
			continue
		}
		if err := db.ApplyRecord(rec); err != nil {
			return nil, fmt.Errorf("durable: journal %w", err)
		}
		replayed++
		s.reg.Counter("durable.journal_replayed").Inc()
	}
	if found || len(recs) > 0 {
		s.reg.Counter("durable.recoveries").Inc()
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	s.lastSeq = snapSeq
	if n := len(recs); n > 0 && recs[n-1].Seq > s.lastSeq {
		s.lastSeq = recs[n-1].Seq
	}
	db.AlignSeq(s.lastSeq)
	s.pending = 0
	newest := uint64(0)
	if len(s.genSeqs) > 0 {
		newest = s.genSeqs[len(s.genSeqs)-1]
	}
	for _, rec := range recs {
		if rec.Seq > newest {
			s.pending++
		}
	}
	keepAfter := uint64(0)
	if len(s.genSeqs) > 0 {
		keepAfter = s.genSeqs[0]
	}
	kept := recs[:0:0]
	for _, rec := range recs {
		if rec.Seq > keepAfter {
			kept = append(kept, rec)
		}
	}
	if torn {
		// The file ends in a torn frame; appends after it would be
		// unreachable to replay. Rewrite the journal to exactly the
		// valid records (keeping everything the retained generations
		// might still need).
		if err := s.j.rewrite(kept); err != nil {
			return nil, err
		}
	}
	// Seed the in-memory tail cursor with the records above the retained
	// floor — what a tailing follower may still be served.
	s.tail = append([]core.CommitRecord(nil), kept...)
	s.ready = true
	s.bumpLocked()
	s.recovered = Stats{
		RecoveredSnapshotSeq: snapSeq,
		JournalReplayed:      replayed,
		CorruptSkipped:       corrupt,
	}
	s.reg.Gauge("durable.recovered_seq").Set(int64(s.lastSeq))
	return db, nil
}

// errNotRecovered is LogCommit's and Checkpoint's answer before Recover
// has seeded the tail the journal is kept equal to.
var errNotRecovered = errors.New("durable: store used before Recover")

// LogCommit appends one commit record to the journal; it is the
// core.CommitHook a durable database runs with. The record is on stable
// storage when LogCommit returns — and only then does the in-memory
// commit proceed and the client see an ack. It runs under the database's
// commit lock, so records are journaled in exactly commit order. A
// failed append or fsync rejects the commit and the journal is rewritten
// from the tail; while that rewrite fails, every commit is rejected
// without touching the journal.
func (s *Store) LogCommit(rec core.CommitRecord) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if !s.ready {
		return errNotRecovered
	}
	if err := s.repairLocked(); err != nil {
		return err
	}
	if err := s.j.append(rec); err != nil {
		s.broken = true
		_ = s.repairLocked() // retried before the next append
		return err
	}
	s.lastSeq = rec.Seq
	s.pending++
	// Only a fully journaled and fsynced record enters the tail cursor:
	// followers can never be streamed a commit the primary did not
	// acknowledge.
	s.tail = append(s.tail, rec)
	s.bumpLocked()
	s.reg.Counter("durable.journal_appends").Inc()
	if s.opts.CheckpointEvery > 0 && s.pending >= s.opts.CheckpointEvery {
		select {
		case s.kick <- struct{}{}:
		default:
		}
	}
	return nil
}

// repairLocked rewrites a broken journal to exactly the tail, dropping
// whatever a failed write left after it. Callers hold s.mu.
func (s *Store) repairLocked() error {
	if !s.broken {
		return nil
	}
	if err := s.j.rewrite(s.tail); err != nil {
		return fmt.Errorf("durable: journal repair: %w", err)
	}
	s.broken = false
	return nil
}

// Checkpoint writes a fresh snapshot generation covering everything
// committed so far and truncates the journal up to the oldest retained
// generation. Ordering makes a crash at any point safe: the snapshot is
// fully durable (temp+fsync+rename+dirsync) before any journal record
// is dropped, and the journal rewrite is itself atomic.
func (s *Store) Checkpoint(save SaveFunc) error {
	s.cpMu.Lock()
	defer s.cpMu.Unlock()
	t0 := time.Now()

	var buf bytes.Buffer
	seq, err := save(&buf)
	if err != nil {
		return fmt.Errorf("durable: checkpoint save: %w", err)
	}
	s.mu.Lock()
	ready := s.ready
	already := len(s.genSeqs) > 0 && s.genSeqs[len(s.genSeqs)-1] >= seq
	s.mu.Unlock()
	if !ready {
		// Before Recover the tail is empty: truncating from it would drop
		// every journaled record.
		return errNotRecovered
	}
	if already {
		return nil // nothing committed since the newest generation
	}
	framed := frameSnapshot(buf.Bytes())
	gen := filepath.Join(s.dir, snapName(seq))
	if err := writeFileAtomic(s.fsys, gen, func(w io.Writer) error {
		_, werr := w.Write(framed)
		return werr
	}); err != nil {
		// A failed directory fsync leaves the generation renamed into
		// place but not durable. Left there, the next directory fsync
		// would persist a generation older than the journal keeps, and
		// the recovered floor would promise records it no longer has.
		s.fsys.Remove(gen)
		return fmt.Errorf("durable: checkpoint snapshot: %w", err)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	s.genSeqs = append(s.genSeqs, seq)
	sort.Slice(s.genSeqs, func(i, j int) bool { return s.genSeqs[i] < s.genSeqs[j] })
	if s.genSeqs, err = pruneGenerations(s.fsys, s.dir, s.genSeqs, s.opts.Generations); err != nil {
		return fmt.Errorf("durable: pruning generations: %w", err)
	}

	// Truncate the journal, keeping every record a retained generation
	// might still need for fallback recovery (records newer than the
	// oldest generation, not merely newer than this one). The tail
	// already holds every journaled record above the old floor, so the
	// file is rewritten from memory, not re-read under the lock.
	keepAfter := s.genSeqs[0]
	kept := make([]core.CommitRecord, 0, len(s.tail))
	pending := 0
	for _, rec := range s.tail {
		if rec.Seq > keepAfter {
			kept = append(kept, rec)
		}
		if rec.Seq > seq {
			pending++
		}
	}
	s.tail = kept
	s.bumpLocked()
	s.pending = pending
	// A failed rewrite leaves the old journal, the new one, or the new
	// one under a name the next crash detaches: repair before the next
	// append. A successful one also mends an earlier failed write.
	err = s.j.rewrite(kept)
	s.broken = err != nil
	if err != nil {
		return err
	}
	s.lastCkpt = time.Now()
	s.reg.Counter("durable.checkpoints").Inc()
	s.reg.Gauge("durable.checkpoint_seq").Set(int64(seq))
	s.reg.Histogram("durable.checkpoint_seconds").Observe(time.Since(t0))
	return nil
}

// Start launches the background checkpointer, fired by commit volume
// per CheckpointEvery, or by time per CheckpointInterval when commits are
// pending. Close stops it.
func (s *Store) Start(save SaveFunc) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		var ckptC <-chan time.Time
		if s.opts.CheckpointInterval > 0 {
			t := time.NewTicker(s.opts.CheckpointInterval)
			defer t.Stop()
			ckptC = t.C
		}
		for {
			select {
			case <-s.stop:
				return
			case <-s.kick:
				s.checkpointLogged(save)
			case <-ckptC:
				s.mu.Lock()
				pending := s.pending
				s.mu.Unlock()
				if pending > 0 {
					s.checkpointLogged(save)
				}
			}
		}
	}()
}

func (s *Store) checkpointLogged(save SaveFunc) {
	if err := s.Checkpoint(save); err != nil {
		s.reg.Counter("durable.checkpoint_errors").Inc()
	}
}

// bumpLocked wakes every WaitSeq long-poller. Callers hold s.mu.
func (s *Store) bumpLocked() {
	close(s.notify)
	s.notify = make(chan struct{})
}

// Floor returns the retained floor: the oldest snapshot generation's
// sequence number. The journal — and the tail cursor — keep every record
// strictly after it, so a follower at sequence >= Floor can stream; one
// behind it must resync from a full snapshot.
func (s *Store) Floor() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.floorLocked()
}

func (s *Store) floorLocked() uint64 {
	if len(s.genSeqs) == 0 {
		return 0
	}
	return s.genSeqs[0]
}

// TailSince returns a copy of every journaled record with Seq > fromSeq,
// in ascending order, plus the current head and floor. A fromSeq below
// the retained floor is ErrJournalTruncated: checkpointing already
// dropped records the caller never saw, so streaming would leave a
// silent gap — the caller must resync from a snapshot instead.
func (s *Store) TailSince(fromSeq uint64) (recs []core.CommitRecord, head, floor uint64, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	floor = s.floorLocked()
	if fromSeq < floor {
		return nil, s.lastSeq, floor, fmt.Errorf("%w: requested > %d, retained > %d", ErrJournalTruncated, fromSeq, floor)
	}
	for _, rec := range s.tail {
		if rec.Seq > fromSeq {
			recs = append(recs, rec)
		}
	}
	return recs, s.lastSeq, floor, nil
}

// WaitSeq blocks until a record with Seq > after is journaled, the
// context ends, or the store closes (reported as ErrClosed so pollers
// distinguish shutdown from cancellation).
func (s *Store) WaitSeq(ctx context.Context, after uint64) error {
	for {
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return ErrClosed
		}
		if s.lastSeq > after {
			s.mu.Unlock()
			return nil
		}
		ch := s.notify
		s.mu.Unlock()
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-ch:
		}
	}
}

// Stats reports the store's current state (for /healthz and tests).
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.recovered
	st.LastSeq = s.lastSeq
	st.RetainedFloor = s.floorLocked()
	st.PendingCommits = s.pending
	st.Generations = len(s.genSeqs)
	if len(s.genSeqs) > 0 {
		st.LastCheckpointSeq = s.genSeqs[len(s.genSeqs)-1]
	}
	if !s.lastCkpt.IsZero() {
		st.LastCheckpointUnix = s.lastCkpt.Unix()
	}
	return st
}

// Close stops the background checkpointer and closes the journal.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.bumpLocked() // wake WaitSeq pollers so they see the close
	s.mu.Unlock()
	close(s.stop)
	s.wg.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.j.close()
}
