package core

import (
	"context"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"strconv"

	"logicblox/internal/ivm"
	"logicblox/internal/pmap"
	"logicblox/internal/relation"
	"logicblox/internal/tuple"
)

// Snapshot persistence (paper §3.1: "our internal framework transparently
// persists, restores, and garbage-collects these objects", and T4 #5:
// recovery without a transaction log — a snapshot of the immutable state
// is all there is). Derived predicates are re-materialized on restore.
//
// Payload version 2 (layout in docs/durability.md) writes each distinct
// branch head once, each distinct base relation once, and rows as a kind
// byte and a compact payload per value. Version 1 (every branch in full,
// one gob value per datum) still loads. Any other version whose Format
// tag agrees with it is ErrSnapshotVersion; a version and a tag that
// disagree are damage, ErrCorruptSnapshot.

// snapshotVersion is the payload version Save writes.
const snapshotVersion = 2

// snapshotFormat is the tag a payload of version v carries beside its
// Version (version 1 predates it): one damaged byte in either reads as
// corruption, not as a version this build cannot read.
func snapshotFormat(v int) string {
	if v == 1 {
		return ""
	}
	return "logicblox-snapshot-v" + strconv.Itoa(v)
}

// valueDTO is one datum of a version-1 payload.
type valueDTO struct {
	Kind uint8
	I    int64
	F    float64
	S    string
	E    [2]uint32
}

// snapshotWorkspace is one branch of a version-1 payload.
type snapshotWorkspace struct {
	Blocks map[string]string
	Base   map[string][][]valueDTO
	Arity  map[string]int
}

// snapshotHead is one distinct branch head of a version-2 payload.
type snapshotHead struct {
	Blocks map[string]string
	Base   map[string]int // predicate → index into snapshotDB.Rels
}

// snapshotRel is one distinct base relation: appendRows' encoding.
type snapshotRel struct {
	Arity int
	Rows  []byte
}

// snapshotDB is the gob envelope of both payload versions (gob matches
// fields by name). Seq is the operation sequence number the snapshot
// covers; journal replay (internal/durable) resumes after it. Versions is
// the database's commit count at capture, so that version numbers — which
// a branchat record names — survive a restore; a payload written before
// the field existed decodes it as 0.
type snapshotDB struct {
	Version     int
	Format      string
	Seq         uint64
	Versions    int
	Branches    map[string]snapshotWorkspace // version 1
	Heads       []snapshotHead               // version 2
	Rels        []snapshotRel                // version 2
	BranchHeads map[string]int               // version 2: branch → index into Heads
}

func dtoToValue(d valueDTO) tuple.Value {
	switch d.Kind {
	case 1:
		return tuple.Bool(d.I != 0)
	case 2:
		return tuple.Int(d.I)
	case 3:
		return tuple.Float(d.F)
	case 4:
		return tuple.String(d.S)
	case 5:
		return tuple.Entity(d.E[0], d.E[1])
	default:
		return tuple.Null
	}
}

// appendValue appends v's kind byte and payload: a zigzag varint for an
// int, 8 exact bits for a float, a uvarint length and the bytes for a
// string, 1 byte for a bool, two uvarints for an entity, none for null.
func appendValue(buf []byte, v tuple.Value) []byte {
	buf = append(buf, byte(v.Kind()))
	switch v.Kind() {
	case tuple.KindBool:
		if v.AsBool() {
			return append(buf, 1)
		}
		return append(buf, 0)
	case tuple.KindInt:
		return binary.AppendVarint(buf, v.AsInt())
	case tuple.KindFloat:
		return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.AsFloat()))
	case tuple.KindString:
		buf = binary.AppendUvarint(buf, uint64(len(v.AsString())))
		return append(buf, v.AsString()...)
	case tuple.KindEntity:
		buf = binary.AppendUvarint(buf, uint64(v.EntityType()))
		return binary.AppendUvarint(buf, uint64(v.EntityOrdinal()))
	}
	return buf
}

// decodeValue reads one value appendValue wrote off the front of b and
// returns the rest; ok is false for a malformed value.
func decodeValue(b []byte) (v tuple.Value, rest []byte, ok bool) {
	if len(b) == 0 {
		return v, nil, false
	}
	kind, b := tuple.Kind(b[0]), b[1:]
	switch {
	case kind == tuple.KindNull:
		return v, b, true
	case kind == tuple.KindBool && len(b) > 0 && b[0] <= 1:
		return tuple.Bool(b[0] == 1), b[1:], true
	case kind == tuple.KindInt:
		if i, n := binary.Varint(b); n > 0 {
			return tuple.Int(i), b[n:], true
		}
	case kind == tuple.KindFloat && len(b) >= 8:
		return tuple.Float(math.Float64frombits(binary.LittleEndian.Uint64(b))), b[8:], true
	case kind == tuple.KindString:
		if l, n := binary.Uvarint(b); n > 0 && l <= uint64(len(b)-n) {
			return tuple.String(string(b[n : n+int(l)])), b[n+int(l):], true
		}
	case kind == tuple.KindEntity:
		typ, n := binary.Uvarint(b)
		if n > 0 && typ <= math.MaxUint32 {
			if ord, m := binary.Uvarint(b[n:]); m > 0 && ord <= math.MaxUint32 {
				return tuple.Entity(uint32(typ), uint32(ord)), b[n+m:], true
			}
		}
	}
	return v, nil, false
}

// appendRows appends a uvarint row count and rel's tuples, streamed from
// its cursor in stored order.
func appendRows(buf []byte, rel relation.Relation) []byte {
	buf = binary.AppendUvarint(buf, uint64(rel.Len()))
	c := rel.Cursor()
	for t, ok := c.Next(); ok; t, ok = c.Next() {
		for _, v := range t {
			buf = appendValue(buf, v)
		}
	}
	return buf
}

// decodeRows rebuilds a relation from appendRows' encoding. Its tuples
// share one backing array of values.
func decodeRows(r snapshotRel) (relation.Relation, error) {
	count, n := binary.Uvarint(r.Rows)
	b := r.Rows[max(n, 0):]
	// Every value takes at least one byte, and a nullary relation holds
	// at most the empty tuple.
	if n <= 0 || r.Arity < 0 || r.Arity == 0 && count > 1 || r.Arity > 0 && count > uint64(len(b)/r.Arity) {
		return relation.Relation{}, fmt.Errorf("%d rows of arity %d in %d bytes", count, r.Arity, len(b))
	}
	vals := make([]tuple.Value, int(count)*r.Arity)
	ts := make([]tuple.Tuple, count)
	for i := range ts {
		ts[i] = vals[i*r.Arity : (i+1)*r.Arity : (i+1)*r.Arity]
		for j := range ts[i] {
			var ok bool
			if ts[i][j], b, ok = decodeValue(b); !ok {
				return relation.Relation{}, fmt.Errorf("row %d: malformed value", i)
			}
		}
	}
	if len(b) != 0 {
		return relation.Relation{}, fmt.Errorf("%d bytes after the last row", len(b))
	}
	return relation.FromTuples(r.Arity, ts), nil
}

// restoreWorkspace rebuilds a workspace from block sources and base data:
// the base relations are set on a fresh workspace, and the blocks are
// installed over them as one reinstall, which re-materializes every
// derived predicate and checks every constraint and functional
// dependency, none of which the empty start holds. The workspace's
// lineage shares memo (nil: a memo of its own, empty, so every stratum
// is evaluated from scratch).
func restoreWorkspace(memo *ivm.Memo, blocks map[string]string, base map[string]relation.Relation) (*Workspace, error) {
	ws := NewWorkspace()
	if memo != nil {
		ws.memo = memo
	}
	// In name order, so that a restore builds its maps the same way each
	// time.
	for _, pred := range sortedNames(base) {
		ws.base = ws.base.Set(pred, base[pred])
	}
	installed := pmap.NewMap[string]()
	for _, n := range sortedNames(blocks) {
		installed = installed.Set(n, blocks[n])
	}
	return ws.reinstallTraced(context.Background(), installed, nil)
}

// SaveSnapshot is Save returning the operation sequence number the
// snapshot covers: it contains exactly the commits numbered ≤ seq. The
// durability layer names snapshot generations by this seq and replays
// only journal records after it, and a follower starts from one, so from
// here on BranchAt refuses a version older than the snapshot: neither
// could rebuild it.
func (db *Database) SaveSnapshot(w io.Writer) (seq uint64, err error) { return db.save(w, true) }

// Save writes a snapshot of every branch head: an export, which moves no
// BranchAt floor.
func (db *Database) Save(w io.Writer) error {
	_, err := db.save(w, false)
	return err
}

// save writes a snapshot and returns the seq it covers; floor raises the
// BranchAt floor to it. Only the seq, the version count and the head
// pointers are read under the database lock; heads are immutable, so they
// are encoded after releasing it, without blocking commits.
func (db *Database) save(w io.Writer, floor bool) (uint64, error) {
	db.mu.Lock()
	seq, versions := db.seq, db.versions
	if floor {
		db.snapFloor = versions
	}
	branches := make(map[string]*Workspace, len(db.branches))
	for name, ws := range db.branches {
		branches[name] = ws
	}
	db.mu.Unlock()

	snap := snapshotDB{Version: snapshotVersion, Format: snapshotFormat(snapshotVersion), Seq: seq, Versions: versions, BranchHeads: map[string]int{}}
	heads := map[*Workspace]int{}
	var written []relation.Relation
	relIndex := func(rel relation.Relation) int {
		for i, o := range written {
			if o.Arity() == rel.Arity() && o.Equal(rel) {
				return i
			}
		}
		written = append(written, rel)
		snap.Rels = append(snap.Rels, snapshotRel{Arity: rel.Arity(), Rows: appendRows(nil, rel)})
		return len(written) - 1
	}
	for name, ws := range branches {
		i, ok := heads[ws]
		if !ok {
			i, heads[ws] = len(snap.Heads), len(snap.Heads)
			h := snapshotHead{Blocks: map[string]string{}, Base: map[string]int{}}
			ws.blocks.Range(func(name, src string) bool {
				h.Blocks[name] = src
				return true
			})
			ws.base.Range(func(pred string, rel relation.Relation) bool {
				h.Base[pred] = relIndex(rel)
				return true
			})
			snap.Heads = append(snap.Heads, h)
		}
		snap.BranchHeads[name] = i
	}
	return seq, gob.NewEncoder(w).Encode(snap)
}

// LoadDatabase restores a database from a snapshot written by Save.
// Derived predicates are re-materialized once per distinct head, and
// branches that shared a head share its restored workspace. Version
// numbers continue from the snapshot's commit count, with no version
// below it retained (a payload without the count restarts the history at
// the restored heads, one version each, in name order). Truncated or
// bit-flipped input — a gob stream or rows that fail to decode, an index out of range, or
// state that cannot be re-derived — is reported as ErrCorruptSnapshot, so
// callers can fall back to an older generation or surface a clean error
// instead of a raw decoder message. A payload of a version this build
// does not read is ErrSnapshotVersion.
func LoadDatabase(r io.Reader) (*Database, error) {
	var snap snapshotDB
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("core: %w: decode: %v", ErrCorruptSnapshot, err)
	}
	var rels []relation.Relation
	var err error
	switch {
	case snap.Versions < 0 || snap.Versions > math.MaxInt/2: // no commit count comes near it
		err = fmt.Errorf("version count %d", snap.Versions)
	case snap.Version < 1 || snap.Format != snapshotFormat(snap.Version):
		err = fmt.Errorf("version %d with format tag %q", snap.Version, snap.Format)
	case snap.Version == 1:
		rels, err = snap.fromV1()
	case snap.Version == snapshotVersion:
		rels = make([]relation.Relation, len(snap.Rels))
		for i := 0; i < len(rels) && err == nil; i++ {
			if rels[i], err = decodeRows(snap.Rels[i]); err != nil {
				err = fmt.Errorf("relation %d: %v", i, err)
			}
		}
	default:
		return nil, fmt.Errorf("core: %w %d (this build reads 1 and %d)", ErrSnapshotVersion, snap.Version, snapshotVersion)
	}
	if err != nil {
		return nil, fmt.Errorf("core: %w: %v", ErrCorruptSnapshot, err)
	}
	heads := make([]*Workspace, len(snap.Heads))
	memo := ivm.NewMemo() // every branch of the database shares one
	for i, h := range snap.Heads {
		base := make(map[string]relation.Relation, len(h.Base))
		for pred, ri := range h.Base {
			if ri < 0 || ri >= len(rels) {
				return nil, fmt.Errorf("core: %w: head %d: %s names relation %d of %d", ErrCorruptSnapshot, i, pred, ri, len(rels))
			}
			base[pred] = rels[ri]
		}
		ws, err := restoreWorkspace(memo, h.Blocks, base)
		if err != nil {
			// A snapshot whose recorded logic no longer parses, compiles
			// or satisfies its constraints is corrupt: Save only writes
			// states that passed all three.
			return nil, fmt.Errorf("core: %w: restoring head %d: %v", ErrCorruptSnapshot, i, err)
		}
		heads[i] = ws
	}
	db := &Database{branches: map[string]*Workspace{DefaultBranch: NewWorkspace()}, seq: snap.Seq,
		versions: snap.Versions, restored: snap.Versions}
	for name, i := range snap.BranchHeads {
		if i < 0 || i >= len(heads) {
			return nil, fmt.Errorf("core: %w: branch %s names head %d of %d", ErrCorruptSnapshot, name, i, len(heads))
		}
		db.branches[name] = heads[i]
	}
	if snap.Versions == 0 {
		for _, name := range db.Branches() {
			db.appendVersion(VersionEntry{Branch: name, Workspace: db.branches[name]})
		}
	}
	return db, nil
}

// fromV1 recasts a version-1 payload as version 2, one head with
// relations of its own per branch, and returns those relations.
func (snap *snapshotDB) fromV1() ([]relation.Relation, error) {
	var rels []relation.Relation
	snap.BranchHeads = map[string]int{}
	for name, sw := range snap.Branches {
		h := snapshotHead{Blocks: sw.Blocks, Base: map[string]int{}}
		for pred, rows := range sw.Base {
			a := sw.Arity[pred]
			if a == 0 && len(rows) > 0 {
				a = len(rows[0])
			}
			ts := make([]tuple.Tuple, len(rows))
			for i, row := range rows {
				if len(row) != a {
					return nil, fmt.Errorf("branch %s: %s has a row of %d values, arity %d", name, pred, len(row), a)
				}
				ts[i] = make(tuple.Tuple, a)
				for j, d := range row {
					ts[i][j] = dtoToValue(d)
				}
			}
			if a < 0 { // with no rows to contradict it
				return nil, fmt.Errorf("branch %s: %s has arity %d", name, pred, a)
			}
			h.Base[pred] = len(rels)
			rels = append(rels, relation.FromTuples(a, ts))
		}
		snap.BranchHeads[name] = len(snap.Heads)
		snap.Heads = append(snap.Heads, h)
	}
	return rels, nil
}
