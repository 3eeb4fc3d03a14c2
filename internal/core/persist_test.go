package core

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"logicblox/internal/relation"
	"logicblox/internal/tuple"
)

// buildSnapshot commits a little state and returns its raw snapshot.
func buildSnapshot(t testing.TB) []byte {
	t.Helper()
	db := NewDatabase()
	ws, err := db.Workspace(DefaultBranch)
	if err != nil {
		t.Fatal(err)
	}
	ws, err = ws.AddBlock("views", `q(x) <- p(x), x > 1.`)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Commit(DefaultBranch, ws); err != nil {
		t.Fatal(err)
	}
	res, err := ws.Exec(`+p(1). +p(2). +p(3).`)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Commit(DefaultBranch, res.Workspace); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// Every failing load of a damaged snapshot must carry the typed
// ErrCorruptSnapshot so callers (CLI, HTTP, recovery fallback) can react
// without string matching. Not every single-bit flip breaks a gob
// stream — that is exactly why the durable layer adds a checksum — but
// every flip that does fail must fail typed.
func TestLoadDatabaseBitFlipsAreTyped(t *testing.T) {
	raw := buildSnapshot(t)
	failures := 0
	step := len(raw)/97 + 1
	for i := 0; i < len(raw); i += step {
		mut := append([]byte(nil), raw...)
		mut[i] ^= 0x20
		_, err := LoadDatabase(bytes.NewReader(mut))
		if err == nil {
			continue
		}
		failures++
		if !errors.Is(err, ErrCorruptSnapshot) {
			t.Fatalf("flip at byte %d: err = %v, not ErrCorruptSnapshot", i, err)
		}
	}
	if failures == 0 {
		t.Fatal("no sampled bit flip failed the load; corruption test is vacuous")
	}
}

func TestLoadDatabaseTruncationsAreTyped(t *testing.T) {
	raw := buildSnapshot(t)
	for _, n := range []int{0, 1, 7, len(raw) / 3, len(raw) / 2, len(raw) - 1} {
		_, err := LoadDatabase(bytes.NewReader(raw[:n]))
		if err == nil {
			t.Fatalf("truncation to %d bytes loaded successfully", n)
		}
		if !errors.Is(err, ErrCorruptSnapshot) {
			t.Fatalf("truncation to %d bytes: err = %v, not ErrCorruptSnapshot", n, err)
		}
	}
}

// An intact snapshot still round-trips, restoring the derived view.
func TestLoadDatabaseRoundtripDerived(t *testing.T) {
	raw := buildSnapshot(t)
	db, err := LoadDatabase(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	ws, err := db.Workspace(DefaultBranch)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := ws.Query(`_(x) <- q(x).`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("derived q has %d tuples after reload, want 2", len(rows))
	}
}

// Test-local copies of the version-1 payload types: gob matches struct
// fields by name, so these encode exactly what a version-1 build wrote.
type v1Value struct {
	Kind uint8
	I    int64
	F    float64
	S    string
	E    [2]uint32
}

type v1Workspace struct {
	Blocks   map[string]string
	Base     map[string][][]v1Value
	Arity    map[string]int
	Adaptive bool
	Plans    []savedPlan
}

// savedPlan is a test-local copy of the plan orders that builds with an
// adaptive join-order optimizer saved in each head (Adaptive set) of both
// payload versions. This build has neither field; gob skips them.
type savedPlan struct {
	Fingerprint string
	Head        string
	Source      string
	Order       []int
	SampleCost  int
	Cards       map[string]int
	Preds       []string
	BaselineOps int64
	History     []int64
}

// savedPlans is a non-empty saved plan list for the planned payloads.
var savedPlans = []savedPlan{{
	Fingerprint: "f00d", Head: "cheap", Source: "cheap(p) <- price[p] = v, v < 2.0.",
	Order: []int{1, 0}, SampleCost: 12, Cards: map[string]int{"price": 2},
	Preds: []string{"price"}, BaselineOps: 40, History: []int64{40, 38},
}}

type v1DB struct {
	Version  int
	Branches map[string]v1Workspace
	Seq      uint64
}

// v1Payload is a version-1 snapshot of two branches over a price table
// with a derived view: main holds a and b, side also c. planned writes
// each branch as an adaptive-optimizer build did, with saved plans.
func v1Payload(t testing.TB, planned bool) []byte {
	t.Helper()
	block := map[string]string{"s": `
		price[p] = v -> string(p), float(v).
		cheap(p) <- price[p] = v, v < 2.0.`}
	row := func(p string, v float64) []v1Value { return []v1Value{{Kind: 4, S: p}, {Kind: 3, F: v}} }
	snap := v1DB{Version: 1, Seq: 7, Branches: map[string]v1Workspace{
		DefaultBranch: {Blocks: block, Arity: map[string]int{"price": 2},
			Base: map[string][][]v1Value{"price": {row("a", 1), row("b", 3)}}},
		"side": {Blocks: block, Arity: map[string]int{"price": 2},
			Base: map[string][][]v1Value{"price": {row("a", 1), row("b", 3), row("c", 0.5)}}},
	}}
	if planned {
		for name, b := range snap.Branches {
			b.Adaptive, b.Plans = true, savedPlans
			snap.Branches[name] = b
		}
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// A payload written by a version-1 build still loads.
func TestLoadDatabaseVersion1(t *testing.T) {
	db, err := LoadDatabase(bytes.NewReader(v1Payload(t, false)))
	if err != nil {
		t.Fatal(err)
	}
	if db.Seq() != 7 {
		t.Fatalf("seq = %d, want 7", db.Seq())
	}
	for branch, want := range map[string]int{DefaultBranch: 1, "side": 2} {
		ws, err := db.Workspace(branch)
		if err != nil {
			t.Fatal(err)
		}
		if got := ws.Relation("cheap").Len(); got != want {
			t.Fatalf("%s: cheap = %v, want %d tuples", branch, ws.Relation("cheap").Slice(), want)
		}
	}
}

// Test-local copies of the version-2 envelope with the fields an
// adaptive-optimizer build added to each head.
type v2Head struct {
	Blocks   map[string]string
	Base     map[string]int
	Adaptive bool
	Plans    []savedPlan
}

type v2DB struct {
	Version     int
	Format      string
	Seq         uint64
	Heads       []v2Head
	Rels        []snapshotRel
	BranchHeads map[string]int
}

// plannedV2 rewrites a version-2 payload as an adaptive-optimizer build
// wrote it: every head flagged Adaptive, with saved plans.
func plannedV2(t testing.TB, raw []byte) []byte {
	t.Helper()
	var snap snapshotDB
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	out := v2DB{Version: snap.Version, Format: snap.Format, Seq: snap.Seq, Rels: snap.Rels, BranchHeads: snap.BranchHeads}
	for _, h := range snap.Heads {
		out.Heads = append(out.Heads, v2Head{Blocks: h.Blocks, Base: h.Base, Adaptive: true, Plans: savedPlans})
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(out); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// Payloads of both versions written with saved plan orders load equal to
// the same payloads without them, and the loaded heads keep executing.
func TestLoadDatabaseIgnoresSavedPlans(t *testing.T) {
	v2 := buildSnapshot(t)
	for _, c := range []struct {
		name           string
		planned, plain []byte
		exec, view     string // one more fact, and the view it adds a tuple to
	}{
		{"v1", v1Payload(t, true), v1Payload(t, false), `+price["d"] = 1.5.`, "cheap"},
		{"v2", plannedV2(t, v2), v2, `+p(5).`, "q"},
	} {
		got, err := LoadDatabase(bytes.NewReader(c.planned))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		want, err := LoadDatabase(bytes.NewReader(c.plain))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got.Seq() != want.Seq() || fmt.Sprint(got.Branches()) != fmt.Sprint(want.Branches()) {
			t.Fatalf("%s: seq %d branches %v, want seq %d branches %v", c.name, got.Seq(), got.Branches(), want.Seq(), want.Branches())
		}
		for _, b := range want.Branches() {
			g, _ := got.Workspace(b)
			w, _ := want.Workspace(b)
			requireSameState(t, c.name+" "+b, g, w)
			gr, err := g.Exec(c.exec)
			if err != nil {
				t.Fatalf("%s %s: exec: %v", c.name, b, err)
			}
			wr, err := w.Exec(c.exec)
			if err != nil {
				t.Fatalf("%s %s: exec: %v", c.name, b, err)
			}
			requireSameState(t, c.name+" "+b+" after exec", gr.Workspace, wr.Workspace)
			if n, was := gr.Workspace.Relation(c.view).Len(), g.Relation(c.view).Len(); n != was+1 {
				t.Fatalf("%s %s: %s has %d tuples after exec, want %d", c.name, b, c.view, n, was+1)
			}
		}
	}
}

// A payload whose version this build does not read is ErrSnapshotVersion,
// not corruption; a version its format tag contradicts is corruption.
func TestLoadDatabaseVersionPolicy(t *testing.T) {
	for _, c := range []struct {
		version int
		format  string
		want    error
	}{
		{99, "logicblox-snapshot-v99", ErrSnapshotVersion},
		{99, "logicblox-snapshot-v2", ErrCorruptSnapshot},
		{2, "logicblox-snapshot-v99", ErrCorruptSnapshot},
		{1, "logicblox-snapshot-v1", ErrCorruptSnapshot},
		{0, "", ErrCorruptSnapshot},
	} {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(snapshotDB{Version: c.version, Format: c.format}); err != nil {
			t.Fatal(err)
		}
		_, err := LoadDatabase(&buf)
		if !errors.Is(err, c.want) || errors.Is(err, ErrSnapshotVersion) && errors.Is(err, ErrCorruptSnapshot) {
			t.Errorf("version %d, format %q: err = %v, want %v", c.version, c.format, err, c.want)
		}
	}
}

// mixedValue returns a value of a kind chosen by r, including the ones
// whose encodings are easiest to get wrong.
func mixedValue(r *rand.Rand) tuple.Value {
	switch r.Intn(9) {
	case 0:
		return tuple.Bool(r.Intn(2) == 1)
	case 1:
		return tuple.Int(r.Int63() - r.Int63())
	case 2:
		return tuple.Float(r.NormFloat64())
	case 3:
		return tuple.Float(math.Copysign(0, -1))
	case 4:
		return tuple.Float(math.NaN())
	case 5:
		return tuple.String(fmt.Sprint("s", r.Intn(50)))
	case 6:
		return tuple.String("")
	case 7:
		return tuple.Entity(uint32(r.Intn(4)), r.Uint32())
	default:
		return tuple.Int(int64(r.Intn(10)))
	}
}

// requireSameState fails unless every base and derived predicate of got
// holds exactly want's tuples, value for value (bit-exact: -0.0 is not
// 0.0 here, and a NaN keeps its bits).
func requireSameState(t *testing.T, label string, got, want *Workspace) {
	t.Helper()
	wr, gr := want.Relations(), got.Relations()
	if len(wr) != len(gr) {
		t.Fatalf("%s: %d predicates, want %d", label, len(gr), len(wr))
	}
	for pred, w := range wr {
		gs, ws := gr[pred].Slice(), w.Slice()
		if len(gs) != len(ws) {
			t.Fatalf("%s: %s has %d tuples, want %d", label, pred, len(gs), len(ws))
		}
		for i := range ws {
			if len(gs[i]) != len(ws[i]) {
				t.Fatalf("%s: %s[%d] = %v, want %v", label, pred, i, gs[i], ws[i])
			}
			for j := range ws[i] {
				if gs[i][j] != ws[i][j] {
					t.Fatalf("%s: %s[%d] = %v, want %v", label, pred, i, gs[i], ws[i])
				}
			}
		}
	}
}

// Format v2 round-trips a generated multi-branch database: every value
// kind, branches that alias one head and branches that diverge. Every
// predicate comes back value for value, aliased branches come back as
// one workspace, and the payload holds each distinct head and relation
// once.
func TestSnapshotV2Roundtrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	db := NewDatabase()
	ws, _ := db.Workspace(DefaultBranch)
	ws = mustAddBlock(t, ws, "views", `
		d(x) <- v(k, x).
		n[k] = c <- agg<<c = count()>> w(k, a, b).`)
	var vs, wsRows []tuple.Tuple
	for i := 0; i < 300; i++ {
		// A unique first column keeps NaN and -0.0 apart from the
		// floats they compare equal to.
		vs = append(vs, tuple.Of(tuple.Int(int64(i)), mixedValue(r)))
		wsRows = append(wsRows, tuple.Of(tuple.Int(int64(i%7)), tuple.Int(int64(i)), mixedValue(r)))
	}
	var err error
	if ws, err = ws.Insert("v", vs...); err != nil {
		t.Fatal(err)
	}
	if ws, err = ws.Insert("w", wsRows...); err != nil {
		t.Fatal(err)
	}
	if err := db.Commit(DefaultBranch, ws); err != nil {
		t.Fatal(err)
	}
	for _, b := range []string{"a1", "a2", "b1"} {
		if err := db.Branch(DefaultBranch, b); err != nil {
			t.Fatal(err)
		}
	}
	b1, err := ws.Insert("v", tuple.Of(tuple.Int(1000), tuple.String("only on b1")))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Commit("b1", b1); err != nil {
		t.Fatal(err)
	}
	if err := db.Branch("b1", "b2"); err != nil {
		t.Fatal(err)
	}
	b3, err := ws.Delete("w", wsRows[:10]...)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Branch(DefaultBranch, "b3"); err != nil {
		t.Fatal(err)
	}
	if err := db.Commit("b3", b3); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	var snap snapshotDB
	if err := gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	// Three distinct heads (main, b1, b3) over four distinct relations:
	// v twice (main's and b1's), w twice (main's and b3's).
	if len(snap.Heads) != 3 || len(snap.Rels) != 4 || len(snap.BranchHeads) != 6 {
		t.Fatalf("payload holds %d heads, %d relations, %d branches; want 3, 4, 6", len(snap.Heads), len(snap.Rels), len(snap.BranchHeads))
	}
	restored, err := LoadDatabase(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := restored.Branches(), db.Branches(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("branches = %v, want %v", got, want)
	}
	heads := map[string]*Workspace{}
	for _, b := range db.Branches() {
		want, _ := db.Workspace(b)
		got, err := restored.Workspace(b)
		if err != nil {
			t.Fatal(err)
		}
		requireSameState(t, b, got, want)
		heads[b] = got
	}
	if heads["a1"] != heads[DefaultBranch] || heads["a2"] != heads[DefaultBranch] || heads["b2"] != heads["b1"] {
		t.Fatal("branches that shared a head before the save do not share one after the load")
	}
	if heads["b1"] == heads[DefaultBranch] || heads["b3"] == heads[DefaultBranch] || heads["b3"] == heads["b1"] {
		t.Fatal("diverged branches share a restored head")
	}
}

// A checkpoint taken while a writer commits, branches and deletes a
// branch captures exactly the state at its seq: loading the snapshot
// alone gives every branch the predicates it had when the seq was
// assigned. Run under -race, it also checks that encoding after the
// lock reads only immutable state.
func TestSnapshotBesideCommits(t *testing.T) {
	db := NewDatabase()
	ws, _ := db.Workspace(DefaultBranch)
	ws = mustAddBlock(t, ws, "views", `q(x) <- p(x), x > 10.`)
	if err := db.Commit(DefaultBranch, ws); err != nil {
		t.Fatal(err)
	}
	// states[seq] is every branch head right after the operation that
	// took seq; only the writer below changes the database.
	states := map[uint64]map[string]*Workspace{}
	record := func() {
		heads := map[string]*Workspace{}
		for _, b := range db.Branches() {
			heads[b], _ = db.Workspace(b)
		}
		states[db.Seq()] = heads
	}
	record()

	stop, done := make(chan struct{}), make(chan struct{})
	var payloads [][]byte
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			var buf bytes.Buffer
			if _, err := db.SaveSnapshot(&buf); err != nil {
				t.Error(err)
				return
			}
			payloads = append(payloads, buf.Bytes())
		}
	}()
	for i := 0; i < 200; i++ {
		switch i {
		case 50:
			if err := db.Branch(DefaultBranch, "side"); err != nil {
				t.Fatal(err)
			}
		case 150:
			if err := db.DeleteBranch("side"); err != nil {
				t.Fatal(err)
			}
		default:
			branch := DefaultBranch
			if i > 50 && i < 150 && i%2 == 0 {
				branch = "side"
			}
			head, _ := db.Workspace(branch)
			next := mustExec(t, head, fmt.Sprintf("+p(%d).", i))
			if err := db.CommitIf(branch, head, next); err != nil {
				t.Fatal(err)
			}
		}
		record()
	}
	close(stop)
	<-done

	checked := map[uint64]bool{}
	for _, raw := range payloads {
		got, err := LoadDatabase(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		seq := got.Seq()
		if checked[seq] {
			continue
		}
		checked[seq] = true
		want, ok := states[seq]
		if !ok {
			t.Fatalf("snapshot at seq %d, which no operation produced", seq)
		}
		if len(got.Branches()) != len(want) {
			t.Fatalf("seq %d: branches %v, want %d", seq, got.Branches(), len(want))
		}
		for b, w := range want {
			g, err := got.Workspace(b)
			if err != nil {
				t.Fatalf("seq %d: %v", seq, err)
			}
			requireSameState(t, fmt.Sprintf("seq %d branch %s", seq, b), g, w)
		}
	}
	t.Logf("%d snapshots at %d distinct seqs", len(payloads), len(checked))
}

// FuzzLoadDatabase: whatever the bytes, LoadDatabase never panics; it
// yields a database or an error that is ErrCorruptSnapshot or
// ErrSnapshotVersion, and a database it yields saves and loads again.
// Seeded with version-1 and version-2 payloads and the cuts and flips of
// TestLoadDatabaseTruncationsAreTyped and TestLoadDatabaseBitFlipsAreTyped,
// plus a version-2 payload carrying saved plan orders.
func FuzzLoadDatabase(f *testing.F) {
	f.Add(plannedV2(f, buildSnapshot(f)))
	for _, raw := range [][]byte{v1Payload(f, false), buildSnapshot(f)} {
		f.Add(raw)
		for _, n := range []int{0, 1, 7, len(raw) / 3, len(raw) / 2, len(raw) - 1} {
			f.Add(raw[:n])
		}
		for i := 0; i < len(raw); i += len(raw)/17 + 1 {
			mut := append([]byte(nil), raw...)
			mut[i] ^= 0x20
			f.Add(mut)
		}
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		db, err := LoadDatabase(bytes.NewReader(raw))
		if err != nil {
			if !errors.Is(err, ErrCorruptSnapshot) && !errors.Is(err, ErrSnapshotVersion) {
				t.Fatalf("LoadDatabase: %v, want ErrCorruptSnapshot or ErrSnapshotVersion", err)
			}
			return
		}
		var buf bytes.Buffer
		if err := db.Save(&buf); err != nil {
			t.Fatalf("a loaded database does not save: %v", err)
		}
		again, err := LoadDatabase(&buf)
		if err != nil {
			t.Fatalf("a loaded database does not load again: %v", err)
		}
		if fmt.Sprint(again.Branches()) != fmt.Sprint(db.Branches()) {
			t.Fatalf("branches %v load again as %v", db.Branches(), again.Branches())
		}
	})
}

// TestRestoreBuildsOneNodePerTuple bounds the storage work of a snapshot
// restore. Restoring the retail schema over 20k sales facts rebuilds every
// base relation from its sorted snapshot rows and re-materializes every
// view, each relation in one pass: one treap node per distinct prefix, at
// every level, that is not stored as a single tuple (trieNodesOf), 23 010
// over the 20 810 tuples the restored head holds. Insert loops, copying a
// root-to-leaf path per tuple, allocated 220 219. The rest is the
// database's own maps — branches, blocks, the relations by name — the
// same for any data that fills every view, so a restore over two products
// measures it. The storage counters are process-wide, so this test must
// not run in parallel.
func TestRestoreBuildsOneNodePerTuple(t *testing.T) {
	small, smallNodes := restoreNodes(t, 2)
	mapNodes := smallNodes - int64(trieNodesOf(small))
	head, nodes := restoreNodes(t, 200)
	tuples := 0
	for _, rel := range head.Relations() {
		tuples += rel.Len()
	}
	want := trieNodesOf(head)
	t.Logf("restore of %d tuples allocated %d treap nodes: %d trie nodes, %d for the database's maps", tuples, nodes, want, mapNodes)
	if tuples != 20_810 || nodes != int64(want)+mapNodes {
		t.Fatalf("restore of %d tuples allocated %d treap nodes, want %d trie nodes + %d for the maps", tuples, nodes, want, mapNodes)
	}
}

// restoreNodes saves a database of the retail schema over the given
// number of products, each with a price and sales in 10 stores × 10
// weeks, and loads it back, returning the restored head and the treap
// nodes the load allocated.
func restoreNodes(t *testing.T, products int64) (*Workspace, int64) {
	t.Helper()
	var prices, sales []tuple.Tuple
	for p := int64(0); p < products; p++ {
		prices = append(prices, tuple.Ints(p, 10+p%7))
		for s := int64(0); s < 10; s++ {
			for wk := int64(0); wk < 10; wk++ {
				sales = append(sales, tuple.Ints(p, s, wk, (p+s+wk)%10))
			}
		}
	}
	ws := mustAddBlock(t, NewWorkspace(), "retail", retailSchema)
	ws, err := ws.Load("price", prices)
	if err == nil {
		ws, err = ws.Load("sales", sales)
	}
	if err != nil {
		t.Fatal(err)
	}
	db := NewDatabase()
	if err := db.Commit(DefaultBranch, ws); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	relation.EnableStorageStats(true)
	defer relation.EnableStorageStats(false)
	relation.ResetStorageStats()
	restored, err := LoadDatabase(&buf)
	nodes := relation.ReadStorageStats().NodesAllocated
	if err != nil {
		t.Fatal(err)
	}
	head, err := restored.Workspace(DefaultBranch)
	if err != nil {
		t.Fatal(err)
	}
	return head, nodes
}

// trieNodesOf sums, over ws's relations, one node per distinct prefix at
// every level whose group of one column less holds more than one tuple.
func trieNodesOf(ws *Workspace) int {
	n := 0
	for _, rel := range ws.Relations() {
		ts := rel.Slice()
		for i, tp := range ts {
			for d := range tp {
				shared := func(j int) bool { return j >= 0 && j < len(ts) && ts[j][:d].Equal(tp[:d]) }
				if i > 0 && ts[i-1][:d+1].Equal(tp[:d+1]) || !shared(i-1) && !shared(i+1) {
					continue
				}
				n++
			}
		}
	}
	return n
}
