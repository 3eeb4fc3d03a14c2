package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"
	"strings"
)

// The generator is the only source of inputs: the dataset, every
// request body and every expected answer are a pure function of
// (seed, workload spec). lb-serve never sees the seed, only the
// generated requests.

// schemaBlock is the installed program, in the paper's §2.1 retail
// shape: two functional base predicates, a graph, four views (two
// aggregations, one join of a view with a base predicate, one filter)
// and two constraints.
const schemaBlock = `sales[p, s, wk] = n -> int(p), int(s), int(wk), int(n).
price[p] = v -> int(p), int(v).
edge(a, b) -> int(a), int(b).
salesByProduct[p] = u <- agg<<u = sum(n)>> sales[p, s, wk] = n.
salesByStore[s] = u <- agg<<u = sum(n)>> sales[p, s, wk] = n.
revenue[p] = r <- salesByProduct[p] = u, price[p] = v, r = u * v.
hot(p) <- salesByProduct[p] = u, u > 5500.
sales[p, s, wk] = n -> n >= 0.
salesByProduct[p] = u -> price[p] = _.
`

const (
	schemaName = "retail"
	// rollupBlock is what the workbook cycle installs on its branch.
	rollupName  = "rollup"
	rollupBlock = `salesByWeek[wk] = u <- agg<<u = sum(n)>> sales[p, s, wk] = n.`

	stores = 10 // stores × weeks = 100 facts per product: the prefix lookup returns 100 rows
	weeks  = 10
	// extraWeeks are week numbers past the loaded range; inserts and
	// deletes only ever touch keys there, so the loaded facts stay and
	// |sales| moves by at most a few facts around its loaded size.
	extraWeeks = 4
	// tailWeek is the last loaded week. Only the journal tail's writes
	// touch it, so they never meet a key the timed phase wrote and each of
	// them changes exactly one fact whatever ran before.
	tailWeek   = weeks - 1
	maxUnits   = 100 // n is drawn from [0, maxUnits)
	batchFacts = 20  // facts in one workbook what-if batch
)

// Request kinds. Latency samples are grouped by kind.
const (
	kExec     = "exec"
	kQuery    = "query"  // point read: salesByProduct[p] or revenue[p]
	kPrefix   = "prefix" // sales[p0, s, wk]: 100 rows under one bound prefix
	kScan     = "scan"   // full streamed NDJSON scan of sales
	kJoin     = "join"   // triangle join over edge
	kAgg      = "agg"    // query-time aggregation by store
	kRange    = "range"  // filtered range query
	kBranch   = "branch"
	kAddBlock = "addblock"
	kDelete   = "delete"
)

// spec fixes one workload: data size, client count and how many cycles
// one second of --seconds buys. cyclesPerSec is a constant calibrated at
// the commit that defined the benchmark, so every later commit executes
// the identical seeded op sequence and only the time it takes differs.
type spec struct {
	name         string
	why          string
	facts        int // |sales| loaded
	edges        int // |edge| loaded
	clients      int
	cyclesPerSec float64 // per client
	warmup       int     // untimed cycles per client before the timed phase
}

var specs = []spec{
	{
		name:  "tx-write",
		why:   "1 client, 100% single-fact writes on 20k facts: the O(data)-per-exec write path (compile, rederive, constraints, journal, fsync) is all the work",
		facts: 20000, edges: 2000, clients: 1, cyclesPerSec: 36, warmup: 10,
	},
	{
		name:  "tx-mixed",
		why:   "2 racing clients on 2k facts, 90% point reads and 10% writes: per-request fixed costs (HTTP, parse, compile, fsync, commit lock, repair) dominate, rederive matters little",
		facts: 2000, edges: 1000, clients: 2, cyclesPerSec: 60, warmup: 5,
	},
	{
		name:  "analytic",
		why:   "1 client, read-only on 50k facts and a 25k-edge graph: scan, triangle join, aggregation and range filter; the write path does nothing, so write-path changes must not move it",
		facts: 50000, edges: 25000, clients: 1, cyclesPerSec: 9.5, warmup: 2,
	},
	{
		name:  "workbook",
		why:   "1 client, the what-if cycle on 20k facts: branch, 20-fact exec, addblock of a new view, query it, delete the branch; O(1) branching, live programming and non-exec journal records",
		facts: 20000, edges: 1000, clients: 1, cyclesPerSec: 17, warmup: 3,
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// scaled returns the spec with its data divided by div (-quick).
func (s spec) scaled(div int) spec {
	if div <= 1 {
		return s
	}
	s.facts = max(s.facts/div/(stores*weeks), 4) * stores * weeks
	s.edges = max(s.edges/div, 200)
	return s
}

func (s spec) products() int { return s.facts / (stores * weeks) }

type salesKey struct{ p, s, wk int64 }

// dataset is the loaded database as plain Go values. It doubles as the
// oracle's model: the harness applies every acknowledged write to sales
// and recomputes the views with ordinary map arithmetic.
type dataset struct {
	products int
	sales    map[salesKey]int64
	price    []int64 // by product
	edges    [][2]int64
}

func wlSeed(seed int64, workload string, stream int) int64 {
	h := sha256.Sum256([]byte(fmt.Sprintf("%d/%s/%d", seed, workload, stream)))
	var v int64
	for _, b := range h[:8] {
		v = v<<8 | int64(b)
	}
	return v
}

// generate builds the dataset for a workload spec.
func generate(seed int64, sp spec) *dataset {
	rng := rand.New(rand.NewSource(wlSeed(seed, sp.name, -1)))
	d := &dataset{products: sp.products(), sales: make(map[salesKey]int64, sp.facts)}
	d.price = make([]int64, d.products)
	for p := range d.price {
		d.price[p] = int64(1 + rng.Intn(50))
		for s := 0; s < stores; s++ {
			for wk := 0; wk < weeks; wk++ {
				d.sales[salesKey{int64(p), int64(s), int64(wk)}] = int64(rng.Intn(maxUnits))
			}
		}
	}
	d.edges = prefAttach(rng, sp.edges)
	return d
}

// prefAttach grows a preferential-attachment graph to about m edges:
// every new node links to 3 distinct earlier nodes chosen in proportion
// to their degree. Edges are stored (low, high), so the triangle query
// edge(a,b), edge(b,c), edge(a,c) finds each triangle exactly once.
func prefAttach(rng *rand.Rand, m int) [][2]int64 {
	const deg = 3
	edges := make([][2]int64, 0, m)
	ends := []int64{0, 1, 1, 2, 0, 2} // seed triangle
	edges = append(edges, [2]int64{0, 1}, [2]int64{1, 2}, [2]int64{0, 2})
	for v := int64(3); len(edges) < m; v++ {
		var picked [deg]int64
		for i := 0; i < deg; {
			u := ends[rng.Intn(len(ends))]
			dup := false
			for _, w := range picked[:i] {
				dup = dup || w == u
			}
			if !dup {
				picked[i] = u
				i++
			}
		}
		for _, u := range picked {
			edges = append(edges, [2]int64{u, v})
			ends = append(ends, u, v)
		}
	}
	return edges
}

// write is one fact-level effect of an op on the model.
type write struct {
	key salesKey
	n   int64
	del bool
}

// op is one HTTP request plus what the model should do and expect.
type op struct {
	kind   string
	path   string // under /v1
	branch string
	name   string // addblock
	src    string
	brOp   string // /branches op
	stream bool
	writes []write // applied to the model once acknowledged (main branch only)
	// expectRows is the exact row count the answer must have (-1: unchecked
	// online; the oracle after the phase checks values).
	expectRows int
	// expectSum, when expectRows >= 0 and checkSum is set, is the sum of the
	// answer's last column.
	expectSum int64
	checkSum  bool
}

// encode is the canonical byte form hashed into ops_sha256.
func (o op) encode() string {
	return strings.Join([]string{o.kind, o.path, o.branch, o.name, o.brOp, o.src}, "\x00") + "\n"
}

// opGen produces one client's cycles. Its state advances only by its own
// output, never by server answers, so the sequence is reproducible.
type opGen struct {
	sp     spec
	client int
	rng    *rand.Rand
	zipf   *rand.Zipf
	cur    map[salesKey]int64 // this generator's view of the keys it owns
	extras []salesKey         // inserted extra-week keys currently present
	shadow *dataset           // read-only loaded data (for expected answers)
	// Expected answers over the loaded data, computed once.
	baseSum   int64
	triangles int
}

func newOpGen(seed int64, sp spec, d *dataset, client int) *opGen {
	rng := rand.New(rand.NewSource(wlSeed(seed, sp.name, client)))
	g := &opGen{sp: sp, client: client, rng: rng, cur: map[salesKey]int64{}, shadow: d}
	g.zipf = rand.NewZipf(rng, 1.2, 1, uint64(d.products-1))
	for _, n := range d.sales {
		g.baseSum += n
	}
	if sp.name == "analytic" {
		g.triangles = countTriangles(d.edges)
	}
	return g
}

// ownedStore draws a store this client owns. Clients write disjoint
// stores, so the final state does not depend on how their commits
// interleave, while both still move the same salesByProduct groups.
func (g *opGen) ownedStore() int64 {
	per := stores / g.sp.clients
	return int64(g.client + g.sp.clients*g.rng.Intn(per))
}

func (g *opGen) value(k salesKey) (int64, bool) {
	if v, ok := g.cur[k]; ok {
		return v, v >= 0
	}
	v, ok := g.shadow.sales[k]
	return v, ok
}

// writeOp draws one single-fact write: 80% upsert of a loaded key, 10%
// insert of an extra-week key, 10% delete of one inserted earlier.
func (g *opGen) writeOp(skew bool) op {
	p := int64(g.rng.Intn(g.shadow.products))
	if skew {
		p = int64(g.zipf.Uint64())
	}
	r := g.rng.Intn(10)
	n := int64(g.rng.Intn(maxUnits))
	switch {
	case r == 8 && len(g.extras) < 64 || r == 9 && len(g.extras) == 0:
		for try := 0; try < 8; try++ {
			k := salesKey{p, g.ownedStore(), int64(weeks + g.rng.Intn(extraWeeks))}
			if _, present := g.value(k); present {
				continue
			}
			g.cur[k] = n
			g.extras = append(g.extras, k)
			return op{kind: kExec, path: "/exec", expectRows: -1,
				src:    fmt.Sprintf("+sales[%d, %d, %d] = %d.", k.p, k.s, k.wk, n),
				writes: []write{{key: k, n: n}}}
		}
	case r >= 8 && len(g.extras) > 0:
		i := g.rng.Intn(len(g.extras))
		k := g.extras[i]
		g.extras[i] = g.extras[len(g.extras)-1]
		g.extras = g.extras[:len(g.extras)-1]
		old, _ := g.value(k)
		g.cur[k] = -1
		return op{kind: kExec, path: "/exec", expectRows: -1,
			src:    fmt.Sprintf("-sales[%d, %d, %d] = %d.", k.p, k.s, k.wk, old),
			writes: []write{{key: k, del: true}}}
	}
	k := salesKey{p, g.ownedStore(), int64(g.rng.Intn(tailWeek))}
	g.cur[k] = n
	return op{kind: kExec, path: "/exec", expectRows: -1,
		src:    fmt.Sprintf("^sales[%d, %d, %d] = %d.", k.p, k.s, k.wk, n),
		writes: []write{{key: k, n: n}}}
}

// tailStream is the rng stream of the journal tail's generator.
const tailStream = 1 << 20

// newTailGen returns the generator of the journal tail: its own seeded
// stream, so the tail's records are the same bytes however many writes it
// took to reach the checkpoint before it.
func newTailGen(seed int64, sp spec, d *dataset) *opGen {
	g := newOpGen(seed, sp, d, 0)
	g.rng = rand.New(rand.NewSource(wlSeed(seed, sp.name, tailStream)))
	return g
}

// tailCycle is one cycle of the journal tail: the what-if cycle on
// workbook (it depends on nothing before it), else one upsert of a
// tail-week fact to a value it does not have.
func (g *opGen) tailCycle() []op {
	if g.sp.name == "workbook" {
		return g.next()
	}
	k := salesKey{int64(g.rng.Intn(g.shadow.products)), g.ownedStore(), tailWeek}
	old, _ := g.value(k)
	n := (old + 1 + int64(g.rng.Intn(maxUnits-1))) % maxUnits
	g.cur[k] = n
	return []op{{kind: kExec, path: "/exec", expectRows: -1,
		src:    fmt.Sprintf("^sales[%d, %d, %d] = %d.", k.p, k.s, k.wk, n),
		writes: []write{{key: k, n: n}}}}
}

func (g *opGen) pointRead(i int) op {
	p := g.zipf.Uint64()
	view := "salesByProduct"
	if i%2 == 1 {
		view = "revenue"
	}
	return op{kind: kQuery, path: "/query", expectRows: 1,
		src: fmt.Sprintf("_(u) <- %s[%d] = u.", view, p)}
}

func (g *opGen) prefixRead() op {
	p := g.zipf.Uint64()
	return op{kind: kPrefix, path: "/query", expectRows: -1, // extras make the count 100..100+few
		src: fmt.Sprintf("_(s, wk, n) <- sales[%d, s, wk] = n.", p)}
}

// Analytic query texts. The scan and the join are the same text every
// cycle; the range query's constants vary with the seed.
const (
	scanQuery = `_(p, s, wk, n) <- sales[p, s, wk] = n.`
	joinQuery = `_(a, b, c) <- edge(a, b), edge(b, c), edge(a, c).`
	aggQuery  = "byStore[s] = u <- agg<<u = sum(n)>> sales[p, s, wk] = n.\n_(s, u) <- byStore[s] = u."
)

func rangeQuery(minUnits, maxProduct int64) string {
	return fmt.Sprintf("_(p, s, wk, n) <- sales[p, s, wk] = n, n > %d, p < %d.", minUnits, maxProduct)
}

// next returns the requests of this client's next cycle.
func (g *opGen) next() []op {
	switch g.sp.name {
	case "tx-write":
		return []op{g.writeOp(false)}
	case "tx-mixed":
		// 4 salesByProduct + 4 revenue reads, 1 prefix lookup, 1 write, in
		// seeded order: exactly 10% writes whatever the cycle count.
		ops := make([]op, 0, 10)
		for i := 0; i < 8; i++ {
			ops = append(ops, g.pointRead(i))
		}
		ops = append(ops, g.prefixRead(), g.writeOp(true))
		g.rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
		return ops
	case "analytic":
		sum := g.baseSum
		minUnits := int64(maxUnits - 2 - g.rng.Intn(8))
		maxProduct := int64(g.shadow.products/4 + g.rng.Intn(g.shadow.products/2))
		hits := 0
		for k, n := range g.shadow.sales {
			if n > minUnits && k.p < maxProduct {
				hits++
			}
		}
		return []op{
			{kind: kScan, path: "/query", stream: true, src: scanQuery,
				expectRows: len(g.shadow.sales), expectSum: sum, checkSum: true},
			{kind: kJoin, path: "/query", src: joinQuery, expectRows: g.triangles},
			{kind: kAgg, path: "/query", src: aggQuery, expectRows: stores, expectSum: sum, checkSum: true},
			{kind: kRange, path: "/query", src: rangeQuery(minUnits, maxProduct), expectRows: hits},
		}
	case "workbook":
		const br = "whatif"
		var sb strings.Builder
		seen := map[salesKey]bool{}
		sum := g.baseSum
		for len(seen) < batchFacts {
			k := salesKey{int64(g.rng.Intn(g.shadow.products)), int64(g.rng.Intn(stores)), int64(g.rng.Intn(weeks))}
			if seen[k] {
				continue
			}
			seen[k] = true
			n := int64(g.rng.Intn(maxUnits))
			sum += n - g.shadow.sales[k]
			fmt.Fprintf(&sb, "^sales[%d, %d, %d] = %d.\n", k.p, k.s, k.wk, n)
		}
		return []op{
			{kind: kBranch, path: "/branches", brOp: "create", branch: br, expectRows: -1},
			{kind: kExec, path: "/exec", branch: br, src: sb.String(), expectRows: -1},
			{kind: kAddBlock, path: "/addblock", branch: br, name: rollupName, src: rollupBlock, expectRows: -1},
			{kind: kQuery, path: "/query", branch: br, src: `_(wk, u) <- salesByWeek[wk] = u.`,
				expectRows: weeks, expectSum: sum, checkSum: true},
			{kind: kDelete, path: "/branches", brOp: "delete", branch: br, expectRows: -1},
		}
	}
	panic("unknown workload " + g.sp.name)
}

// hashedCycles is how many cycles per client ops_sha256 covers.
const hashedCycles = 64

// opsHash is the SHA-256 over the first hashedCycles cycles of every
// client's sequence: two runs with one seed must agree on it.
func opsHash(seed int64, sp spec) string {
	d := generate(seed, sp)
	h := sha256.New()
	for c := 0; c < sp.clients; c++ {
		g := newOpGen(seed, sp, d, c)
		for i := 0; i < hashedCycles; i++ {
			for _, o := range g.next() {
				h.Write([]byte(o.encode()))
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// countTriangles is the oracle's own triangle counter: adjacency hash
// sets and a triple loop, nothing shared with the engine.
func countTriangles(edges [][2]int64) int {
	adj := map[int64]map[int64]bool{}
	for _, e := range edges {
		if adj[e[0]] == nil {
			adj[e[0]] = map[int64]bool{}
		}
		adj[e[0]][e[1]] = true
	}
	n := 0
	for _, e := range edges {
		a, b := e[0], e[1]
		for c := range adj[b] {
			if adj[a][c] {
				n++
			}
		}
	}
	return n
}

// sortedKeys returns the dataset's sales keys in (p, s, wk) order, the
// order the server stores them in.
func (d *dataset) sortedKeys() []salesKey {
	keys := make([]salesKey, 0, len(d.sales))
	for k := range d.sales {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.p != b.p {
			return a.p < b.p
		}
		if a.s != b.s {
			return a.s < b.s
		}
		return a.wk < b.wk
	})
	return keys
}
