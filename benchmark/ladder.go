package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"logicblox"
	"logicblox/internal/ast"
	"logicblox/internal/compiler"
	"logicblox/internal/core"
	"logicblox/internal/durable"
	"logicblox/internal/engine"
	"logicblox/internal/ivm"
	"logicblox/internal/lftj"
	"logicblox/internal/obs"
	"logicblox/internal/optimizer"
	"logicblox/internal/parser"
	"logicblox/internal/relation"
	"logicblox/internal/server"
	"logicblox/internal/tuple"
)

// The traced run: the same seeded data as the end-to-end run, replayed
// in-process through one rung per layer. Every timed call is a span
// recorded here, around the call into the layer; each metric is the
// median over the spans of its name. README.md lists the entry points.

const (
	probeOps   = 50 // cheap rungs replay this many probe ops
	execOps    = 24 // rungs that pay a whole exec per op replay this many
	replayed   = 50 // cycles per client replayed over HTTP with client spans
	rttSamples = 200
)

type ladder struct {
	h         *harness
	tr        *tracer
	out       map[string]value
	d         *dataset
	installed *ast.Program
	prog      *compiler.Program
	head      *core.Workspace
	writes    []op // single-fact probe writes over this workload's data
	reads     []op // point-read probes
	bg        context.Context
}

func (l *ladder) put(name string, v float64, n int) {
	d, ok := defByName(name)
	if !ok {
		panic("ladder: undefined metric " + name)
	}
	l.out[name] = value{Value: v, Unit: d.unit, Samples: n}
}

// putMedian reports the median duration of the spans called spanName,
// scaled from milliseconds by perMs (1000 for µs) and divided by calls,
// the number of layer calls one span covers.
func (l *ladder) putMedian(metric, spanName string, perMs, calls float64) float64 {
	xs := l.tr.durations(spanName)
	m := median(xs) * perMs / calls
	l.put(metric, m, len(xs))
	return m
}

// probeGen returns a generator of the named workload's op shapes over d.
func (l *ladder) probeGen(shape string, clients int, d *dataset) *opGen {
	sp := l.h.sp
	sp.name, sp.clients = shape, clients
	return newOpGen(l.h.rc.seed, sp, d, 0)
}

// runTraced runs one workload's traced ladder and writes trace.json.
func runTraced(p paths, sp spec, rc runConfig, out string) (*wlResult, error) {
	h, err := newHarness(p, sp, rc)
	if err != nil {
		return nil, err
	}
	defer h.cleanup()
	l := &ladder{h: h, tr: newTracer(), out: map[string]value{}, d: generate(rc.seed, h.sp), bg: context.Background()}
	if l.installed, err = parser.Parse(schemaBlock); err != nil {
		return nil, err
	}
	if l.prog, err = compiler.Compile(l.installed); err != nil {
		return nil, err
	}
	db, err := buildDatabase(l.d)
	if err != nil {
		return nil, err
	}
	if l.head, err = db.Workspace(logicblox.DefaultBranch); err != nil {
		return nil, err
	}
	wg := l.probeGen("tx-write", 1, l.d)
	for len(l.writes) < probeOps {
		l.writes = append(l.writes, wg.next()...)
	}
	rg := l.probeGen("tx-mixed", 2, l.d)
	for len(l.reads) < probeOps {
		for _, o := range rg.next() {
			if o.kind == kQuery && len(l.reads) < probeOps {
				l.reads = append(l.reads, o)
			}
		}
	}
	for _, rung := range []func() error{
		l.parserCompiler, l.relations, l.joins, l.engineRung, l.ivmRung,
		l.coreRung, l.durableRung, l.serverRung, l.clientRung,
	} {
		if err := rung(); err != nil {
			return nil, fmt.Errorf("%s traced: %w", sp.name, err)
		}
	}
	h.res.PerLayer = l.out
	path := filepath.Join(out, "trace-"+sp.name+".json")
	if err := writeJSON(path, traceFile{Workload: sp.name, Seed: rc.seed, Spans: l.tr.spans}); err != nil {
		return nil, err
	}
	return h.res, nil
}

func (l *ladder) parserCompiler() error {
	var err error
	compileTx := func(i int, src string) {
		req, perr := parser.Parse(src)
		if perr != nil {
			err = perr
			return
		}
		l.tr.timed("compiler.compile_tx", i, func() {
			if _, cerr := compiler.Compile(l.installed, req); cerr != nil {
				err = cerr
			}
		})
	}
	for i, o := range l.writes {
		l.tr.timed("parser.parse_exec", i, func() {
			if _, perr := parser.Parse(o.src); perr != nil {
				err = perr
			}
		})
		compileTx(i, o.src)
	}
	for i, o := range l.reads {
		l.tr.timed("parser.parse_query", i, func() {
			if _, perr := parser.ParseQuery(o.src); perr != nil {
				err = perr
			}
		})
		compileTx(i, o.src)
	}
	for i := 0; i < 10; i++ {
		l.tr.timed("compiler.compile_program", i, func() {
			if _, cerr := compiler.Compile(l.installed); cerr != nil {
				err = cerr
			}
		})
	}
	l.putMedian("parser.parse_exec_us", "parser.parse_exec", 1000, 1)
	l.putMedian("parser.parse_query_us", "parser.parse_query", 1000, 1)
	l.putMedian("compiler.compile_tx_us", "compiler.compile_tx", 1000, 1)
	l.putMedian("compiler.compile_program_us", "compiler.compile_program", 1000, 1)
	l.put("compiler.rules", float64(len(l.prog.Rules)), 1)

	triProg, err2 := l.compileQuery(joinQuery)
	if err2 != nil {
		return err2
	}
	tri, err2 := ruleFor(triProg, "_")
	if err2 != nil {
		return err2
	}
	rels := func(name string) relation.Relation { return l.head.Relation(name) }
	for i := 0; i < 5; i++ {
		l.tr.timed("optimizer.choose_order", i, func() {
			if _, oerr := optimizer.ChooseOrder(tri, rels, optimizer.Options{}); oerr != nil {
				err = oerr
			}
		})
	}
	l.putMedian("optimizer.choose_order_us", "optimizer.choose_order", 1000, 1)
	return err
}

func (l *ladder) compileQuery(src string) (*compiler.Program, error) {
	q, err := parser.ParseQuery(src)
	if err != nil {
		return nil, err
	}
	return compiler.Compile(l.installed, q)
}

func ruleFor(prog *compiler.Program, head string) (*compiler.RulePlan, error) {
	for _, r := range prog.Rules {
		if r.HeadName == head {
			return r, nil
		}
	}
	return nil, fmt.Errorf("no rule derives %s", head)
}

func (l *ladder) relations() error {
	const batch = 1000
	sales := l.head.Relation("sales")
	fresh := make([]tuple.Tuple, batch)
	for i := range fresh {
		fresh[i] = tuple.Ints(int64(i%l.d.products), int64(i%stores), int64(1000+i), 1)
	}
	keys := l.d.sortedKeys()
	for round := 0; round < 5; round++ {
		l.tr.timed("relation.insert_x1000", round, func() {
			r := sales
			for _, t := range fresh {
				r = r.Insert(t)
			}
		})
		l.tr.timed("relation.seek_x3000", round, func() {
			it := sales.Iterator()
			for i := 0; i < batch; i++ {
				k := keys[(i*7919+round)%len(keys)]
				for _, v := range [3]int64{k.p, k.s, k.wk} {
					it.Open()
					it.Seek(tuple.Int(v))
				}
				it.Up()
				it.Up()
				it.Up()
			}
		})
	}
	for round := 0; round < 3; round++ {
		l.tr.timed("relation.scan", round, func() {
			c := sales.Cursor()
			for _, ok := c.Next(); ok; _, ok = c.Next() {
			}
		})
		l.tr.timed("relation.permute", round, func() { sales.Permuted([]int{1, 0, 2, 3}) })
		ts := l.d.salesTuples()
		l.tr.timed("relation.bulk_load", round, func() { relation.FromTuples(4, ts) })
	}
	l.putMedian("relation.insert_ns", "relation.insert_x1000", 1e6, batch)
	l.putMedian("relation.seek_ns", "relation.seek_x3000", 1e6, 3*batch)
	l.putMedian("relation.scan_ns_per_tuple", "relation.scan", 1e6, float64(sales.Len()))
	l.putMedian("relation.permute_ms", "relation.permute", 1, 1)
	l.putMedian("relation.bulk_load_ms", "relation.bulk_load", 1, 1)

	was := relation.StorageStatsEnabled()
	relation.EnableStorageStats(true)
	before := relation.ReadStorageStats().NodesAllocated
	r := sales
	for _, t := range fresh {
		r = r.Insert(t)
	}
	l.put("treap.nodes_per_insert", float64(relation.ReadStorageStats().NodesAllocated-before)/batch, batch)
	relation.EnableStorageStats(was)
	return nil
}

func (l *ladder) joins() error {
	e := l.head.Relation("edge")
	mkAtoms := func() []lftj.Atom {
		return []lftj.Atom{
			{Pred: "E1", Iter: e.Iterator(), Vars: []int{0, 1}},
			{Pred: "E2", Iter: e.Iterator(), Vars: []int{1, 2}},
			{Pred: "E3", Iter: e.Iterator(), Vars: []int{0, 2}},
		}
	}
	workers := runtime.NumCPU()
	cuts := lftj.Quantiles(e.Sample(512), workers)
	want := countTriangles(l.d.edges)
	var err error
	for round := 0; round < 5; round++ {
		n := 0
		l.tr.timed("lftj.triangle", round, func() {
			j, jerr := lftj.NewJoin(3, mkAtoms(), nil)
			if jerr != nil {
				err = jerr
				return
			}
			j.Run(func(tuple.Tuple) bool { n++; return true })
		})
		pn := 0
		l.tr.timed("lftj.parallel_triangle", round, func() {
			pn, err = lftj.PartitionedCount(3, mkAtoms, cuts, workers)
		})
		if err != nil {
			return err
		}
		if n != want || pn != want {
			l.h.res.problem("lftj: %d triangles (%d partitioned), the oracle counts %d", n, pn, want)
		}
	}
	l.putMedian("lftj.triangle_ms", "lftj.triangle", 1, 1)
	l.putMedian("lftj.parallel_triangle_ms", "lftj.parallel_triangle", 1, 1)
	l.put("lftj.triangle_results", float64(want), 1)
	return nil
}

// baseRelations are the base predicates' contents at the head.
func (l *ladder) baseRelations() map[string]relation.Relation {
	return map[string]relation.Relation{
		"sales": l.head.Relation("sales"), "price": l.head.Relation("price"), "edge": l.head.Relation("edge"),
	}
}

func (l *ladder) engineRung() error {
	var err error
	var ctx *engine.Context
	for round := 0; round < 3; round++ {
		ctx = engine.NewContext(l.prog, l.baseRelations(), engine.Options{})
		l.tr.timed("engine.eval_all", round, func() { err = ctx.EvalAll() })
		if err != nil {
			return err
		}
		l.tr.timed("engine.constraints", round, func() {
			vs, cerr := ctx.CheckConstraints()
			if cerr != nil {
				err = cerr
			} else if len(vs) > 0 {
				err = fmt.Errorf("%d constraint violations on generated data", len(vs))
			}
		})
		if err != nil {
			return err
		}
	}
	l.putMedian("engine.eval_all_ms", "engine.eval_all", 1, 1)
	l.putMedian("engine.constraints_ms", "engine.constraints", 1, 1)

	scanProg, err := l.compileQuery(scanQuery)
	if err != nil {
		return err
	}
	scanRule, err := ruleFor(scanProg, "_")
	if err != nil {
		return err
	}
	aggProg, err := l.compileQuery(aggQuery)
	if err != nil {
		return err
	}
	aggRule, err := ruleFor(aggProg, "byStore")
	if err != nil {
		return err
	}
	rows := 0
	for round := 0; round < 3; round++ {
		sctx := engine.NewContext(scanProg, l.head.Relations(), engine.Options{})
		rows = 0
		l.tr.timed("engine.stream", round, func() {
			cur, serr := sctx.StreamRule(scanRule)
			if serr != nil {
				err = serr
				return
			}
			defer cur.Close()
			for _, ok := cur.Next(); ok; _, ok = cur.Next() {
				rows++
			}
			err = cur.Err()
		})
		if err != nil {
			return err
		}
		actx := engine.NewContext(aggProg, l.head.Relations(), engine.Options{})
		l.tr.timed("engine.agg", round, func() { _, err = actx.EvalRule(aggRule, nil) })
		if err != nil {
			return err
		}
	}
	if rows != len(l.d.sales) {
		l.h.res.problem("engine.StreamRule returned %d rows, the data has %d", rows, len(l.d.sales))
	}
	xs := l.tr.durations("engine.stream")
	l.put("engine.stream_rows_per_s", float64(rows)/(median(xs)/1000), len(xs))
	l.putMedian("engine.agg_ms", "engine.agg", 1, 1)
	return nil
}

// salesDelta turns probe writes into the delta a maintainer applies,
// tracking current values in cur.
func salesDelta(cur map[salesKey]int64, ws []write) ivm.Delta {
	var d ivm.Delta
	for _, w := range ws {
		if old, ok := cur[w.key]; ok {
			if !w.del && old == w.n {
				continue
			}
			d.Del = append(d.Del, tuple.Ints(w.key.p, w.key.s, w.key.wk, old))
		}
		if w.del {
			delete(cur, w.key)
		} else {
			cur[w.key] = w.n
			d.Ins = append(d.Ins, tuple.Ints(w.key.p, w.key.s, w.key.wk, w.n))
		}
	}
	return d
}

func (l *ladder) ivmRung() error {
	var m *ivm.Maintainer
	var err error
	for round := 0; round < 3; round++ {
		l.tr.timed("ivm.init", round, func() { m, err = ivm.NewMaintainer(l.prog, l.baseRelations(), ivm.Counting) })
		if err != nil {
			return err
		}
	}
	cur := make(map[salesKey]int64, len(l.d.sales))
	for k, n := range l.d.sales {
		cur[k] = n
	}
	for i, o := range l.writes {
		d := salesDelta(cur, o.writes)
		if d.Empty() {
			continue
		}
		l.tr.timed("ivm.apply_d1", i, func() { _, err = m.Apply(map[string]ivm.Delta{"sales": d}) })
		if err != nil {
			return err
		}
	}
	keys := l.d.sortedKeys()
	for round := 0; round < 5; round++ {
		var ws []write
		for i := 0; i < 100; i++ {
			k := keys[(i*6151+round*101)%len(keys)]
			ws = append(ws, write{key: k, n: (cur[k] + 1 + int64(round)) % maxUnits})
		}
		d := salesDelta(cur, ws)
		l.tr.timed("ivm.apply_d100", round, func() { _, err = m.Apply(map[string]ivm.Delta{"sales": d}) })
		if err != nil {
			return err
		}
	}
	// The maintained views must agree with the model the deltas built.
	var total int64
	for _, n := range cur {
		total += n
	}
	var got int64
	m.Relation("salesByStore").ForEach(func(t tuple.Tuple) bool { got += t[1].AsInt(); return true })
	if got != total {
		l.h.res.problem("ivm: salesByStore sums to %d after the deltas, the model to %d", got, total)
	}
	l.putMedian("ivm.init_ms", "ivm.init", 1, 1)
	l.putMedian("ivm.apply_d1_us", "ivm.apply_d1", 1000, 1)
	l.putMedian("ivm.apply_d100_us", "ivm.apply_d100", 1000, 1)
	return nil
}

// execProbe runs the probe writes from head through exec, one span each.
func (l *ladder) execProbe(spanName string, head *core.Workspace, writes []op, exec func(*core.Workspace, string) (*core.ExecResult, error)) error {
	ws := head
	for i, o := range writes {
		var res *core.ExecResult
		var err error
		l.tr.timed(spanName, i, func() { res, err = exec(ws, o.src) })
		if err != nil {
			return fmt.Errorf("%s %q: %w", spanName, o.src, err)
		}
		ws = res.Workspace
	}
	return nil
}

func (l *ladder) coreRung() error {
	// A private registry: the server always runs with one, and its exact
	// rederive counters are read here.
	reg := obs.NewRegistry()
	head := l.head.WithObserver(reg)
	evaluated, reused := reg.Counter("core.rederive.rules_evaluated"), reg.Counter("core.rederive.rules_reused")
	var evals, reuses []float64
	db := core.NewDatabaseWith(head)
	var err error
	// Commit is timed on an in-memory database right after each exec: it
	// must not depend on the data size.
	err = l.execProbe("core.exec", head, l.writes[:execOps], func(ws *core.Workspace, src string) (*core.ExecResult, error) {
		e0, r0 := evaluated.Value(), reused.Value()
		res, err := ws.ExecCtx(l.bg, src)
		if err != nil {
			return nil, err
		}
		evals = append(evals, float64(evaluated.Value()-e0))
		reuses = append(reuses, float64(reused.Value()-r0))
		if res.Workspace != ws {
			id := l.tr.begin("core.commit", -1, len(evals))
			err = db.CommitIf(logicblox.DefaultBranch, ws, res.Workspace)
			l.tr.end(id)
		}
		return res, err
	})
	if err != nil {
		return err
	}
	err = l.execProbe("core.exec_recorded", head, l.writes[:execOps], func(ws *core.Workspace, src string) (*core.ExecResult, error) {
		res, _, err := ws.ExecRecordedCtx(l.bg, src)
		return res, err
	})
	if err != nil {
		return err
	}
	execMs := l.putMedian("core.exec_ms", "core.exec", 1, 1)
	l.putMedian("core.exec_recorded_ms", "core.exec_recorded", 1, 1)
	l.put("core.rederive_evaluated_per_exec", median(evals), len(evals))
	l.put("core.rederive_reused_per_exec", median(reuses), len(reuses))
	maintain := l.out["engine.eval_all_ms"].Value + l.out["engine.constraints_ms"].Value
	l.put("core.exec_maintain_share", maintain/execMs, 1)
	l.put("ivm.headroom_x", execMs/(l.out["ivm.apply_d1_us"].Value/1000), 1)

	// Branching must not depend on the data size either.
	for i := 0; i < probeOps; i++ {
		l.tr.timed("core.branch", i, func() { err = db.Branch(logicblox.DefaultBranch, "probe") })
		if err != nil {
			return err
		}
		if err := db.DeleteBranch("probe"); err != nil {
			return err
		}
	}
	l.putMedian("core.commit_us", "core.commit", 1000, 1)
	l.putMedian("core.branch_us", "core.branch", 1000, 1)

	// Repair: a recorded exec against a head moved by a write on another
	// product.
	for i := 0; i+1 < execOps/2; i += 2 {
		a, b := l.writes[i], l.writes[i+1]
		if a.writes[0].key.p == b.writes[0].key.p {
			continue
		}
		_, rec, err := head.ExecRecordedCtx(l.bg, a.src)
		if err != nil {
			return err
		}
		moved, err := head.ExecCtx(l.bg, b.src)
		if err != nil {
			return err
		}
		id := l.tr.begin("core.repair", -1, i)
		_, _, err = rec.Repair(l.bg, moved.Workspace)
		l.tr.end(id)
		if err != nil && !errors.Is(err, core.ErrRepairNotApplicable) {
			return err
		}
	}
	l.putMedian("core.repair_ms", "core.repair", 1, 1)

	for i, o := range l.reads {
		var rows []tuple.Tuple
		l.tr.timed("core.query_point", i, func() { rows, err = head.QueryCtx(l.bg, o.src) })
		if err != nil {
			return err
		}
		if len(rows) != 1 {
			l.h.res.problem("core.QueryCtx %q: %d rows, want 1", o.src, len(rows))
		}
	}
	l.putMedian("core.query_point_us", "core.query_point", 1000, 1)
	rows := 0
	for round := 0; round < 3; round++ {
		rows = 0
		l.tr.timed("core.query_scan", round, func() {
			cur, serr := head.QueryStream(l.bg, scanQuery)
			if serr != nil {
				err = serr
				return
			}
			defer cur.Close()
			for _, ok := cur.Next(); ok; _, ok = cur.Next() {
				rows++
			}
			err = cur.Err()
		})
		if err != nil {
			return err
		}
	}
	xs := l.tr.durations("core.query_scan")
	l.put("core.query_scan_rows_per_s", float64(rows)/(median(xs)/1000), len(xs))
	for round := 0; round < 5; round++ {
		l.tr.timed("core.addblock", round, func() { _, err = head.AddBlockCtx(l.bg, rollupName, rollupBlock) })
		if err != nil {
			return err
		}
	}
	l.putMedian("core.addblock_ms", "core.addblock", 1, 1)

	// The same one-fact exec at tx-mixed's data size: the slope is 1 when
	// exec costs O(change).
	small, _ := specByName("tx-mixed")
	small = l.h.rc.spec(small)
	sd := generate(l.h.rc.seed, small)
	sdb, err := buildDatabase(sd)
	if err != nil {
		return err
	}
	shead, err := sdb.Workspace(logicblox.DefaultBranch)
	if err != nil {
		return err
	}
	sg := l.probeGen("tx-write", 1, sd)
	var swrites []op
	for i := 0; i < execOps; i++ {
		swrites = append(swrites, sg.next()...)
	}
	if err := l.execProbe("core.exec_small", shead.WithObserver(reg), swrites, func(ws *core.Workspace, src string) (*core.ExecResult, error) {
		return ws.ExecCtx(l.bg, src)
	}); err != nil {
		return err
	}
	l.put("core.exec_size_slope", execMs/median(l.tr.durations("core.exec_small")), execOps)
	return nil
}

// openStore opens a durable store with no background triggers.
func openStore(dir string) (*durable.Store, error) {
	return durable.Open(dir, durable.Options{CheckpointEvery: -1, CheckpointInterval: -1})
}

func (l *ladder) durableRung() error {
	dir := filepath.Join(l.h.work, "ladder-durable")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	// Sandbox calibration: a raw 4 KiB append + fsync in the same directory.
	f, err := os.OpenFile(filepath.Join(dir, "fsync.probe"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	block := make([]byte, 4096)
	for i := 0; i < probeOps; i++ {
		l.tr.timed("durable.fsync", i, func() {
			if _, werr := f.Write(block); werr != nil {
				err = werr
				return
			}
			err = f.Sync()
		})
		if err != nil {
			f.Close()
			return err
		}
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Remove(f.Name()); err != nil {
		return err
	}
	l.putMedian("durable.fsync_us", "durable.fsync", 1000, 1)

	fresh := func() (*core.Database, error) { return buildDatabase(l.d) }
	facts := float64(len(l.d.sales) + len(l.d.price) + len(l.d.edges))
	reopen := func(spanName string, op int) (*durable.Store, *core.Database, time.Duration, error) {
		st, err := openStore(dir)
		if err != nil {
			return nil, nil, 0, err
		}
		var db *core.Database
		d := l.tr.timed(spanName, op, func() { db, err = st.Recover(fresh) })
		if err != nil {
			st.Close()
			return nil, nil, 0, err
		}
		return st, db, d, nil
	}
	checkpoint := func(st *durable.Store, db *core.Database, op int) error {
		var err error
		l.tr.timed("durable.checkpoint", op, func() { err = st.Checkpoint(db.SaveSnapshot) })
		return err
	}

	st, db, _, err := reopen("durable.open_empty", 0)
	if err != nil {
		return err
	}
	if err := checkpoint(st, db, 0); err != nil {
		return err
	}
	snapBytes, err := dirBytes(dir)
	if err != nil {
		return err
	}
	l.put("durable.snapshot_bytes_per_fact", float64(snapBytes)/facts, 1)
	if err := st.Close(); err != nil {
		return err
	}

	// Snapshot only, then the same snapshot plus a tail of exec records.
	st, db, _, err = reopen("durable.recover_snapshot", 0)
	if err != nil {
		return err
	}
	db.SetCommitHook(func(rec core.CommitRecord) error {
		var err error
		l.tr.timed("durable.log_commit", int(rec.Seq), func() { err = st.LogCommit(rec) })
		return err
	})
	before, err := dirBytes(dir)
	if err != nil {
		return err
	}
	records := 0
	for _, o := range l.writes[:execOps] {
		ws, err := db.Workspace(logicblox.DefaultBranch)
		if err != nil {
			return err
		}
		res, err := ws.ExecCtx(l.bg, o.src)
		if err != nil {
			return err
		}
		if res.Workspace == ws {
			continue
		}
		if err := db.CommitIfRecorded(logicblox.DefaultBranch, ws, res.Workspace, core.CommitRecord{Kind: "exec", Src: o.src}); err != nil {
			return err
		}
		records++
	}
	after, err := dirBytes(dir)
	if err != nil {
		return err
	}
	l.putMedian("durable.log_commit_us", "durable.log_commit", 1000, 1)
	l.put("durable.journal_bytes_per_commit", float64(after-before)/float64(records), records)
	if err := st.Close(); err != nil {
		return err
	}

	st, db, withTail, err := reopen("durable.recover_tail", 0)
	if err != nil {
		return err
	}
	if got := st.Stats().JournalReplayed; got != records {
		l.h.res.problem("durable: recovery replayed %d records, %d were journaled", got, records)
	}
	if err := checkpoint(st, db, 1); err != nil {
		return err
	}
	if err := st.Close(); err != nil {
		return err
	}
	st, _, _, err = reopen("durable.recover_snapshot", 1)
	if err != nil {
		return err
	}
	if err := st.Close(); err != nil {
		return err
	}
	snapMs := l.putMedian("durable.recover_snapshot_ms", "durable.recover_snapshot", 1, 1)
	l.put("durable.replay_ms_per_record", (ms(withTail)-snapMs)/float64(records), records)
	l.putMedian("durable.checkpoint_ms", "durable.checkpoint", 1, 1)
	return nil
}

// serverRung calls the HTTP handler in-process on a durable database, so
// what it adds over core and durable is the server's own share.
func (l *ladder) serverRung() error {
	dir := filepath.Join(l.h.work, "ladder-server")
	st, err := openStore(dir)
	if err != nil {
		return err
	}
	defer st.Close()
	db, err := st.Recover(func() (*core.Database, error) { return buildDatabase(l.d) })
	if err != nil {
		return err
	}
	db.SetCommitHook(st.LogCommit)
	handler := server.New(db, server.Config{Durable: st, Obs: obs.NewRegistry()}).Handler()
	call := func(spanName string, i int, o op) (*httptest.ResponseRecorder, error) {
		body, err := json.Marshal(o.body())
		if err != nil {
			return nil, err
		}
		req := httptest.NewRequest(http.MethodPost, "/v1"+o.path, bytes.NewReader(body))
		rec := httptest.NewRecorder()
		l.tr.timed(spanName, i, func() { handler.ServeHTTP(rec, req) })
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("%s: status %d: %s", spanName, rec.Code, rec.Body.String())
		}
		return rec, nil
	}
	for i, o := range l.writes[:execOps] {
		if _, err := call("server.exec", i, o); err != nil {
			return err
		}
	}
	for i, o := range l.reads {
		if _, err := call("server.query", i, o); err != nil {
			return err
		}
	}
	// Differences of medians from separate replays: once an exec costs tens
	// of milliseconds they fall below the noise, and read 0.
	execUs := median(l.tr.durations("server.exec")) * 1000
	l.put("server.exec_overhead_us", max(0, execUs-l.out["core.exec_recorded_ms"].Value*1000-l.out["durable.log_commit_us"].Value), execOps)
	queryUs := median(l.tr.durations("server.query")) * 1000
	l.put("server.query_overhead_us", max(0, queryUs-l.out["core.query_point_us"].Value), len(l.reads))

	rows := float64(l.head.Relation("sales").Len())
	for round := 0; round < 3; round++ {
		if _, err := call("server.scan_materialized", round, op{kind: kScan, path: "/query", src: scanQuery}); err != nil {
			return err
		}
		if _, err := call("server.scan_stream", round, op{kind: kScan, path: "/query", src: scanQuery, stream: true}); err != nil {
			return err
		}
	}
	// The scans ran after the probe writes: a few extra-week facts may
	// have come or gone, which does not move a rate over tens of thousands.
	l.put("server.encode_rows_per_s", rows/(median(l.tr.durations("server.scan_materialized"))/1000), 3)
	l.put("server.stream_rows_per_s", rows/(median(l.tr.durations("server.scan_stream"))/1000), 3)
	return nil
}

// clientRung starts the real subprocess: the HTTP floor under every
// latency, then the workload's own first cycles with a client span per
// request, counting retries, repairs and the queue depth.
func (l *ladder) clientRung() error {
	h := l.h
	if _, err := h.setup(0); err != nil {
		return err
	}
	c := newClient(h.srv.base)
	defer c.close()
	for i := 0; i < rttSamples; i++ {
		var err error
		l.tr.timed("client.rtt", i, func() { _, err = c.health() })
		if err != nil {
			return err
		}
	}
	l.putMedian("client.rtt_us", "client.rtt", 1000, 1)

	stop := make(chan struct{})
	var depthMax int64
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		sc := newClient(h.srv.base)
		defer sc.close()
		for {
			select {
			case <-stop:
				return
			case <-time.After(10 * time.Millisecond):
			}
			if d, err := sc.gauge("server.queue.depth"); err == nil && d > depthMax {
				depthMax = d
			}
		}
	}()
	var mu sync.Mutex
	writes, retries, repairs := 0, 0, 0
	var wg sync.WaitGroup
	n := min(replayed, h.rc.cycles(h.sp))
	for ci := 0; ci < h.sp.clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			g := newOpGen(h.rc.seed, h.sp, l.d, ci)
			cc := newClient(h.srv.base)
			defer cc.close()
			for i := 0; i < n; i++ {
				cyc := l.tr.begin("client.cycle", -1, i)
				for _, o := range g.next() {
					id := l.tr.begin("client."+o.kind, cyc, i)
					a, _, ok := h.exec1(cc, o)
					l.tr.end(id)
					if ok && (o.kind == kExec || o.kind == kAddBlock) {
						mu.Lock()
						writes++
						retries += a.retries
						repairs += a.repairs
						mu.Unlock()
					}
				}
				l.tr.end(cyc)
			}
		}(ci)
	}
	wg.Wait()
	close(stop)
	sampler.Wait()
	l.put("server.retries_per_write", float64(retries)/float64(max(writes, 1)), writes)
	l.put("server.repairs_per_write", float64(repairs)/float64(max(writes, 1)), writes)
	l.put("server.queue_depth_max", float64(depthMax), 1)
	h.oracle("after the traced replay")
	return nil
}
