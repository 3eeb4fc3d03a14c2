package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// The end-to-end run: a real lb-serve subprocess, closed-loop clients
// over /v1, tracing off. Phases: set-up (timed on its own, repeated) →
// warm-up → timed cycles → journal tail → oracle → SIGKILL/restart
// (timed, repeated) → oracle again.

const (
	setupRepeats   = 5 // setup_s is the median of this many full set-ups
	recoverRepeats = 5 // recover_s is the median of this many kill/restarts
)

// runConfig is what one invocation asks for.
type runConfig struct {
	seed    int64
	seconds int
	quick   bool
}

func (rc runConfig) spec(sp spec) spec {
	if rc.quick {
		return sp.scaled(20)
	}
	return sp
}

// cycles is how many timed cycles each client runs: --seconds at the
// calibrated nominal rate, so the work is the same on every commit.
func (rc runConfig) cycles(sp spec) int {
	n := int(float64(rc.seconds) * sp.cyclesPerSec)
	if rc.quick {
		n = min(n, 12)
	}
	return max(n, 4)
}

// timing is when one request or cycle began and ended.
type timing struct{ start, end time.Time }

func (t timing) ms() float64 { return ms(t.end.Sub(t.start)) }

// samples collects the timed phase's timings, each list in completion
// order.
type samples struct {
	mu       sync.Mutex
	byKind   map[string][]timing
	cycle    []timing
	cycleOps []int // requests per cycle
	scanRows int   // rows one timed scan returns
}

func newSamples() *samples { return &samples{byKind: map[string][]timing{}} }

// wlResult is one workload's outcome.
type wlResult struct {
	Workload  string           `json:"workload"`
	Why       string           `json:"why"`
	Facts     int              `json:"facts"`
	Edges     int              `json:"edges"`
	Clients   int              `json:"clients"`
	Cycles    int              `json:"cycles_per_client"`
	OpsSHA256 string           `json:"ops_sha256"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Problems  []string         `json:"problems,omitempty"`
	EndToEnd  map[string]value `json:"end_to_end,omitempty"`
	PerLayer  map[string]value `json:"per_layer,omitempty"`
}

func (r *wlResult) problem(format string, args ...any) {
	r.Correct = false
	if len(r.Problems) < 20 {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

// harness is one workload's run state.
type harness struct {
	p     paths
	sp    spec
	rc    runConfig
	work  string      // scratch directory of this run
	cal   *calibrator // the yardstick, running for the harness's whole life
	res   *wlResult
	model *dataset // oracle model of the main branch
	srv   *serverProc
	mu    sync.Mutex // guards res counters and the model
}

func newHarness(p paths, sp spec, rc runConfig) (*harness, error) {
	if err := os.MkdirAll(p.scratch, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(p.scratch, "run-"+sp.name+"-")
	if err != nil {
		return nil, err
	}
	sp = rc.spec(sp)
	return &harness{p: p, sp: sp, rc: rc, work: work, cal: startCalibrator(), res: &wlResult{
		Workload: sp.name, Why: sp.why, Facts: sp.facts, Edges: sp.edges, Clients: sp.clients,
		Correct: true, OpsSHA256: opsHash(rc.seed, sp),
	}}, nil
}

// cleanup stops the server, if one is running, and removes the scratch
// directory.
func (h *harness) cleanup() {
	h.cal.close()
	h.stopServer()
	os.RemoveAll(h.work)
}

func (h *harness) stopServer() {
	if h.srv != nil {
		h.srv.kill()
		h.srv = nil
	}
}

// setup generates the data, builds the database with the library, starts
// lb-serve on a fresh data directory, uploads the snapshot and restarts
// the server on it. It returns when all of that began and ended.
func (h *harness) setup(n int) (timing, error) {
	h.stopServer()
	t0 := time.Now()
	h.model = generate(h.rc.seed, h.sp)
	snap, err := buildSnapshot(h.model)
	if err != nil {
		return timing{}, fmt.Errorf("building database: %w", err)
	}
	srv, _, err := startServer(h.p, filepath.Join(h.work, fmt.Sprintf("data%d", n)))
	if err != nil {
		return timing{}, err
	}
	h.srv = srv
	c := newClient(srv.base)
	defer c.close()
	if err := c.load(snap); err != nil {
		return timing{}, err
	}
	// lb-serve's background checkpointer stays bound to the database it
	// started with, so after /load its count-triggered checkpoints never
	// fire. /load has already checkpointed the upload; restarting makes the
	// loaded database the one the checkpointer snapshots.
	if _, err := h.restart(); err != nil {
		return timing{}, err
	}
	return timing{t0, time.Now()}, nil
}

// exec1 sends one op, counts it, and on success checks the answer's shape
// and applies its writes to the model.
func (h *harness) exec1(c *client, o op) (answer, timing, bool) {
	t0 := time.Now()
	a, err := c.do(o)
	d := timing{t0, time.Now()}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.res.Attempted++
	if err != nil {
		h.res.Failed++
		h.res.problem("%v", err)
		return a, d, false
	}
	if o.expectRows >= 0 && a.nRows != o.expectRows {
		h.res.Failed++
		h.res.problem("%s %q: %d rows, want %d", o.kind, o.src, a.nRows, o.expectRows)
		return a, d, false
	}
	if o.checkSum && a.lastSum != o.expectSum {
		h.res.Failed++
		h.res.problem("%s %q: last column sums to %d, want %d", o.kind, o.src, a.lastSum, o.expectSum)
		return a, d, false
	}
	for _, w := range o.writes {
		if w.del {
			delete(h.model.sales, w.key)
		} else {
			h.model.sales[w.key] = w.n
		}
	}
	return a, d, true
}

// runCycles drives every client through its pre-generated cycles in a
// closed loop; sm, when not nil, receives the latencies.
func (h *harness) runCycles(cycles [][][]op, sm *samples) {
	var wg sync.WaitGroup
	for ci := range cycles {
		wg.Add(1)
		go func(mine [][]op) {
			defer wg.Done()
			c := newClient(h.srv.base)
			defer c.close()
			for _, cyc := range mine {
				c0 := time.Now()
				for _, o := range cyc {
					a, d, _ := h.exec1(c, o)
					if sm == nil {
						continue
					}
					sm.mu.Lock()
					sm.byKind[o.kind] = append(sm.byKind[o.kind], d)
					if o.kind == kScan {
						sm.scanRows = a.nRows
					}
					sm.mu.Unlock()
				}
				if sm != nil {
					sm.mu.Lock()
					sm.cycle = append(sm.cycle, timing{c0, time.Now()})
					sm.cycleOps = append(sm.cycleOps, len(cyc))
					sm.mu.Unlock()
				}
			}
		}(cycles[ci])
	}
	wg.Wait()
}

// writesJournal reports whether the workload journals anything.
func (h *harness) writesJournal() bool { return h.sp.name != "analytic" }

// padOp is a one-record filler: a branch that is never used again.
func padOp(i int) op {
	return op{kind: kBranch, path: "/branches", brOp: "create", branch: fmt.Sprintf("pad%d", i), expectRows: -1}
}

// journalTail leaves exactly tailRecords journal records past the last
// checkpoint, so every run's restart replays the same records. It first
// drives the server with fill's cycles to a checkpoint taken while idle
// (the checkpoint then covers everything), then runs tail's cycles and
// single-record fillers up to the count. It returns the journal bytes per
// record of that tail.
func (h *harness) journalTail(fill, tail *opGen) (float64, error) {
	c := newClient(h.srv.base)
	defer c.close()
	pending := func() (int, error) {
		hl, err := c.health()
		return hl.Durable.PendingCommits, err
	}
	records := 1 // journal records one cycle appends
	if h.sp.name == "workbook" {
		records = 4
	}
	pads := 0
	step := func(target int, cycle func() []op) error {
		for {
			n, err := pending()
			if err != nil || n >= target {
				return err
			}
			if target-n >= records {
				for _, o := range cycle() {
					if _, _, ok := h.exec1(c, o); !ok {
						return fmt.Errorf("journal tail: %s failed", o.kind)
					}
				}
				continue
			}
			if _, _, ok := h.exec1(c, padOp(pads)); !ok {
				return fmt.Errorf("journal tail: filler failed")
			}
			pads++
		}
	}
	// Reach a checkpoint that covers everything: fill the journal to the
	// checkpoint threshold, then send nothing until the background
	// checkpoint is done. A checkpoint that was already running when the
	// threshold was crossed leaves a remainder; go round again.
	for {
		if err := step(checkpointEvery, fill.next); err != nil {
			return 0, err
		}
		deadline := time.Now().Add(60 * time.Second)
		n := checkpointEvery
		for n >= checkpointEvery {
			if time.Now().After(deadline) {
				return 0, fmt.Errorf("journal tail: checkpoint did not finish (pending %d)", n)
			}
			time.Sleep(2 * time.Millisecond)
			var err error
			if n, err = pending(); err != nil {
				return 0, err
			}
		}
		if n == 0 {
			break
		}
	}
	before, err := dirBytes(h.srv.dataDir)
	if err != nil {
		return 0, err
	}
	if err := step(tailRecords, tail.tailCycle); err != nil {
		return 0, err
	}
	after, err := dirBytes(h.srv.dataDir)
	if err != nil {
		return 0, err
	}
	if n, _ := pending(); n != tailRecords {
		return 0, fmt.Errorf("journal tail: %d records pending, want %d", n, tailRecords)
	}
	return float64(after-before) / tailRecords, nil
}

// restart SIGKILLs the server and starts it again on the same data
// directory, returning process start → /healthz ready.
func (h *harness) restart() (timing, error) {
	dir := h.srv.dataDir
	h.stopServer()
	t0 := time.Now()
	srv, _, err := startServer(h.p, dir)
	if err != nil {
		return timing{}, err
	}
	h.srv = srv
	return timing{t0, time.Now()}, nil
}

// runEndToEnd runs one workload with tracing off and fills res.EndToEnd
// with the driver-checked metrics and the scoped ones that apply.
func runEndToEnd(p paths, sp spec, rc runConfig) (*wlResult, error) {
	h, err := newHarness(p, sp, rc)
	if err != nil {
		return nil, err
	}
	defer h.cleanup()
	res := h.res

	var setups []timing
	for i := 0; i < setupRepeats; i++ {
		t, err := h.setup(i)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", sp.name, err)
		}
		setups = append(setups, t)
	}

	// Pre-generate every cycle, so the timed loop only sends.
	nCycles := rc.cycles(h.sp)
	res.Cycles = nCycles
	gens := make([]*opGen, h.sp.clients)
	warm := make([][][]op, h.sp.clients)
	timed := make([][][]op, h.sp.clients)
	loaded := generate(rc.seed, h.sp) // the generators' read-only view
	for c := range gens {
		gens[c] = newOpGen(rc.seed, h.sp, loaded, c)
		for i := 0; i < h.sp.warmup; i++ {
			warm[c] = append(warm[c], gens[c].next())
		}
		for i := 0; i < nCycles; i++ {
			timed[c] = append(timed[c], gens[c].next())
		}
	}

	h.runCycles(warm, nil)
	sm := newSamples()
	before := res.Attempted
	h.runCycles(timed, sm)
	timedOps := res.Attempted - before

	e2e := map[string]value{}
	put := func(name string, v, raw float64, n int) {
		d, _ := defByName(name)
		e2e[name] = value{Value: v, Unit: d.unit, Raw: raw, Samples: n}
	}
	p50 := func(xs []float64) float64 { return percentile(xs, 0.50) }
	p95 := func(xs []float64) float64 { return percentile(xs, 0.95) }
	v, raw := h.cal.each(setups)
	put("setup_s", v/1000, raw/1000, len(setups))
	v, raw = h.cal.rate(sm.cycle, sm.cycleOps)
	put("ops_per_s", v, raw, timedOps)
	v, raw = h.cal.blocks(sm.cycle, p50)
	put("cycle_p50_ms", v, raw, len(sm.cycle))
	v, raw = h.cal.blocks(sm.cycle, p95)
	put("cycle_p95_ms", v, raw, len(sm.cycle))
	for kind, name := range map[string]string{
		kExec: "exec", kQuery: "query", kPrefix: "prefix", kScan: "scan", kJoin: "join", kAgg: "agg",
		kRange: "range", kBranch: "branch", kAddBlock: "addblock",
	} {
		ts := sm.byKind[kind]
		if len(ts) == 0 {
			continue
		}
		v, raw := h.cal.blocks(ts, p50)
		if kind == kScan {
			put("scan_rows_per_s", float64(sm.scanRows)/(v/1000), float64(sm.scanRows)/(raw/1000), len(ts))
			continue
		}
		put(name+"_p50_ms", v, raw, len(ts))
		if _, ok := defByName(name + "_p95_ms"); ok && h.sp.name != "workbook" {
			v, raw := h.cal.blocks(ts, p95)
			put(name+"_p95_ms", v, raw, len(ts))
		}
	}

	if h.writesJournal() {
		perCommit, err := h.journalTail(gens[0], newTailGen(rc.seed, h.sp, loaded))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sp.name, err)
		}
		put("journal_bytes_per_commit", perCommit, 0, tailRecords)
	}
	h.oracle("before the kill")
	rss, err := h.srv.rssPeakMB()
	if err != nil {
		return nil, err
	}
	put("rss_peak_mb", rss, 0, 1)

	var recovers []timing
	for i := 0; i < recoverRepeats; i++ {
		t, err := h.restart()
		if err != nil {
			return nil, fmt.Errorf("%s: restart after SIGKILL: %w", sp.name, err)
		}
		recovers = append(recovers, t)
	}
	v, raw = h.cal.each(recovers)
	put("recover_s", v/1000, raw/1000, len(recovers))
	h.oracle("after the SIGKILL restart")

	put("failed_frac", float64(res.Failed)/float64(max(res.Attempted, 1)), 0, res.Attempted)
	res.EndToEnd = e2e
	return res, nil
}
