package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"logicblox"
	"logicblox/internal/tuple"
)

// serverFlags are the lb-serve flags every end-to-end run uses (the
// report records them). No time-triggered background work: checkpoints
// fire on commit count only, so a one-client run repeats its counts.
var serverFlags = []string{
	"-fsync", "always",
	"-checkpoint-every", strconv.Itoa(checkpointEvery),
	"-checkpoint-interval", "-1s",
	"-retries", "8",
}

const (
	checkpointEvery = 100
	// tailRecords is how many journal records sit past the last checkpoint
	// when the server is killed, on every workload that writes.
	tailRecords = 50
)

// paths locates the benchmark's own directory, the repo root above it
// and the gitignored scratch directory everything is written under.
type paths struct {
	benchDir string // holds this package's go.mod
	root     string
	scratch  string // <root>/.bench_build
	bin      string // built lb-serve
}

func locate() (paths, error) {
	wd, err := os.Getwd()
	if err != nil {
		return paths{}, err
	}
	mod, err := os.ReadFile(filepath.Join(wd, "go.mod"))
	if err != nil || !strings.Contains(string(mod), "module logicblox/benchmark") {
		return paths{}, fmt.Errorf("run from the benchmark directory (go run -C benchmark .): no logicblox/benchmark go.mod in %s", wd)
	}
	root := filepath.Dir(wd)
	scratch := filepath.Join(root, ".bench_build")
	return paths{benchDir: wd, root: root, scratch: scratch, bin: filepath.Join(scratch, "lb-serve")}, nil
}

// buildServer compiles cmd/lb-serve, the binary users run, from the
// checkout's source. The go build cache makes repeats cheap.
func buildServer(p paths) error {
	if err := os.MkdirAll(p.scratch, 0o755); err != nil {
		return err
	}
	cmd := exec.Command("go", "build", "-o", p.bin, "logicblox/cmd/lb-serve")
	cmd.Dir = p.benchDir
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("building lb-serve: %v\n%s", err, out)
	}
	return nil
}

// buildSnapshot builds the database with the library (AddBlock + Load)
// and returns the bytes POST /v1/load accepts.
func buildSnapshot(d *dataset) ([]byte, error) {
	db, err := buildDatabase(d)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func buildDatabase(d *dataset) (*logicblox.Database, error) {
	db := logicblox.Open()
	ws, err := db.Workspace(logicblox.DefaultBranch)
	if err != nil {
		return nil, err
	}
	if ws, err = ws.AddBlock(schemaName, schemaBlock); err != nil {
		return nil, err
	}
	if ws, err = ws.Load("price", d.priceTuples()); err != nil {
		return nil, err
	}
	if ws, err = ws.Load("edge", d.edgeTuples()); err != nil {
		return nil, err
	}
	if ws, err = ws.Load("sales", d.salesTuples()); err != nil {
		return nil, err
	}
	return db, db.Commit(logicblox.DefaultBranch, ws)
}

func (d *dataset) priceTuples() []tuple.Tuple {
	out := make([]tuple.Tuple, len(d.price))
	for p, v := range d.price {
		out[p] = tuple.Ints(int64(p), v)
	}
	return out
}

func (d *dataset) edgeTuples() []tuple.Tuple {
	out := make([]tuple.Tuple, len(d.edges))
	for i, e := range d.edges {
		out[i] = tuple.Ints(e[0], e[1])
	}
	return out
}

func (d *dataset) salesTuples() []tuple.Tuple {
	keys := d.sortedKeys()
	out := make([]tuple.Tuple, len(keys))
	for i, k := range keys {
		out[i] = tuple.Ints(k.p, k.s, k.wk, d.sales[k])
	}
	return out
}

// serverProc is one lb-serve subprocess on a data directory.
type serverProc struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:port/v1
	dataDir string
	log     *os.File
	done    chan struct{} // closed once the process has been waited for
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer launches lb-serve on dataDir and returns once /healthz
// answers 200; the returned duration is process start → ready, which on
// a used data directory is the recovery time.
func startServer(p paths, dataDir string) (*serverProc, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.OpenFile(dataDir+".log", os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	args := append([]string{"-addr", fmt.Sprintf("127.0.0.1:%d", port), "-data-dir", dataDir}, serverFlags...)
	cmd := exec.Command(p.bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// Should the benchmark itself be killed, the server must not outlive it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, err
	}
	s := &serverProc{cmd: cmd, base: fmt.Sprintf("http://127.0.0.1:%d/v1", port), dataDir: dataDir, log: logf, done: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(s.done)
	}()
	hc := &http.Client{Timeout: 2 * time.Second}
	for time.Since(t0) < 120*time.Second {
		resp, err := hc.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(t0), nil
			}
		}
		select {
		case <-s.done:
			s.log.Close()
			return nil, 0, fmt.Errorf("lb-serve on %s exited during start-up (see %s.log)", dataDir, dataDir)
		case <-time.After(time.Millisecond):
		}
	}
	s.kill()
	return nil, 0, fmt.Errorf("lb-serve on %s did not become ready (see %s.log)", dataDir, dataDir)
}

// kill SIGKILLs the server and waits for it to be gone.
func (s *serverProc) kill() {
	s.cmd.Process.Kill()
	<-s.done
	s.log.Close()
}

// rssPeakMB is the server's VmHWM in MB.
func (s *serverProc) rssPeakMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// dirBytes is the total size of the regular files in dir.
func dirBytes(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range ents {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n, nil
}

// client is one closed-loop HTTP client with its own connection.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1}
	return &client{hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}, base: base}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// wireRequest mirrors the server's Request and BranchRequest bodies.
type wireRequest struct {
	Branch string `json:"branch,omitempty"`
	Src    string `json:"src,omitempty"`
	Name   string `json:"name,omitempty"`
	Limit  *int   `json:"limit,omitempty"`
	Stream bool   `json:"stream,omitempty"`
	Op     string `json:"op,omitempty"`
	From   string `json:"from,omitempty"`
	To     string `json:"to,omitempty"`
}

// answer is what the harness keeps of a response.
type answer struct {
	rows    [][]json.Number // materialized answers
	nRows   int
	lastSum int64 // sum of the last column
	retries int
	repairs int
}

var uncapped = 0

func (o op) body() wireRequest {
	switch o.path {
	case "/branches":
		return wireRequest{Op: o.brOp, From: logicblox.DefaultBranch, To: o.branch}
	case "/query":
		return wireRequest{Branch: o.branch, Src: o.src, Limit: &uncapped, Stream: o.stream}
	}
	return wireRequest{Branch: o.branch, Src: o.src, Name: o.name}
}

// do sends one request and reads the whole answer. Any transport error,
// non-200 status or ok:false body is an error.
func (c *client) do(o op) (answer, error) {
	var a answer
	b, err := json.Marshal(o.body())
	if err != nil {
		return a, err
	}
	resp, err := c.hc.Post(c.base+o.path, "application/json", bytes.NewReader(b))
	if err != nil {
		return a, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return a, fmt.Errorf("%s %s: status %d: %s", o.kind, o.path, resp.StatusCode, bytes.TrimSpace(msg))
	}
	if o.stream {
		return readStream(resp.Body)
	}
	var env struct {
		OK      bool            `json:"ok"`
		Rows    [][]json.Number `json:"rows"`
		Retries int             `json:"retries"`
		Repairs int             `json:"repairs"`
	}
	dec := json.NewDecoder(resp.Body)
	dec.UseNumber()
	if err := dec.Decode(&env); err != nil {
		return a, fmt.Errorf("%s: decoding answer: %w", o.kind, err)
	}
	if !env.OK {
		return a, fmt.Errorf("%s: answer not ok", o.kind)
	}
	a.rows, a.nRows, a.retries, a.repairs = env.Rows, len(env.Rows), env.Retries, env.Repairs
	for _, r := range env.Rows {
		if v, err := r[len(r)-1].Int64(); err == nil {
			a.lastSum += v
		}
	}
	return a, nil
}

// readStream drains an NDJSON answer: {"row":[...]} lines and a final
// {"summary":{...}} whose row count must match.
func readStream(r io.Reader) (answer, error) {
	var a answer
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	sawSummary := false
	for sc.Scan() {
		line := sc.Bytes()
		if bytes.HasPrefix(line, []byte(`{"row":`)) {
			a.nRows++
			// The last column is an integer: parse it without a JSON decoder.
			end := bytes.LastIndexByte(line, ']')
			start := bytes.LastIndexByte(line[:end], ',')
			v, err := strconv.ParseInt(string(line[start+1:end]), 10, 64)
			if err != nil {
				return a, fmt.Errorf("stream row %q: %w", line, err)
			}
			a.lastSum += v
			continue
		}
		var tr struct {
			Summary *struct {
				OK   bool  `json:"ok"`
				Rows int64 `json:"rows"`
			} `json:"summary"`
		}
		if err := json.Unmarshal(line, &tr); err != nil || tr.Summary == nil {
			return a, fmt.Errorf("unexpected stream line %q", line)
		}
		if !tr.Summary.OK || tr.Summary.Rows != int64(a.nRows) {
			return a, fmt.Errorf("stream summary %s disagrees with %d rows read", line, a.nRows)
		}
		sawSummary = true
	}
	if err := sc.Err(); err != nil {
		return a, err
	}
	if !sawSummary {
		return a, errors.New("stream ended without a summary")
	}
	return a, nil
}

// load uploads a snapshot with POST /v1/load.
func (c *client) load(snapshot []byte) error {
	resp, err := c.hc.Post(c.base+"/load", "application/octet-stream", bytes.NewReader(snapshot))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("load: status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	io.Copy(io.Discard, resp.Body)
	return nil
}

// health is the part of /healthz the harness reads.
type health struct {
	Durable struct {
		PendingCommits int `json:"pending_commits"`
	} `json:"durable"`
}

func (c *client) health() (health, error) {
	var h health
	resp, err := c.hc.Get(c.base + "/healthz")
	if err != nil {
		return h, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return h, fmt.Errorf("healthz: status %d", resp.StatusCode)
	}
	return h, json.NewDecoder(resp.Body).Decode(&h)
}

// gauge reads one gauge from /debug/vars.
func (c *client) gauge(name string) (int64, error) {
	resp, err := c.hc.Get(c.base + "/debug/vars")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var doc struct {
		Gauges map[string]int64 `json:"gauges"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return 0, err
	}
	return doc.Gauges[name], nil
}
