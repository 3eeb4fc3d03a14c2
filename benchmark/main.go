// Command benchmark is the repository's one benchmark: it drives a real
// lb-serve subprocess over /v1 with four seeded retail workloads for the
// end-to-end metrics, and in a separate traced run replays seeded inputs
// in-process through each layer's public functions for the per-layer
// metrics. See README.md in this directory.
//
//	go run -C benchmark . --workload tx-write --seed 1 --seconds 12 --trace 0
//	go run -C benchmark .                      # the whole suite, report in .bench_build/out
//	go run -C benchmark . -quick               # same code paths, data ÷ 20
//	go run -C benchmark . -compare A B         # A, B: report files or directories of them
//	go run -C benchmark . -summary A           # medians and quartiles of A's reports
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 12

// logw receives progress and the human-readable report; standard output
// carries only the result line.
var logw io.Writer = os.Stderr

// report is what a suite run writes and -compare reads.
type report struct {
	Seed        int64       `json:"seed"`
	Seconds     int         `json:"seconds"`
	Quick       bool        `json:"quick"`
	ServerFlags []string    `json:"server_flags"`
	NProc       int         `json:"nproc"`
	GoMaxProcs  int         `json:"gomaxprocs"`
	GoVersion   string      `json:"go_version"`
	GitCommit   string      `json:"git_commit"`
	Started     string      `json:"started"`
	Workloads   []*wlResult `json:"workloads"`
}

func newReport(p paths, rc runConfig) *report {
	commit := "unknown"
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = p.root
	if out, err := cmd.Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return &report{
		Seed: rc.seed, Seconds: rc.seconds, Quick: rc.quick, ServerFlags: serverFlags,
		NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		GitCommit: commit, Started: time.Now().UTC().Format(time.RFC3339),
	}
}

// resultLine is the last line of standard output in single-workload mode.
type resultLine struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "run one workload (tx-write, tx-mixed, analytic, workbook) and print one result line; empty runs the whole suite")
	seed := flag.Int64("seed", 1, "seed of the generated data and op sequences")
	seconds := flag.Int("seconds", defaultSeconds, "timed-phase length: the op count is this many seconds at each workload's calibrated rate")
	trace := flag.Int("trace", 0, "0: end-to-end run, tracing off; 1: traced per-layer run")
	quick := flag.Bool("quick", false, "data ÷ 20 and a dozen cycles: a smoke run of every code path")
	compare := flag.Bool("compare", false, "compare two reports (files or directories of report files) given as arguments")
	summary := flag.String("summary", "", "print median, quartiles and relative IQR per (workload, metric) of a report file or a directory of them")
	out := flag.String("out", "", "directory for report.json and trace.json (default <root>/.bench_build/out)")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare wants two arguments, got %d", flag.NArg()))
		}
		if err := compareReports(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fatal(err)
		}
		return
	}
	if *summary != "" {
		if err := summarizeReports(os.Stdout, *summary); err != nil {
			fatal(err)
		}
		return
	}
	p, err := locate()
	if err != nil {
		fatal(err)
	}
	if *out == "" {
		*out = filepath.Join(p.scratch, "out")
	}
	rc := runConfig{seed: *seed, seconds: *seconds, quick: *quick}
	if err := buildServer(p); err != nil {
		fatal(err)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}

	if *workload != "" {
		sp, ok := specByName(*workload)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *workload))
		}
		var res *wlResult
		var metrics map[string]value
		if *trace == 0 {
			if res, err = runEndToEnd(p, sp, rc); err == nil {
				metrics = pick(res.EndToEnd, endToEnd)
			}
		} else {
			if res, err = runTraced(p, sp, rc, *out); err == nil {
				metrics = pick(res.PerLayer, perLayer)
			}
		}
		if err != nil {
			fatal(err)
		}
		printWorkload(logw, res)
		line, err := json.Marshal(resultLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: metrics})
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
		if !res.Correct {
			os.Exit(1)
		}
		return
	}

	rep, err := runSuite(p, rc, *out)
	if err != nil {
		fatal(err)
	}
	path := filepath.Join(*out, "report.json")
	if err := writeJSON(path, rep); err != nil {
		fatal(err)
	}
	fmt.Fprintf(logw, "report written to %s\n", path)
	for _, w := range rep.Workloads {
		if !w.Correct {
			fmt.Fprintf(logw, "FAILED: %s: oracle mismatch or failed operations\n", w.Workload)
			os.Exit(1)
		}
	}
}

// runSuite runs every workload, end to end and then traced, into one
// report.
func runSuite(p paths, rc runConfig, out string) (*report, error) {
	rep := newReport(p, rc)
	for _, sp := range specs {
		res, err := runEndToEnd(p, sp, rc)
		if err != nil {
			return nil, err
		}
		traced, err := runTraced(p, sp, rc, out)
		if err != nil {
			return nil, err
		}
		res.PerLayer = traced.PerLayer
		res.Attempted += traced.Attempted
		res.Failed += traced.Failed
		res.Correct = res.Correct && traced.Correct
		res.Problems = append(res.Problems, traced.Problems...)
		printWorkload(logw, res)
		rep.Workloads = append(rep.Workloads, res)
	}
	return rep, nil
}

// pick returns exactly the metrics defs names, in the wire form.
func pick(all map[string]value, defs []metricDef) map[string]value {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		v := all[d.name]
		out[d.name] = value{Value: v.Value, Unit: d.unit}
	}
	return out
}

func printWorkload(w io.Writer, res *wlResult) {
	fmt.Fprintf(w, "\n== %s: %d facts, %d edges, %d client(s), %d cycles/client, ops %s\n",
		res.Workload, res.Facts, res.Edges, res.Clients, res.Cycles, res.OpsSHA256[:12])
	fmt.Fprintf(w, "   correct=%v attempted=%d failed=%d\n", res.Correct, res.Attempted, res.Failed)
	for _, pr := range res.Problems {
		fmt.Fprintf(w, "   problem: %s\n", pr)
	}
	for _, set := range [][]metricDef{endToEnd, scoped} {
		for _, d := range set {
			if v, ok := res.EndToEnd[d.name]; ok {
				fmt.Fprintf(w, "   %-34s %14.4f %-6s n=%d", d.name, v.Value, v.Unit, v.Samples)
				if v.Raw != 0 {
					fmt.Fprintf(w, "  (raw %.4f)", v.Raw)
				}
				fmt.Fprintln(w)
			}
		}
	}
	for _, d := range perLayer {
		if v, ok := res.PerLayer[d.name]; ok {
			fmt.Fprintf(w, "   %-34s %14.4f %-6s n=%d\n", d.name, v.Value, v.Unit, v.Samples)
		}
	}
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}
