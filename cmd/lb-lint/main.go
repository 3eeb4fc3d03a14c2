// Command lb-lint runs this repository's static-analysis suite.
//
// Modes:
//
//	lb-lint [flags] [packages...]
//	    Run the Go analyzers (immutable, errwrap, ctxloop, obssafe, and
//	    the CFG dataflow trio locksafe, leakcheck, snapshotescape) over the given package patterns (default ./...).
//	    Any finding is an error: the suite has no suppression mechanism,
//	    so the exit status is 1 unless the tree is clean.
//
//	    -json      emit findings as a JSON array (file/line/analyzer/
//	               severity/message) instead of text
//	    -baseline f diff findings against the committed baseline file:
//	               only findings absent from the baseline fail the run
//	               (stale baseline entries are reported as notes), so CI
//	               gates on *new* findings
//
//	lb-lint -list [-v [packages...]]
//	    List the Go analyzers. With -v, also run the suite over the
//	    packages and print per-package wall-clock per analyzer, so new
//	    analyzers can be budgeted against the `make lint` <60s target.
//
//	lb-lint -logiql file.logic [file.logic...]
//	    Parse each LogiQL file and print warning-tier findings from the
//	    program checker (dead rules, unconsumed heads, singleton
//	    variables, duplicate/subsumed rules, unsatisfiable constraint
//	    bodies). Warnings are advisory and do not fail the run; only
//	    unreadable or unparsable files do.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"logicblox/internal/analysis"
	"logicblox/internal/analysis/logiql"
	"logicblox/internal/parser"
)

func main() {
	logiqlMode := flag.Bool("logiql", false, "check LogiQL program files instead of Go packages")
	list := flag.Bool("list", false, "list the Go analyzers and exit")
	verbose := flag.Bool("v", false, "with -list: run the suite and report per-package analyzer runtime")
	jsonOut := flag.Bool("json", false, "emit findings as JSON")
	baseline := flag.String("baseline", "", "baseline JSON file: fail only on findings not in it")
	flag.Parse()

	if *list {
		os.Exit(runList(flag.Args(), *verbose))
	}
	if *logiqlMode {
		os.Exit(runLogiQL(flag.Args()))
	}
	os.Exit(runGo(flag.Args(), *jsonOut, *baseline))
}

// finding is the machine-readable form of one diagnostic — also the
// schema of lint-baseline.json.
type finding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Analyzer string `json:"analyzer"`
	Severity string `json:"severity"`
	Message  string `json:"message"`
}

// baselineKey identifies a finding across line drift: a baselined
// finding stays suppressed while the file, analyzer, and message match,
// even as unrelated edits move it.
func (f finding) baselineKey() string {
	return f.File + "\x00" + f.Analyzer + "\x00" + f.Message
}

func toFinding(d analysis.Diagnostic) finding {
	file := d.Pos.Filename
	if wd, err := os.Getwd(); err == nil {
		if rel, err := filepath.Rel(wd, file); err == nil && !filepath.IsAbs(rel) {
			file = rel
		}
	}
	return finding{File: filepath.ToSlash(file), Line: d.Pos.Line, Analyzer: d.Analyzer, Severity: d.Severity, Message: d.Message}
}

func runGo(patterns []string, jsonOut bool, baselinePath string) int {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.Load(".", patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lb-lint: %v\n", err)
		return 2
	}
	diags, err := analysis.RunAnalyzers(pkgs, analysis.Analyzers())
	if err != nil {
		fmt.Fprintf(os.Stderr, "lb-lint: %v\n", err)
		return 2
	}
	findings := make([]finding, len(diags))
	for i, d := range diags {
		findings[i] = toFinding(d)
	}

	newFindings := findings
	if baselinePath != "" {
		known, err := loadBaseline(baselinePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lb-lint: %v\n", err)
			return 2
		}
		newFindings = nil
		seen := map[string]bool{}
		for _, f := range findings {
			seen[f.baselineKey()] = true
			if !known[f.baselineKey()] {
				newFindings = append(newFindings, f)
			}
		}
		for key, k := range known {
			if k && !seen[key] {
				fmt.Fprintf(os.Stderr, "lb-lint: note: stale baseline entry (finding no longer present): %q\n", key)
			}
		}
	}

	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if findings == nil {
			findings = []finding{}
		}
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintf(os.Stderr, "lb-lint: %v\n", err)
			return 2
		}
	} else {
		for _, f := range newFindings {
			fmt.Printf("%s:%d: %s: %s: %s\n", f.File, f.Line, f.Analyzer, f.Severity, f.Message)
		}
	}
	if len(newFindings) > 0 {
		fmt.Fprintf(os.Stderr, "lb-lint: %d finding(s)\n", len(newFindings))
		return 1
	}
	return 0
}

// loadBaseline reads a baseline file (the -json output format) into a
// set of baseline keys.
func loadBaseline(path string) (map[string]bool, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading baseline: %w", err)
	}
	var entries []finding
	if err := json.Unmarshal(data, &entries); err != nil {
		return nil, fmt.Errorf("parsing baseline %s: %w", path, err)
	}
	known := map[string]bool{}
	for _, f := range entries {
		known[f.baselineKey()] = true
	}
	return known, nil
}

// runList prints the analyzer roster; with verbose it also runs the
// suite over the patterns and prints wall-clock per (package, analyzer).
func runList(patterns []string, verbose bool) int {
	for _, a := range analysis.Analyzers() {
		fmt.Printf("%-15s %s\n", a.Name, a.Doc)
	}
	if !verbose {
		return 0
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.Load(".", patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lb-lint: %v\n", err)
		return 2
	}
	_, timings, err := analysis.RunAnalyzersTimed(pkgs, analysis.Analyzers())
	if err != nil {
		fmt.Fprintf(os.Stderr, "lb-lint: %v\n", err)
		return 2
	}
	fmt.Printf("\n%-40s %-15s %10s\n", "package", "analyzer", "elapsed")
	perAnalyzer := map[string]time.Duration{}
	for _, tm := range timings {
		pkg := tm.PkgPath
		if pkg == "" {
			pkg = "(finish)"
		}
		fmt.Printf("%-40s %-15s %10s\n", pkg, tm.Analyzer, tm.Elapsed.Round(time.Microsecond))
		perAnalyzer[tm.Analyzer] += tm.Elapsed
	}
	names := make([]string, 0, len(perAnalyzer))
	for name := range perAnalyzer {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("\n%-15s %10s\n", "analyzer", "total")
	for _, name := range names {
		fmt.Printf("%-15s %10s\n", name, perAnalyzer[name].Round(time.Microsecond))
	}
	return 0
}

func runLogiQL(files []string) int {
	if len(files) == 0 {
		fmt.Fprintln(os.Stderr, "lb-lint -logiql: no files given")
		return 2
	}
	status := 0
	for _, path := range files {
		src, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lb-lint: %v\n", err)
			status = 1
			continue
		}
		prog, err := parser.Parse(string(src))
		if err != nil {
			fmt.Fprintf(os.Stderr, "lb-lint: %s: %v\n", path, err)
			status = 1
			continue
		}
		for _, w := range logiql.CheckProgram(prog) {
			fmt.Printf("%s: %s\n", path, w)
		}
	}
	return status
}
