// Package analysis is a small, stdlib-only static-analysis framework for
// this repository: it loads Go packages (go/parser + go/types, resolving
// dependencies through the go command's export data), walks their ASTs
// with full type information, and reports positioned diagnostics.
//
// The analyzers in this package enforce engine invariants that Go's type
// system cannot express — the persistent data structures of paper §3.1
// are correct only if no node is mutated after construction, typed
// sentinel errors are only useful if tested with errors.Is, context
// deadlines only work if fixpoint loops poll them, and the nil-safe
// observability contract only holds if every exported metric method
// guards its receiver. cmd/lb-lint is the command-line driver; `make
// lint` runs it over the whole repository and must stay clean (there is
// no suppression mechanism, deliberately — see docs/analysis.md).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"time"
)

// Diagnostic is one finding: a position, the analyzer that produced it,
// a severity, and a message describing the violated invariant.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Severity string // "error" for the Go analyzers
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Pass carries everything an analyzer needs to examine one package.
// Shared is per-analyzer scratch that survives across packages within
// one RunAnalyzers call — the channel through which cross-package
// analyzers (locksafe's lock-order graph, snapshotescape's escape
// summaries) accumulate state. Packages arrive in dependency order, so
// by the time a package is analyzed every summary of its dependencies
// is already in Shared.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	Shared   map[string]any

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Severity: "error",
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzer is one named check run over a type-checked package. Finish,
// when set, runs once after Run has seen every package of the load; the
// Pass it receives has the shared FileSet and the analyzer's Shared
// scratch but no Files/Pkg/Info — it is where whole-program findings
// (lock-order cycles) are reported.
type Analyzer struct {
	Name   string
	Doc    string
	Run    func(*Pass) error
	Finish func(*Pass) error
}

// Analyzers returns the full suite, in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		ImmutableAnalyzer, ErrwrapAnalyzer, CtxloopAnalyzer, ObssafeAnalyzer,
		LocksafeAnalyzer, LeakcheckAnalyzer, SnapshotEscapeAnalyzer,
	}
}

// Timing records how long one analyzer spent on one package.
type Timing struct {
	PkgPath  string
	Analyzer string
	Elapsed  time.Duration
}

// RunAnalyzers applies every analyzer to every package and returns the
// combined diagnostics sorted by file position.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	diags, _, err := RunAnalyzersTimed(pkgs, analyzers)
	return diags, err
}

// RunAnalyzersTimed is RunAnalyzers reporting per-package wall-clock
// spent in each analyzer, so new analyzers can be budgeted (`lb-lint
// -list -v`). Finish hooks run after all packages, under the analyzer's
// name with an empty package path.
func RunAnalyzersTimed(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, []Timing, error) {
	var diags []Diagnostic
	var timings []Timing
	shared := map[*Analyzer]map[string]any{}
	for _, a := range analyzers {
		shared[a] = map[string]any{}
	}
	var fset *token.FileSet
	for _, pkg := range pkgs {
		fset = pkg.Fset
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				Shared:   shared[a],
				diags:    &diags,
			}
			t0 := time.Now()
			err := a.Run(pass)
			timings = append(timings, Timing{PkgPath: pkg.PkgPath, Analyzer: a.Name, Elapsed: time.Since(t0)})
			if err != nil {
				return diags, timings, fmt.Errorf("%s on %s: %w", a.Name, pkg.PkgPath, err)
			}
		}
	}
	for _, a := range analyzers {
		if a.Finish == nil || fset == nil {
			continue
		}
		pass := &Pass{Analyzer: a, Fset: fset, Shared: shared[a], diags: &diags}
		t0 := time.Now()
		err := a.Finish(pass)
		timings = append(timings, Timing{Analyzer: a.Name, Elapsed: time.Since(t0)})
		if err != nil {
			return diags, timings, fmt.Errorf("%s finish: %w", a.Name, err)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, timings, nil
}

// calleeName returns the bare name of a call's callee: the identifier for
// f(...), the selector for x.f(...), empty otherwise.
func calleeName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

// namedOf unwraps pointers and aliases down to a named type, or nil.
func namedOf(t types.Type) *types.Named {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Alias:
			t = types.Unalias(t)
		case *types.Named:
			return u
		default:
			return nil
		}
	}
}
