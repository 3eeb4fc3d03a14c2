package analysis

import (
	"bufio"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// loadFixtures type-checks the named fixture packages under testdata/src
// through the real loader, so every analyzer test also exercises Load.
func loadFixtures(t *testing.T, dirs ...string) []*Package {
	t.Helper()
	patterns := make([]string, len(dirs))
	for i, d := range dirs {
		patterns[i] = "./testdata/src/" + d
	}
	pkgs, err := Load(".", patterns...)
	if err != nil {
		t.Fatalf("loading fixtures %v: %v", dirs, err)
	}
	if len(pkgs) < len(dirs) {
		t.Fatalf("loaded %d packages for %d fixture dirs", len(pkgs), len(dirs))
	}
	return pkgs
}

// want is one expectation parsed from a `// want: substring` marker: the
// named analyzer must report a diagnostic on that line whose message
// contains the substring.
type want struct {
	file   string
	line   int
	substr string
}

func readWants(t *testing.T, dirs ...string) []want {
	t.Helper()
	var wants []want
	for _, dir := range dirs {
		paths, err := filepath.Glob(filepath.Join("testdata", "src", dir, "*.go"))
		if err != nil || len(paths) == 0 {
			t.Fatalf("no fixture files in %s (err=%v)", dir, err)
		}
		for _, path := range paths {
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			sc := bufio.NewScanner(f)
			for line := 1; sc.Scan(); line++ {
				text := sc.Text()
				if i := strings.Index(text, "// want:"); i >= 0 {
					wants = append(wants, want{
						file:   filepath.Base(path),
						line:   line,
						substr: strings.TrimSpace(text[i+len("// want:"):]),
					})
				}
			}
			f.Close()
		}
	}
	return wants
}

// checkFixture runs one analyzer over the fixture packages and requires
// its diagnostics to match the `// want:` markers exactly — no missing
// findings, no extras.
func checkFixture(t *testing.T, an *Analyzer, dirs ...string) {
	t.Helper()
	pkgs := loadFixtures(t, dirs...)
	diags, err := RunAnalyzers(pkgs, []*Analyzer{an})
	if err != nil {
		t.Fatal(err)
	}
	wants := readWants(t, dirs...)
	matched := make([]bool, len(wants))
outer:
	for _, d := range diags {
		base := filepath.Base(d.Pos.Filename)
		for i, w := range wants {
			if !matched[i] && w.file == base && w.line == d.Pos.Line && strings.Contains(d.Message, w.substr) {
				matched[i] = true
				continue outer
			}
		}
		t.Errorf("unexpected diagnostic: %s", d)
	}
	for i, w := range wants {
		if !matched[i] {
			t.Errorf("missing diagnostic at %s:%d containing %q", w.file, w.line, w.substr)
		}
	}
}

func TestImmutableAnalyzer(t *testing.T) {
	checkFixture(t, ImmutableAnalyzer, "treap", "store")
}

func TestErrwrapAnalyzer(t *testing.T) {
	checkFixture(t, ErrwrapAnalyzer, "errs")
}

func TestCtxloopAnalyzer(t *testing.T) {
	checkFixture(t, CtxloopAnalyzer, "engine", "worker", "replica")
}

func TestObssafeAnalyzer(t *testing.T) {
	checkFixture(t, ObssafeAnalyzer, "obs", "obsuser")
}

func TestLocksafeAnalyzer(t *testing.T) {
	checkFixture(t, LocksafeAnalyzer, "locks", "lockorder")
}

func TestLeakcheckAnalyzer(t *testing.T) {
	checkFixture(t, LeakcheckAnalyzer, "leakres", "leaksrv", "cursor")
}

func TestSnapshotEscapeAnalyzer(t *testing.T) {
	checkFixture(t, SnapshotEscapeAnalyzer, "pescape", "pescapeuser")
}

// TestLoadRealPackage loads a real repository package with its stdlib
// imports resolved through export data.
func TestLoadRealPackage(t *testing.T) {
	pkgs, err := Load("../..", "./internal/treap")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) != 1 || pkgs[0].Name != "treap" {
		t.Fatalf("got %d packages, want exactly internal/treap", len(pkgs))
	}
	if pkgs[0].Types.Scope().Lookup("Tree") == nil {
		t.Fatalf("loaded treap package has no Tree type")
	}
}

var (
	moduleOnce sync.Once
	modulePkgs []*Package
	moduleErr  error
)

// loadModule loads every package of the module once for the tests that
// read the real tree.
func loadModule(t *testing.T) []*Package {
	t.Helper()
	moduleOnce.Do(func() { modulePkgs, moduleErr = Load("../..", "./...") })
	if moduleErr != nil {
		t.Fatalf("Load: %v", moduleErr)
	}
	return modulePkgs
}

// TestSuiteSelfClean runs the full suite — the CFG dataflow analyzers
// included — over every package in the module: the invariants must hold
// in the real tree with zero findings and no suppressions (make lint
// enforces the same repo-wide; this test pins it under plain go test).
func TestSuiteSelfClean(t *testing.T) {
	diags, err := RunAnalyzers(loadModule(t), Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("finding in real tree: %s", d)
	}
}

// TestTablesNameRealCode: every package, type and constructor an
// analyzer's table names exists in the real module. The fixtures declare
// their own copies of these names, so a rename in the real tree would
// leave every fixture test green while the check it gates went dark.
func TestTablesNameRealCode(t *testing.T) {
	byName := map[string]*types.Package{}
	byPath := map[string]*types.Package{}
	var addPath func(p *types.Package)
	addPath = func(p *types.Package) {
		if byPath[p.Path()] != nil {
			return
		}
		byPath[p.Path()] = p
		for _, imp := range p.Imports() {
			addPath(imp)
		}
	}
	for _, p := range loadModule(t) {
		byName[p.Name] = p.Types
		addPath(p.Types)
	}
	pkgNamed := func(table, name string) *types.Package {
		p := byName[name]
		if p == nil {
			t.Errorf("%s names package %q, which the module does not have", table, name)
		}
		return p
	}
	hasType := func(table string, p *types.Package, name string) {
		if _, ok := p.Scope().Lookup(name).(*types.TypeName); !ok {
			t.Errorf("%s names type %s.%s, which does not exist", table, p.Name(), name)
		}
	}
	hasFunc := func(table string, p *types.Package, name string) {
		if !declaresFunc(p, name) {
			t.Errorf("%s names function %s.%s, which does not exist", table, p.Path(), name)
		}
	}

	for _, table := range []struct {
		name string
		pkgs map[string]bool
	}{
		{"leakGoroutinePackages", leakGoroutinePackages},
		{"ctxloopPackages", ctxloopPackages},
		{"snapshotPackages", snapshotPackages},
	} {
		for name := range table.pkgs {
			pkgNamed(table.name, name)
		}
	}
	for pkg, protected := range immutableTypes {
		p := pkgNamed("immutableTypes", pkg)
		if p == nil {
			continue
		}
		for typ, ctors := range protected {
			hasType("immutableTypes", p, typ)
			for _, ctor := range ctors {
				hasFunc("immutableTypes", p, ctor)
			}
		}
	}
	if p := pkgNamed("obsHandleTypes", "obs"); p != nil {
		for typ := range obsHandleTypes {
			hasType("obsHandleTypes", p, typ)
		}
	}
	for full := range storedElements {
		i := strings.LastIndex(full, ".")
		if p := byPath[full[:i]]; p == nil {
			t.Errorf("storedElements names package %q, which the module does not import", full[:i])
		} else {
			hasType("storedElements", p, full[i+1:])
		}
	}
	for _, spec := range resourceTable {
		if p := byPath[spec.pkgPath]; p == nil {
			t.Errorf("resourceTable names package %q, which the module does not import", spec.pkgPath)
		} else {
			hasFunc("resourceTable", p, spec.ctor)
		}
	}
}

// declaresFunc reports whether p declares a function or a method named
// name.
func declaresFunc(p *types.Package, name string) bool {
	scope := p.Scope()
	if _, ok := scope.Lookup(name).(*types.Func); ok {
		return true
	}
	for _, n := range scope.Names() {
		named, ok := scope.Lookup(n).Type().(*types.Named)
		if !ok {
			continue
		}
		for i := 0; i < named.NumMethods(); i++ {
			if named.Method(i).Name() == name {
				return true
			}
		}
	}
	return false
}
